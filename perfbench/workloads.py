"""The three workloads: one op each, untraced and traced.

An untraced op calls the library the way its users do (``analyze``, the
``analyze --simulate`` verification, the ``df`` command's curves and plot).
The traced op makes the same public calls in the same order, each inside a
span named after its module, and must return an equal result.  Spans sit in
the benchmark's files, around the calls, so work a function does internally
(``classify`` calling ``df_value``, say) is charged to the function's own
layer.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from dfcycle import sim, svg
from dfcycle.cycles import (
    CrossoverAnalysis,
    LimitCycleEstimate,
    analyze,
    classify,
    ellipse_estimate,
    find_intersections,
)
from dfcycle.descfun import df_exact, df_oracle, df_value
from dfcycle.linsys import nyquist_contour, phase_crossovers
from dfcycle.qualdf import df_qualitative

import checks
import inputs
from checks import SimRun
from spans import Tracer

SCALES = {"stable": (0.5, 1.5), "unstable": (0.3, 2.0)}


def _span_for(tracer: Tracer | None):
    """``tracer.span`` when tracing, otherwise a span that records nothing."""
    if tracer is not None:
        return tracer.span
    return lambda name, **counts: nullcontext({})


def traced_analyze(plant, nl, tracer: Tracer) -> list[CrossoverAnalysis]:
    """``cycles.analyze`` decomposed into its public calls, each in a span."""
    span = tracer.span
    with span("linsys.nyquist_contour"):
        contour = nyquist_contour(plant)
    with span("linsys.phase_crossovers") as n:
        crossings = phase_crossovers(plant, inputs.OMEGA_RANGE)
        n["crossovers"] = len(crossings)
    results = []
    for omega, K in crossings:
        with span("cycles.find_intersections") as n:
            amplitudes = find_intersections(nl, K, x_max=None)
            n["cycles"] = len(amplitudes)
        cycles = []
        for X in amplitudes:
            with span("cycles.classify"):
                stability = classify(plant, nl, X, omega, contour=contour)
            with span("descfun.df_value"):
                Y1 = df_value(nl, X) * X
            with span("cycles.ellipse_estimate"):
                x0, xq = ellipse_estimate(plant, omega, Y1)
            cycles.append(
                LimitCycleEstimate(
                    omega=omega,
                    X=X,
                    stability=stability,
                    gain_margin=K,
                    Y1=Y1,
                    ellipse_x0=tuple(float(v) for v in x0),
                    ellipse_xq=tuple(float(v) for v in xq),
                )
            )
        results.append(CrossoverAnalysis(omega=omega, gain_margin=K, cycles=tuple(cycles)))
    return results


# -- gain_sweep -------------------------------------------------------------


def gain_sweep_run(op):
    return analyze(op.plant, op.nl)


def gain_sweep_traced(op, tracer):
    return traced_analyze(op.plant, op.nl, tracer), inputs.plot_grid(op.nl).tolist()


# -- verify -----------------------------------------------------------------


def _simulations(op, crossovers, tracer: Tracer | None):
    """Two simulations per predicted cycle, as ``dfcycle analyze --simulate``.

    The step is ``sim.default_horizon``'s (400 per period); the horizon is a
    fixed number of periods so that every simulation costs the same steps.
    Returns the run summaries and the first run's loop signal.
    """
    span = _span_for(tracer)
    runs, signal = [], None
    for ci, co in enumerate(crossovers):
        for i, cyc in enumerate(co.cycles):
            _, dt = sim.default_horizon(cyc.omega)
            T = inputs.VERIFY_PERIODS * 2.0 * math.pi / cyc.omega
            basis = np.asarray(cyc.ellipse_x0)
            for scale in SCALES[cyc.stability]:
                with span("sim.simulate") as n:
                    res = sim.simulate(op.plant, op.nl, scale * basis, T, dt)
                    n["steps"] = len(res.t) - 1
                    n[res.verdict] = 1
                if signal is None:
                    signal = res.x
                runs.append(SimRun(ci, i, scale, res.verdict, res.amplitude,
                                   res.frequency, len(res.t) - 1))
    return runs, signal


def verify_run(op):
    crossovers = analyze(op.plant, op.nl)
    runs, _ = _simulations(op, crossovers, None)
    return crossovers, runs


def verify_traced(op, tracer):
    crossovers = traced_analyze(op.plant, op.nl, tracer)
    runs, signal = _simulations(op, crossovers, tracer)
    points = [float(v) for v in signal[::10]] if signal is not None else []
    return (crossovers, runs), points


# -- df_curves --------------------------------------------------------------


def _curves(op, tracer: Tracer | None):
    span = _span_for(tracer)
    nl = op.nl
    with span("descfun.df_exact", points=len(op.dense)):
        exact = df_exact(nl, op.dense)
    with span("qualdf.df_qualitative", points=len(op.dense)):
        qual = df_qualitative(nl, op.dense)
    # the df command's SVG output: both curves on the plot grid
    with span("descfun.df_exact", points=len(op.plot_grid)):
        e_plot = df_exact(nl, op.plot_grid)
    with span("qualdf.df_qualitative", points=len(op.plot_grid)):
        q_plot = df_qualitative(nl, op.plot_grid)
    with span("svg.line_plot") as n:
        series = [
            svg.Series(list(c.X), list(c.F), label=c.provenance,
                       color="#c02020" if c.provenance == "exact" else "#208040",
                       dash=None if c.provenance == "exact" else "6,4")
            for c in (e_plot, q_plot)
        ]
        text = svg.line_plot(series, title="describing function", xlabel="X", ylabel="F")
        n["bytes"] = len(text)
    amplitudes = op.dense[op.oracle_at]
    oracle = np.empty(len(amplitudes))
    for i, X in enumerate(amplitudes):
        with span("descfun.df_oracle"):
            oracle[i] = df_oracle(nl, float(X))
    return exact, qual, text, oracle


def df_curves_run(op):
    return _curves(op, None)


def df_curves_traced(op, tracer):
    return _curves(op, tracer), op.plot_grid.tolist()


def _same_curves(a, b) -> bool:
    return (
        all(np.array_equal(x.X, y.X) and np.array_equal(x.F, y.F) for x, y in zip(a[:2], b[:2]))
        and a[2] == b[2]
        and np.array_equal(a[3], b[3])
    )


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    rounds: Callable[[int], Iterator[list]]
    warmup: Callable[[], object]
    run: Callable
    traced: Callable
    check: Callable[[object, object], list[str]]
    same: Callable[[object, object], bool]


WORKLOADS = {
    "gain_sweep": Workload(inputs.gain_sweep_rounds, inputs.gain_sweep_warmup,
                           gain_sweep_run, gain_sweep_traced, checks.check_analysis,
                           operator.eq),
    "verify": Workload(inputs.verify_rounds, inputs.verify_warmup, verify_run,
                       verify_traced, checks.check_verify, operator.eq),
    "df_curves": Workload(inputs.curves_rounds, inputs.curves_warmup, df_curves_run,
                          df_curves_traced, checks.check_curves, _same_curves),
}


def set_up(name: str, seed: int):
    """Generate the inputs and run one warm-up op.

    Returns the workload, the round stream, the warm-up op and its result.
    """
    wl = WORKLOADS[name]
    stream = wl.rounds(seed)
    first = next(stream)
    warm = wl.warmup()
    result = wl.run(warm)
    return wl, itertools.chain([first], stream), warm, result
