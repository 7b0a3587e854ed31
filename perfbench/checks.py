"""Per-op correctness checks and their self-test.

Each ``check_*`` returns a list of problems; an empty list means the op's
output is correct.  ``selftest`` feeds every check deliberately wrong
results and reports the mutations a check failed to flag.
"""

from __future__ import annotations

import dataclasses
import math
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np

from dfcycle import df_value
from dfcycle.sim import CONVERGED, DIVERGED, SUSTAINED

from inputs import AnalysisOp, CurvesOp, VerifyOp, reference_crossovers

# Harmonic-balance tolerances: the library bisects |Im G| to 1e-12 |G| and
# |F(X) - K| to 1e-10, so these leave two orders of margin at gains >= 0.01.
OMEGA_RTOL = 1e-6
IM_RTOL = 1e-9
BALANCE_TOL = 1e-6
SLOPE_DELTA = 1e-3

# Criteria 1, 6 and 7 of the acceptance gate.
ORACLE_RTOL = 1e-6
FREQ_RTOL = 0.05
AMP_RTOL = 0.15
# Both describing-function curves below the first breakpoint.
LINEAR_ATOL = 1e-12

# Criteria 3-5: crossover, gain margin, and stability labels (None = any).
CASE_EXPECT = {
    ("plant_a", 1.0): (math.sqrt(2.0), 1.0, []),
    ("plant_a", 2.5): (math.sqrt(2.0), 0.4, ["unstable", "stable"]),
    ("plant_a", 6.0): (math.sqrt(2.0), 1.0 / 6.0, ["unstable"]),
    ("plant_b", 5.0): (math.sqrt(3.0), 2.4, []),
    ("plant_b", 15.0): (math.sqrt(3.0), 0.8, [None, None, "stable"]),
    ("plant_b", 30.0): (math.sqrt(3.0), 0.4, ["stable"]),
}


def _G(plant, omega: float) -> complex:
    return complex(plant.k * np.polyval(plant.num, 1j * omega)
                   / np.polyval(plant.den, 1j * omega))


def check_analysis(op: AnalysisOp | VerifyOp, crossovers) -> list[str]:
    """Harmonic balance, crossover positions and stability labels.

    Crossovers must match the roots of Im N(jw) conj(D(jw)); each must sit
    on the negative real axis with gain margin 1/|G|; each cycle must satisfy
    |F(X) G(jw) + 1| <= 1e-6.  Every generated plant loses stability as the
    loop gain rises through its margin, so a cycle is stable exactly where
    F(X) falls through the margin: the label must follow the sign of dF/dX.
    """
    problems = []
    expected = reference_crossovers(op.plant)
    got = [co.omega for co in crossovers]
    if len(got) != len(expected) or any(
        abs(g - e) > OMEGA_RTOL * e for g, e in zip(got, expected)
    ):
        problems.append(f"crossovers {got}, expected {expected}")
    for co in crossovers:
        G = _G(op.plant, co.omega)
        if abs(G.imag) > IM_RTOL * abs(G) or G.real >= 0:
            problems.append(f"G(j{co.omega}) = {G} is not on the negative real axis")
        if abs(co.gain_margin * abs(G) - 1.0) > IM_RTOL:
            problems.append(f"gain margin {co.gain_margin} != 1/|G| = {1 / abs(G)}")
        for c in co.cycles:
            F = df_value(op.nl, c.X)
            if abs(F * G + 1.0) > BALANCE_TOL:
                problems.append(f"|F(X) G(jw) + 1| = {abs(F * G + 1):.3e} at X = {c.X}")
            falling = df_value(op.nl, c.X * (1 + SLOPE_DELTA)) < df_value(
                op.nl, c.X * (1 - SLOPE_DELTA))
            if (c.stability == "stable") != falling:
                problems.append(f"cycle at X = {c.X} labelled {c.stability}")
            if (c.omega, c.gain_margin) != (co.omega, co.gain_margin):
                problems.append(f"cycle at X = {c.X} carries another crossover")
            if abs(c.Y1 - F * c.X) > 1e-9 * max(abs(c.Y1), 1.0):
                problems.append(f"Y1 = {c.Y1} != F(X) X = {F * c.X}")
    case = getattr(op, "case", None)
    if case is not None:
        problems += _check_case(case, crossovers)
    return problems


def _check_case(case, crossovers) -> list[str]:
    omega, margin, labels = CASE_EXPECT[case]
    if len(crossovers) != 1:
        return [f"case {case}: {len(crossovers)} crossovers, expected 1"]
    (co,) = crossovers
    problems = []
    if abs(co.omega - omega) > 1e-6 or abs(co.gain_margin - margin) > 1e-6:
        problems.append(f"case {case}: crossover ({co.omega}, {co.gain_margin}), "
                        f"expected ({omega}, {margin})")
    got = [c.stability for c in co.cycles]
    if len(got) != len(labels) or any(e is not None and g != e for g, e in zip(got, labels)):
        problems.append(f"case {case}: labels {got}, expected {labels}")
    return problems


@dataclasses.dataclass(frozen=True)
class SimRun:
    """Summary of one verification simulation."""

    crossover: int
    cycle: int
    scale: float
    verdict: str
    amplitude: float | None
    frequency: float | None
    steps: int


def predicted_outcome(cycles, i: int, scale: float):
    """(verdict, target cycle) that describing-function theory predicts.

    Between neighbouring cycles the amplitude drifts toward the stable one;
    beyond the outermost cycle it diverges if that cycle is unstable, and
    below the innermost it decays to the origin if that cycle is unstable.
    """
    a = scale * cycles[i].X
    below = max((c for c in cycles if c.X < a), key=lambda c: c.X, default=None)
    above = min((c for c in cycles if c.X > a), key=lambda c: c.X, default=None)
    up = (above is not None and above.stability == "stable") or (
        below is not None and below.stability == "unstable")
    target = above if up else below
    if target is None:
        return (DIVERGED if up else CONVERGED), None
    return SUSTAINED, target


def check_verify(op: VerifyOp, result) -> list[str]:
    """Analysis checks plus verdict, frequency and amplitude of every run."""
    crossovers, runs = result
    problems = check_analysis(op, crossovers)
    expected_runs = sum(2 * len(co.cycles) for co in crossovers)
    if len(runs) != expected_runs or expected_runs == 0:
        problems.append(f"{len(runs)} simulations, expected {expected_runs}")
    for run in runs:
        if run.crossover >= len(crossovers) or run.cycle >= len(
                crossovers[run.crossover].cycles):
            problems.append(f"simulation of a missing cycle {run.crossover}/{run.cycle}")
            continue
        cycles = crossovers[run.crossover].cycles
        verdict, target = predicted_outcome(cycles, run.cycle, run.scale)
        tag = f"cycle {run.cycle} x{run.scale}"
        if run.verdict != verdict:
            problems.append(f"{tag}: verdict {run.verdict}, predicted {verdict}")
        elif target is not None:
            f_err = abs(run.frequency - target.omega) / target.omega
            a_err = abs(run.amplitude - target.X) / target.X
            if f_err > FREQ_RTOL or a_err > AMP_RTOL:
                problems.append(f"{tag}: frequency error {f_err:.3f}, "
                                f"amplitude error {a_err:.3f}")
    return problems


def check_curves(op: CurvesOp, result) -> list[str]:
    """Oracle agreement (criterion 1), the linear range and well-formed SVG.

    The exact curve at the oracle's dense-grid points must match the oracle.
    Below the first breakpoint the map is linear, so both curves must equal
    its slope there.
    """
    exact, qual, svg_text, oracle = result
    for curve in (exact, qual):
        if not np.array_equal(curve.X, op.dense) or not np.all(np.isfinite(curve.F)):
            return [f"{curve.provenance} curve malformed"]
    problems = []
    ref = exact.F[op.oracle_at]
    rel = np.abs(ref - oracle) / np.maximum(np.maximum(np.abs(ref), np.abs(oracle)), 1e-12)
    if not np.all(rel <= ORACLE_RTOL):
        problems.append(f"oracle rel err {float(np.max(rel)):.2e} > {ORACLE_RTOL}")
    linear = op.dense < op.nl.breakpoints[0]
    slope = op.nl.initial_slope
    for curve in (exact, qual):
        err = float(np.max(np.abs(curve.F[linear] - slope)))
        if err > LINEAR_ATOL * max(abs(slope), 1.0):
            problems.append(f"{curve.provenance} curve off the initial slope by {err:.2e}")
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        problems.append(f"SVG is not well-formed XML: {exc}")
    else:
        if len(root.findall("{http://www.w3.org/2000/svg}polyline")) != 2:
            problems.append("SVG does not hold two polylines")
    return problems


# -- self-test --------------------------------------------------------------


def _first_cycle(crossovers):
    for i, co in enumerate(crossovers):
        if co.cycles:
            return i, co
    raise ValueError("self-test needs a result with at least one cycle")


def _mutate_cycle(crossovers, **changes):
    i, co = _first_cycle(crossovers)
    cycles = (dataclasses.replace(co.cycles[0], **changes),) + co.cycles[1:]
    return crossovers[:i] + [dataclasses.replace(co, cycles=cycles)] + crossovers[i + 1:]


def _analysis_mutations(crossovers):
    _, co = _first_cycle(crossovers)
    c = co.cycles[0]
    flipped = "unstable" if c.stability == "stable" else "stable"
    return {
        "X perturbed by 1 %": _mutate_cycle(crossovers, X=c.X * 1.01),
        "flipped stability label": _mutate_cycle(crossovers, stability=flipped),
        "crossover dropped": crossovers[1:],
        "omega perturbed by 1e-4": [dataclasses.replace(crossovers[0],
                                                        omega=crossovers[0].omega * 1.0001)]
        + crossovers[1:],
    }


def _verify_mutations(result):
    crossovers, runs = result
    out = {f"analysis: {k}": (v, runs) for k, v in _analysis_mutations(crossovers).items()}
    r = runs[0]
    wrong = CONVERGED if r.verdict != CONVERGED else DIVERGED
    out["wrong verdict"] = (crossovers, [dataclasses.replace(r, verdict=wrong)] + runs[1:])
    sustained = [j for j, r in enumerate(runs) if r.verdict == SUSTAINED]
    if sustained:
        j = sustained[0]
        for name, field, factor in (("amplitude off by 20 %", "amplitude", 1.2),
                                    ("frequency off by 10 %", "frequency", 1.1)):
            bad = dataclasses.replace(runs[j], **{field: getattr(runs[j], field) * factor})
            out[name] = (crossovers, runs[:j] + [bad] + runs[j + 1:])
    out["simulation missing"] = (crossovers, runs[1:])
    return out


def _curves_mutations(result):
    exact, qual, svg_text, oracle = result
    bad_oracle = oracle.copy()
    bad_oracle[len(bad_oracle) // 2] *= 1.0 + 1e-5
    return {
        "oracle off by 1e-5": (exact, qual, svg_text, bad_oracle),
        "exact curve shifted by 1e-5": (_shifted(exact, 1e-5), qual, svg_text, oracle),
        "qualitative curve shifted by 1e-5": (exact, _shifted(qual, 1e-5), svg_text, oracle),
        "truncated SVG": (exact, qual, svg_text[: len(svg_text) // 2], oracle),
        "non-finite curve": (_shifted(exact, np.nan), qual, svg_text, oracle),
    }


def _shifted(curve, share):
    """A copy of ``curve`` with ``share`` of its largest |F| (at least 1) added to F.

    A plain namespace, since the library's own curve type refuses NaN.
    """
    delta = share * max(float(np.max(np.abs(curve.F))), 1.0)
    return SimpleNamespace(X=curve.X, F=curve.F + delta, provenance=curve.provenance)


MUTATIONS = {
    "gain_sweep": (_analysis_mutations, check_analysis),
    "verify": (_verify_mutations, check_verify),
    "df_curves": (_curves_mutations, check_curves),
}


def selftest(workload: str, op, result) -> list[str]:
    """Names of deliberately wrong results the workload's check let through.

    ``result`` must pass the check; the self-test is void otherwise.
    """
    mutate, check = MUTATIONS[workload]
    if check(op, result):
        return ["unmodified result fails its check"]
    return [name for name, bad in mutate(result).items() if not check(op, bad)]
