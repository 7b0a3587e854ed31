"""The benchmark's own calls, run against this checkout.

``perfbench/workloads.py`` is imported as ``perfbench/run.py`` imports it,
but without ``bootstrap``, which pins BLAS threads for a timed run.  Each
workload sets up seed 1 and runs the first ops of its first round untraced
and traced, so a change that drops a name or a keyword the benchmark calls
fails here rather than in a benchmark run.  Nothing is written to disk.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from dfcycle import cycles
from dfcycle.cycles import analyze
from dfcycle.descfun import _df
from dfcycle.linsys import OMEGA_RANGE, _contour, nyquist_contour, phase_crossovers

from test_scan_reference import MAX_CALLS, counting_scans

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
OPS = 3


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    no_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
        from spans import Tracer
    finally:
        sys.path.remove(str(BENCH_DIR))
        sys.dont_write_bytecode = no_bytecode
    return workloads, Tracer


@pytest.mark.parametrize("name", ["gain_sweep", "verify", "df_curves"])
def test_first_ops_of_seed_1(bench, name):
    workloads, Tracer = bench
    wl, rounds, warm, result = workloads.set_up(name, 1)
    assert wl.check(warm, result) == []
    tracer = Tracer()
    for op in next(rounds)[:OPS]:
        plain = wl.run(op)
        traced, _ = wl.traced(op, tracer)
        assert wl.check(op, plain) == []
        assert wl.check(op, traced) == []
        assert wl.same(traced, plain)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_traced_crossings_are_analyzes(bench, seed):
    # the traced op calls phase_crossovers and nyquist_contour, the untraced
    # one analyze, and run.py requires the same result from both
    workloads, _ = bench
    for op in next(workloads.inputs.gain_sweep_rounds(seed)):
        table = _contour(op.plant)[1]
        assert nyquist_contour(op.plant).tolist() == [list(row) for row in table]
        crossings = phase_crossovers(op.plant, OMEGA_RANGE)
        assert crossings == [(co.omega, co.gain_margin) for co in analyze(op.plant, op.nl)]


def test_analyze_makes_no_array_kernel_call(bench, monkeypatch):
    # with F's scan table kept on the map, the F = K refinement and the
    # probes take F one amplitude at a time, in Python floats
    # (descfun._df_at), on the six case studies and gain_sweep's first round;
    # each refinement still stops within MAX_CALLS steps
    inputs = bench[0].inputs
    ops = [inputs._case_study_op(i) for i in range(6)]
    ops += next(inputs.gain_sweep_rounds(1))
    for op in ops:
        op.nl._f_scan
    calls = []

    def counted(nl, X):
        calls.append(len(X))
        return _df(nl, X)

    monkeypatch.setattr(cycles, "_df", counted)
    n_cycles = 0
    with counting_scans() as steps:
        for op in ops:
            n_cycles += sum(len(co.cycles) for co in analyze(op.plant, op.nl))
    assert calls == []
    assert steps and max(steps) <= MAX_CALLS, steps
    assert n_cycles >= 10  # the guard is not vacuous
