"""The benchmark's own calls, run against this checkout.

``perfbench/workloads.py`` is imported as ``perfbench/run.py`` imports it,
but without ``bootstrap``, which pins BLAS threads for a timed run.  Each
workload sets up seed 1 and runs the first ops of its first round untraced
and traced, so a change that drops a name or a keyword the benchmark calls
fails here rather than in a benchmark run.  The traced op labels each
cycle with ``classify``'s probes and the untraced one with ``analyze``'s
rule, so their labels must agree on the benchmark's op lists.  Nothing is
written to disk.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

from dfcycle import cycles
from dfcycle.cycles import analyze, classify
from dfcycle.descfun import _df
from dfcycle.linsys import OMEGA_RANGE, _contour, nyquist_contour, phase_crossovers

from test_scan_reference import MAX_CALLS, counting_scans

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
OPS = 3
# The seeds whose op lists the label test reads, and their rounds.
SEEDS = (1, 7, 41, 53, 97)
GAIN_SWEEP_ROUNDS, VERIFY_ROUNDS = 12, 5
# The descfun._df_at calls that analyze made on the first three rounds of
# gain_sweep's seed 1 (18 ops, 17 cycles) while it probed F at X (1 -/+
# DELTA) for each label and refined roots from a 4 096-point scan.
PROBING_DF_AT_CALLS = 113


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
    # with F's run table kept on the map, the F = K refinement and Y1 take
    # F one amplitude at a time, in Python floats (descfun._df_at), on the
    # six case studies and gain_sweep's first round; each refinement still
    # stops within MAX_CALLS steps
    inputs = bench[0].inputs
    ops = [inputs._case_study_op(i) for i in range(6)]
    ops += next(inputs.gain_sweep_rounds(1))
    for op in ops:
        op.nl._f_runs
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


def benchmark_ops(inputs):
    """The six case studies and the op lists of ``SEEDS``."""
    ops = [inputs._case_study_op(i) for i in range(6)]
    for seed in SEEDS:
        for stream, rounds in ((inputs.gain_sweep_rounds(seed), GAIN_SWEEP_ROUNDS),
                               (inputs.verify_rounds(seed), VERIFY_ROUNDS)):
            ops += itertools.chain.from_iterable(itertools.islice(stream, rounds))
    return ops


def test_analyze_labels_equal_classifys_on_the_benchmark_ops(bench):
    # the traced op's classify and the untraced op's analyze label every
    # cycle alike, so run.py's traced-equals-untraced check holds
    inputs = bench[0].inputs
    labelled = 0
    for op in benchmark_ops(inputs):
        contour = nyquist_contour(op.plant)
        for co in analyze(op.plant, op.nl):
            for c in co.cycles:
                assert c.stability == classify(op.plant, op.nl, c.X, co.omega,
                                               contour=contour), (op, c.X)
                labelled += 1
    assert labelled >= 300  # the comparison is not vacuous


def test_analyze_calls_f_no_more_than_when_it_probed(bench, monkeypatch):
    # the descfun._df_at calls of analyze (root refinement and Y1, no probes)
    # on the first three rounds of gain_sweep's seed 1, against the count of
    # the probing version; a count is exact where a time drifts
    inputs = bench[0].inputs
    calls = []
    df_at = cycles._df_at

    def counted(nl, X):
        calls.append(X)
        return df_at(nl, X)

    monkeypatch.setattr(cycles, "_df_at", counted)
    ops = list(itertools.chain.from_iterable(itertools.islice(inputs.gain_sweep_rounds(1), 3)))
    n_cycles = sum(len(co.cycles) for op in ops for co in analyze(op.plant, op.nl))
    assert n_cycles == 17
    assert len(calls) <= PROBING_DF_AT_CALLS, len(calls)
