"""Crossing-table enclosures against the sampled Nyquist polygon.

``classify`` reads a probe's enclosure off ``nyquist_contour``'s table of the
contour's signed crossings of the negative real axis.  The reference here is
the closed polygon that the table replaced: ``N_CONTOUR`` log-spaced samples
of G(j omega) over ``OMEGA_RANGE``, their mirror by conjugation, and for q
poles at the origin a clockwise arc of q pi radians in 64 q chords at ten
times the innermost radius, closed back to the first sample; its winding
number about a point counts the signed crossings of a horizontal ray by the
polygon's edges.

``analyze`` reads its labels off the same table, at the crossover's own
row, and F's run.  ``analyze`` with labels from the reference's winding
numbers at ``classify``'s probes must equal ``analyze`` on the benchmark's
ops and the case studies.  On a family of plant shapes the two
enclosures must agree at log-spaced probes, except where a polygon chord cuts
a sharp crossing: there the table counts the crossing at its exact abscissa,
so a probe within 1e-3 of it may disagree once, and the table must then give
the count that the polygon gives beyond that band, on the probe's side.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dfcycle import LinearPlant, cycles
from dfcycle.cycles import DELTA, STABLE, UNSTABLE, analyze
from dfcycle.descfun import df_value
from dfcycle.linsys import OMEGA_RANGE, log_grid, nyquist_contour, phase_crossovers

from conftest import plant_a, plant_b

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"

# Log-grid samples of the reference polygon's positive-frequency branch.
N_CONTOUR = 8192


def polygon(plant: LinearPlant) -> np.ndarray:
    """The closed Nyquist polygon, first vertex repeated at the end."""
    g = plant.transfer(1j * log_grid(*OMEGA_RANGE, N_CONTOUR))
    parts = [g, np.conj(g)[::-1]]
    q = plant.origin_poles
    if q > 0:
        theta0 = np.angle(np.conj(g[0]))
        sweep = theta0 - np.linspace(0.0, q * math.pi, 64 * q + 1)
        parts.append(10.0 * abs(g[0]) * np.exp(1j * sweep))
    contour = np.concatenate(parts)
    return np.append(contour, contour[0])


def winding_number(contour: np.ndarray, point: complex) -> int:
    """Signed winding number of a closed polygonal contour around a point."""
    v = np.asarray(contour) - point
    x, y = v.real, v.imag
    # orientation of each edge against the horizontal ray from the origin
    with np.errstate(over="ignore", invalid="ignore"):
        cross = x[:-1] * y[1:] - x[1:] * y[:-1]
        if not np.isfinite(cross).all():
            # a power-of-2 scale is exact and keeps the products finite
            shift = -math.frexp(max(np.abs(x).max(), np.abs(y).max()))[1]
            x, y = np.ldexp(x, shift), np.ldexp(y, shift)
            cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    y0, y1 = y[:-1], y[1:]
    up = (y0 <= 0.0) & (y1 > 0.0) & (cross > 0.0)
    down = (y0 > 0.0) & (y1 <= 0.0) & (cross < 0.0)
    return int(np.sum(up)) - int(np.sum(down))


def table_winding(table: np.ndarray, p: float) -> float:
    return table[table[:, 0] < p, 1].sum()


def reference_analyze(plant, nl):
    """``analyze`` with each cycle labelled by the polygon's winding numbers
    at ``classify``'s probes."""
    built = []  # the polygon, at the first cycle: most ops have none

    def polygon_label(X, omega, enclosed_below, enclosed_above):
        # F at each probe comes from its own df_value call, not from analyze
        if not built:
            built.append(polygon(plant))
        below, above = (
            winding_number(built[0], -1.0 / df_value(nl, X * (1.0 + s * DELTA))) != 0
            for s in (-1.0, 1.0)
        )
        return {(True, False): STABLE, (False, True): UNSTABLE}[below, above]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "_label", polygon_label)
        return analyze(plant, nl)


@pytest.fixture(scope="module")
def bench_inputs():
    sys.path.insert(0, str(BENCH_DIR))
    no_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import inputs
    finally:
        sys.path.remove(str(BENCH_DIR))
        sys.dont_write_bytecode = no_bytecode
    return inputs


def _rounds(stream, n):
    return [op for _, ops in zip(range(n), stream) for op in ops]


def test_gain_sweep_and_verify_ops_match_the_polygon(bench_inputs):
    ops = [op for seed in range(1, 11) for op in _rounds(bench_inputs.gain_sweep_rounds(seed), 11)]
    ops += [op for seed in range(1, 6) for op in _rounds(bench_inputs.verify_rounds(seed), 2)]
    labelled = 0
    for op in ops:
        result = analyze(op.plant, op.nl)
        assert result == reference_analyze(op.plant, op.nl), op
        labelled += sum(len(co.cycles) for co in result)
    assert labelled > 300  # the comparison is not vacuous


@pytest.mark.parametrize("make, k, nl", [
    (plant_a, 1.0, "nl_a"), (plant_a, 2.5, "nl_a"), (plant_a, 6.0, "nl_a"),
    (plant_b, 5.0, "nl_b"), (plant_b, 15.0, "nl_b"), (plant_b, 30.0, "nl_b"),
])
def test_case_studies_match_the_polygon(make, k, nl, request):
    nl = request.getfixturevalue(nl)
    assert analyze(make(k), nl) == reference_analyze(make(k), nl)


def _plant(num, den, k=1.0):
    return LinearPlant(tuple(np.atleast_1d(num)), tuple(np.atleast_1d(den)), k)


# Lightly damped: 1 / (s (s^2 + 0.02 s + 1)) crosses at omega = 1, at -50.
DAMPED = _plant(1.0, [1.0, 0.02, 1.0, 0.0])

FAMILY = {
    "type0_cubic_lag": _plant(1.0, np.poly([-1.0, -2.0, -3.0]), 30.0),
    "type0_negative_gain": _plant(1.0, np.poly([-1.0, -1.0, -1.0]), -1.0),
    "type1_case_a": plant_a(2.5),
    "type1_case_b": plant_b(15.0),
    "type1_quartic_rhp_zero": _plant([-1.0, 1.5], np.poly([0.0, -1.0, -2.0, -4.0]), 3.0),
    "type1_damped": DAMPED,
    "type2": _plant(1.0, np.poly([0.0, 0.0, -1.0])),
    "type2_lead": _plant([1.0, 0.5], np.poly([0.0, 0.0, -2.0, -3.0]), 4.0),
    "type3": _plant(np.poly([-0.3, -0.3]), np.poly([0.0, 0.0, 0.0, -2.0])),
    "biproper_rhp_zeros": _plant(np.poly([1.0, 2.0]), np.poly([-1.0, -3.0]), -0.8),
    "biproper_all_pass": _plant(np.poly([1.0, 1.0]), np.poly([-1.0, -1.0]), 2.0),
}

PROBES = -np.logspace(-4.0, 4.0, 40)


def test_probe_enclosures_match_the_polygon():
    misses = []
    for name, plant in FAMILY.items():
        table = nyquist_contour(plant)
        contour = polygon(plant)
        probes = list(PROBES) + ([-49.995] if plant is DAMPED else [])
        for p in probes:
            if table_winding(table, p) != winding_number(contour, p):
                misses.append((name, plant, table, contour, p))
    assert len(misses) <= 1, [(m[0], m[4]) for m in misses]
    for name, plant, table, contour, p in misses:
        [c] = [-1.0 / km for _, km in phase_crossovers(plant) if abs(p + 1.0 / km) <= 1e-3 * abs(p)]
        beyond = c + 1e-2 * (p - c) / abs(p - c) * abs(c)
        assert table_winding(table, p) == winding_number(contour, beyond), name


def test_a_chord_across_a_resonance_misses_its_crossing():
    # the polygon's chord cuts the resonance peak short of -50
    p = -49.995
    assert table_winding(nyquist_contour(DAMPED), p) == -2
    assert winding_number(polygon(DAMPED), p) == 0
