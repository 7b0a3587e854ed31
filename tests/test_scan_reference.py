"""The array scan-and-bisect against plain scalar loops.

``phase_crossovers`` and ``find_intersections`` bisect all of their brackets
together as arrays.  The references below walk the same grids one interval
at a time and bisect one bracket at a time with scalar calls; since both do
the same arithmetic in the same order, the results must be equal exactly.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import LinearPlant
from dfcycle.cycles import N_GRID, VALUE_TOL, find_intersections
from dfcycle.descfun import df_value
from dfcycle.linsys import MAX_ITER, N_SCAN, OMEGA_RANGE, phase_crossovers

from conftest import plant_a, plant_b, random_nonlinearity


def reference_crossovers(plant):
    ws = np.logspace(math.log10(OMEGA_RANGE[0]), math.log10(OMEGA_RANGE[1]), N_SCAN)
    im = plant.transfer(1j * ws).imag
    out = []
    for i in range(len(ws) - 1):
        if im[i] == 0.0 or im[i] * im[i + 1] > 0.0:
            continue
        a, fa = ws[i], im[i]
        b = ws[i + 1]
        for _ in range(MAX_ITER):
            mid = 0.5 * (a + b)
            g_mid = plant.transfer(1j * mid)
            if abs(g_mid.imag) <= 1e-12 * abs(g_mid):
                break
            if (g_mid.imag > 0) == (fa > 0):
                a, fa = mid, g_mid.imag
            else:
                b = mid
        if g_mid.real < 0:
            out.append((float(mid), float(1.0 / abs(g_mid))))
    dedup = []
    for w, km in out:
        if not dedup or abs(w - dedup[-1][0]) > 1e-9 * w:
            dedup.append((w, km))
    return dedup


def reference_intersections(nl, gain_margin):
    ref = nl.max_breakpoint
    x_max = 100.0 * ref if ref > 0 else 100.0
    grid = np.logspace(math.log10(x_max * 1e-7), math.log10(x_max), N_GRID)

    def f(x):
        return df_value(nl, x) - gain_margin

    vals = f(grid)
    roots = []
    for i in range(len(grid) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(grid[i])
            continue
        if fa * fb >= 0.0:
            continue
        a, b = grid[i], grid[i + 1]
        for _ in range(MAX_ITER):
            mid = 0.5 * (a + b)
            fm = float(f(mid))
            if abs(fm) <= VALUE_TOL:
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(mid)
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    dedup = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 1e-6 * max(abs(r), 1e-300):
            dedup.append(r)
    return dedup


def assert_matches_reference(plant, nl):
    crossings = phase_crossovers(plant)
    assert crossings == reference_crossovers(plant)
    for _, km in crossings:
        assert find_intersections(nl, km) == reference_intersections(nl, km)
    return crossings


@pytest.mark.parametrize("k", (1.0, 2.5, 6.0))
def test_first_case_study_matches_reference(k, nl_a):
    assert len(assert_matches_reference(plant_a(k), nl_a)) == 1


@pytest.mark.parametrize("k", (5.0, 15.0, 30.0))
def test_second_case_study_matches_reference(k, nl_b):
    assert len(assert_matches_reference(plant_b(k), nl_b)) == 1


@given(
    st.lists(st.floats(0.2, 5.0), min_size=1, max_size=3),
    st.one_of(st.none(), st.floats(0.5, 5.0)),
    st.floats(0.5, 40.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_random_loops_match_reference(lags, rhp_zero, k, seed):
    # integrator plus one to three lags: plant order 2-4
    den = np.poly([0.0] + [-p for p in lags])
    num = (1.0,) if rhp_zero is None else (-1.0, rhp_zero)
    plant = LinearPlant(num=num, den=tuple(den), k=k)
    nl = random_nonlinearity(random.Random(seed), max_breakpoints=6)
    assert_matches_reference(plant, nl)
