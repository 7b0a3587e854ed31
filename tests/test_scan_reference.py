"""The array root scans against plain scalar bisection loops.

``phase_crossovers`` and ``find_intersections`` refine all of their brackets
together as arrays.  The references below walk the same grids one interval
at a time and bisect one bracket at a time with scalar calls.  The two
searches step differently, so their roots differ by rounding; the checks
are the searches' own stopping rules instead.  The counts of crossovers and
of roots must be equal; each crossover must meet ``|Im G| <= 1e-12 |G|``
with Re G < 0 and carry the gain margin ``1/|G|`` exactly; each amplitude
must meet ``|F - K| <= VALUE_TOL`` or be an exact zero on the grid; and each
root must lie in the same closed grid interval as its reference root.  The
scans must also stop within ``MAX_CALLS`` array calls each.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import LinearPlant, PiecewiseNonlinearity, cycles, linsys
from dfcycle.cycles import N_GRID, VALUE_TOL, find_intersections
from dfcycle.descfun import df_value
from dfcycle.linsys import (
    MAX_ITER,
    N_SCAN,
    OMEGA_RANGE,
    _refine_sign_changes,
    phase_crossovers,
)

from conftest import plant_a, plant_b, random_nonlinearity

# Array calls of ``f`` that one scan may make; halving took up to about 30.
MAX_CALLS = 8


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


def assert_same_interval(grid, roots, reference):
    """Each root and its reference share a closed interval [grid[i], grid[i+1]]."""
    for r, ref in zip(roots, reference):
        assert _intervals(grid, r) & _intervals(grid, ref), (r, ref)


def _intervals(grid, r):
    lo = int(np.searchsorted(grid, r, side="left")) - 1
    hi = int(np.searchsorted(grid, r, side="right")) - 1
    return set(range(max(lo, 0), min(hi, len(grid) - 2) + 1))


@contextmanager
def counting_scans():
    """Patch the shared root scan so that it records its array calls a scan."""
    calls = []

    def counted(f, *args):
        calls.append(0)

        def f_counted(x):
            calls[-1] += 1
            return f(x)

        return _refine_sign_changes(f_counted, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsys, "_refine_sign_changes", counted)
        mp.setattr(cycles, "_refine_sign_changes", counted)
        yield calls


def assert_matches_reference(plant, nl):
    with counting_scans() as calls:
        crossings = phase_crossovers(plant)
        roots = [find_intersections(nl, km) for _, km in crossings]
    assert max(calls) <= MAX_CALLS, calls

    reference = reference_crossovers(plant)
    assert len(crossings) == len(reference)
    omega_grid = np.logspace(
        math.log10(OMEGA_RANGE[0]), math.log10(OMEGA_RANGE[1]), N_SCAN
    )
    assert_same_interval(omega_grid, [w for w, _ in crossings], [w for w, _ in reference])
    for (w, km), xs in zip(crossings, roots):
        g = plant.transfer(1j * w)
        assert abs(g.imag) <= 1e-12 * abs(g) and g.real < 0
        assert km == 1.0 / abs(g)

        x_ref = reference_intersections(nl, km)
        assert len(xs) == len(x_ref)
        ref = nl.max_breakpoint
        x_max = 100.0 * ref if ref > 0 else 100.0
        x_grid = np.logspace(math.log10(x_max * 1e-7), math.log10(x_max), N_GRID)
        assert_same_interval(x_grid, xs, x_ref)
        grid_zeros = x_grid[df_value(nl, x_grid) == km]
        for x in xs:
            v = df_value(nl, x) - km
            assert abs(v) <= VALUE_TOL or x in grid_zeros, (x, v)
    return crossings


@pytest.mark.parametrize("k", (1.0, 2.5, 6.0))
def test_first_case_study_matches_reference(k, nl_a):
    assert len(assert_matches_reference(plant_a(k), nl_a)) == 1


@pytest.mark.parametrize("k", (5.0, 15.0, 30.0))
def test_second_case_study_matches_reference(k, nl_b):
    assert len(assert_matches_reference(plant_b(k), nl_b)) == 1


def test_root_just_above_a_jump_matches_reference():
    # F - K = 0 at 2.8e-6 X1 above the downward jump at X1 = 0.675: flat to
    # the left, a square-root drop to the right; false position from the log
    # grid's bracket alone took 18 array calls here
    nl = PiecewiseNonlinearity(
        x=(0.675254274192921, 0.675254274192921, 4.056051139265764, 4.306051139265764,
           5.004366270536452, 6.614060881115301, 7.442896604634479),
        y=(0.37379642720127504, -1.429199498952287, 2.926306354649493, 2.7872846123475,
           3.3210193055292763, 5.042192072580563, 5.4009680706408645),
        final_slope=-0.3206650303441472,
    )
    plant = LinearPlant(num=(-1.0, 2.0), den=(1.0, 6.0, 8.0, 0.0), k=11.0)
    assert_matches_reference(plant, nl)


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
