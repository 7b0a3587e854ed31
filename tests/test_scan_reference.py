"""The root searches against plain scalar bisection loops.

``find_intersections`` refines each of its brackets on its own by false
position, and ``phase_crossovers`` takes the real roots of a polynomial.
The references below walk log grids one interval at a time and bisect one
bracket at a time with scalar calls.  The searches step differently, so
their roots differ by rounding; the checks are the searches' own stopping
rules instead.  The counts of crossovers and of roots must be equal; each
crossover must meet ``|Im G| <= 1e-12 |G|`` with Re G < 0 and carry the
gain margin ``1/|G|`` exactly; each amplitude must meet
``|F - K| <= VALUE_TOL`` or be an exact root; and each root must lie in the
same closed grid interval as its reference root.  The F = K search must
also stop within ``MAX_CALLS`` steps of each bracket.

The F = K reference is a dense log scan of F - K, ``SCAN_PER_OCTAVE``
amplitudes an octave from ``SCAN_BELOW`` times the first breakpoint to
``SCAN_SPAN`` times the last, and the breakpoints, with each sign change
bisected.  It knows nothing of F's runs, so on thousands of seeded maps,
scaled by 2^+-1000 too, and at gain margins between F's values at random
amplitudes and between neighbouring extrema of F, its count of roots must
equal ``find_intersections``' in every scan interval, except in one where
the library finds two roots or more, whose signs the scan cannot tell
apart.

``_refine_bracket`` keeps one bracket's bookkeeping in Python floats and
calls ``f`` on one trial point a step.  ``array_refine`` below is the array
form that refined all the brackets together; on each bracket, with an array
``f`` wrapped as ``lambda t: float(f(np.array([t]))[0])``, both must call
``f`` on the same trial points and return the same bits, and the array form
on all the brackets at once must return the same last points, on random
functions and grids, on the special values a step must survive, and inside
the real F = K search.  The brackets come from ``reference_bracket_starts``,
the array scan of the sign changes that the refinement ran before it took
brackets.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfcycle import LinearPlant, PiecewiseNonlinearity, cycles
from dfcycle.cycles import MAX_ITER, VALUE_TOL, _refine_bracket, find_intersections
from dfcycle.descfun import _df_at, df_value
from dfcycle.linsys import OMEGA_RANGE, log_grid, phase_crossovers

from conftest import plant_a, plant_b, random_nonlinearity, within_ulps

# Steps (calls of ``f``) that the refinement of one bracket may make; halving
# took up to about 30.  From a run's knots, false position took 4.9 on
# average and up to 11 in 24 000 brackets of random maps, the most where F
# curves hard next to a turn.
MAX_CALLS = 12
# A tolerance that no value meets, NaN included: the brackets run out of steps.
NEVER = -math.inf
# The reference crossover scan's log grid over OMEGA_RANGE.
OMEGA_GRID = np.logspace(math.log10(OMEGA_RANGE[0]), math.log10(OMEGA_RANGE[1]), 4000)
# The reference F = K scan: amplitudes an octave, and its ends relative to
# the first and the last breakpoint.
SCAN_PER_OCTAVE = 256
SCAN_BELOW = 0.5
SCAN_SPAN = 1e4


def reference_crossovers(plant):
    ws = OMEGA_GRID
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


def scan_grid(nl):
    """The reference scan's amplitudes: a log grid from ``SCAN_BELOW`` times
    the first breakpoint above 0 to ``SCAN_SPAN`` times the last, and the
    breakpoints themselves.  F turns at a jump's threshold with an infinite
    slope on one side, so the two roots of F = K beside it can lie closer
    than the grid's step."""
    positive = [x for x in nl.breakpoints if x > 0.0] or [1.0]
    lo, hi = SCAN_BELOW * positive[0], SCAN_SPAN * positive[-1]
    return np.union1d(log_grid(lo, hi, int(math.log2(hi / lo) * SCAN_PER_OCTAVE) + 2), positive)


def reference_intersections(nl, gain_margin, grid=None, F=None):
    """The roots of F = K on ``scan_grid`` (or ``grid``, with F on it): each
    amplitude of the grid where F = K, and each sign change of F - K between
    neighbours, bisected down to ``|F - K| <= VALUE_TOL`` or 60 steps."""
    if grid is None:
        grid = scan_grid(nl)
        F = df_value(nl, grid)
    with np.errstate(over="ignore"):
        s = np.sign(F - gain_margin)
    roots = grid[s == 0.0].tolist()
    for i in np.flatnonzero(s[:-1] * s[1:] < 0.0).tolist():
        a, b, sa = float(grid[i]), float(grid[i + 1]), s[i]
        for _ in range(60):
            mid = 0.5 * (a + b)
            v = _df_at(nl, mid) - gain_margin
            if abs(v) <= VALUE_TOL:
                break
            if (v > 0) == (sa > 0):
                a = mid
            else:
                b = mid
        roots.append(mid)
    return sorted(roots)


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
    """Patch the F = K scan so that it records its steps (calls of ``f``) a
    bracket."""
    calls = []

    def counted(f, *args):
        calls.append(0)

        def f_counted(x):
            calls[-1] += 1
            return f(x)

        return _refine_bracket(f_counted, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "_refine_bracket", counted)
        yield calls


def assert_matches_reference(plant, nl):
    with counting_scans() as calls:
        crossings = phase_crossovers(plant)
        roots = [find_intersections(nl, km) for _, km in crossings]
    assert max(calls, default=0) <= MAX_CALLS, calls

    reference = reference_crossovers(plant)
    assert len(crossings) == len(reference)
    assert_same_interval(OMEGA_GRID, [w for w, _ in crossings], [w for w, _ in reference])
    for (w, km), xs in zip(crossings, roots):
        g = plant.transfer(1j * w)
        assert abs(g.imag) <= 1e-12 * abs(g) and g.real < 0
        assert within_ulps(km, 1.0 / abs(g))

        x_ref = reference_intersections(nl, km)
        assert len(xs) == len(x_ref)
        assert_same_interval(scan_grid(nl), xs, x_ref)
        for x in xs:
            v = df_value(nl, x) - km
            assert abs(v) <= VALUE_TOL, (x, v)
    return crossings


@pytest.mark.parametrize("k", (1.0, 2.5, 6.0))
def test_first_case_study_matches_reference(k, nl_a):
    assert len(assert_matches_reference(plant_a(k), nl_a)) == 1


@pytest.mark.parametrize("k", (5.0, 15.0, 30.0))
def test_second_case_study_matches_reference(k, nl_b):
    assert len(assert_matches_reference(plant_b(k), nl_b)) == 1


def test_root_just_above_a_jump_matches_reference():
    # F - K = 0 at 2.8e-6 X1 above the downward jump at X1 = 0.675: flat to
    # the left, a square-root drop to the right; false position from a
    # 0.4 % bracket at the jump alone took 18 array calls here
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
# F = K just below F's peak at a downward jump: one root below the jump's
# threshold and one just above it, closer together than the log grid's step
@example(lags=[0.2], rhp_zero=1.0, k=31.0, seed=300)
@example(lags=[0.2, 0.5], rhp_zero=3.430366507556697, k=35.0, seed=956)
def test_random_loops_match_reference(lags, rhp_zero, k, seed):
    # integrator plus one to three lags: plant order 2-4
    den = np.poly([0.0] + [-p for p in lags])
    num = (1.0,) if rhp_zero is None else (-1.0, rhp_zero)
    plant = LinearPlant(num=num, den=tuple(den), k=k)
    nl = random_nonlinearity(random.Random(seed), max_breakpoints=6)
    assert_matches_reference(plant, nl)


# -- the array form of the refinement ---------------------------------------


def reference_bracket_starts(v):
    """The left ends of the brackets of the sign changes of ``v``, by the
    array scan that the refinement ran before it took brackets: ``v_i != 0``
    and ``v_i v_i+1 <= 0``, in signs, whose product cannot overflow or
    underflow to 0."""
    s = np.sign(v)
    return np.nonzero((s[:-1] != 0.0) & (s[:-1] * s[1:] <= 0.0))[0]


def array_refine_sign_changes(f, grid, vals, sign, done):
    """The array form of the refinement of every bracket of the sign changes
    of ``sign(vals)``; returns the last trial points, their values and
    ``sign(vals)`` at the brackets' left ends."""
    v = sign(vals)
    i = reference_bracket_starts(v)
    x, fx = array_refine(f, grid[i], grid[i + 1], v[i], v[i + 1], vals[i], sign, done)
    return x, fx, v[i]


def array_refine(f, a, b, fa, fb, fx, sign, done):
    """``_refine_bracket`` on every bracket at once, their states in arrays:
    the brackets [a, b] with ``sign`` of f at their ends ``fa``, ``fb``, and
    f at a ``fx``; returns the last trial points and their values."""
    sa = fa  # a < b throughout
    kept = np.zeros(len(a))  # +1: a was kept on the last step, -1: b was
    x, fx = a.copy(), fx.copy()
    live = np.arange(len(a))
    for _ in range(MAX_ITER):
        if not live.size:
            break
        mid = 0.5 * a + 0.5 * b  # a + b can overflow
        with np.errstate(all="ignore"):
            t = b - fb * (b - a) / (fb - fa)
        t = np.where((a < t) & (t < b), t, mid)  # False for inf and NaN
        ft = f(t)
        x[live], fx[live] = t, ft
        st = sign(ft)
        left = (st > 0) == (sa > 0)  # t replaces a, b is kept
        now = np.where(left, -1.0, 1.0)
        again = now == kept
        fa = np.where(left, st, np.where(again, 0.5 * fa, fa))
        fb = np.where(left, np.where(again, 0.5 * fb, fb), st)
        a, b = np.where(left, t, a), np.where(left, b, t)
        sa, kept = np.where(left, st, sa), now
        go = ~done(ft)
        live, a, b, sa, fa, fb, kept = (
            live[go], a[go], b[go], sa[go], fa[go], fb[go], kept[go]
        )
    return x, fx


def assert_same_refinement(f, grid, vals, sign, tol):
    """``assert_same_on_brackets`` on the brackets of the sign changes of
    ``sign(vals)``, ``vals = f(grid)``."""
    i = reference_bracket_starts(sign(vals))
    return assert_same_on_brackets(f, grid[i], grid[i + 1], vals[i], vals[i + 1], sign, tol)


def assert_same_on_brackets(f, a, b, fa, fb, sign, tol):
    """Both forms call the array function ``f`` on the same points and return
    the same root of each bracket [a, b] with values ``fa``, ``fb`` of f, the
    array form's ``sign`` taken into ``f`` for ``_refine_bracket``, which
    gets it wrapped to map a float to a float; both end a bracket where
    ``|sign(v)| <= tol``.  The array form on all the brackets at once must
    return the same last points too.

    Returns the largest number of steps, the calls of ``f``, of a bracket.
    """
    done = lambda v: np.abs(sign(v)) <= tol  # noqa: E731
    got, steps = [], 0
    with np.errstate(all="ignore"):
        for j in range(len(a)):
            calls = ([], [])

            def scalar(t):
                calls[0].append(t)
                return float(sign(f(np.array([t])))[0])

            def recorded(t):
                calls[1].extend(t.tolist())
                return f(t)

            one = slice(j, j + 1)
            x = _refine_bracket(scalar, float(a[j]), float(b[j]),
                                float(sign(fa[one])[0]), float(sign(fb[one])[0]), tol)
            want, _ = array_refine(recorded, a[one], b[one], sign(fa[one]), sign(fb[one]),
                                   fa[one], sign, done)
            assert np.array(calls[0]).tobytes() == np.array(calls[1]).tobytes()
            assert np.array([x]).tobytes() == want.tobytes(), (x, want)
            got.append(x)
            steps = max(steps, len(calls[0]))
        want, _ = array_refine(f, a, b, sign(fa), sign(fb), fa, sign, done)
    got = np.array(got, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)
    return steps


def tiny_sign(v):
    # the smallest subnormal: halving a stored value underflows to 0
    return np.sign(v) * 5e-324


def test_zero_value_at_a_bracket_end():
    # f(0.5) = 0 on the grid: its left neighbour's bracket ends at a 0 value,
    # so the secant point is b and the step is the midpoint
    grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    f = lambda x: x - 0.5  # noqa: E731
    assert assert_same_refinement(f, grid, f(grid), lambda v: v, 1e-12)


def test_nan_and_inf_values():
    # -inf at the left end and NaN inside the bracket: inf/inf and a NaN
    # stored value make the secant point NaN
    def f(x):
        return np.where(x < 0.3, -np.inf, np.where(x < 0.6, np.nan, x - 0.7))

    grid = np.array([0.0, 1.0, 2.0])
    vals = np.array([-np.inf, 1.0, -np.inf])
    for tol in (NEVER, 1e-9):
        assert_same_refinement(f, grid, vals, lambda v: v, tol)


def test_overflowing_secant_numerator():
    # fb (b - a) = 1e300 * 2e300 overflows to inf
    grid = np.array([-1e300, 1e300])
    f = lambda x: x - 1.0  # noqa: E731
    assert_same_refinement(f, grid, f(grid), lambda v: v, 1e-12)


def test_equal_stored_values():
    # with the smallest subnormal as stored values, the end kept twice halves
    # to 0; f hits the dyadic root exactly, so the other becomes 0 too, and
    # fb - fa = 0 would divide by 0
    grid = np.array([0.0, 1.0])
    f = lambda x: x - 0.375  # noqa: E731
    assert assert_same_refinement(f, grid, f(grid), tiny_sign, NEVER) == MAX_ITER


def test_brackets_that_run_out_of_steps():
    grid = np.linspace(-3.0, 3.0, 13)
    f = lambda x: np.sin(3.0 * x) + 0.1  # noqa: E731
    assert assert_same_refinement(f, grid, f(grid), lambda v: v, NEVER) == MAX_ITER


@pytest.mark.parametrize("seed", range(40))
def test_random_functions_and_grids(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    lo = rng.uniform(-10.0, 0.0)
    grid = np.sort(rng.uniform(lo, lo + rng.choice((1e-6, 1.0, 20.0)), n))
    grid = np.unique(grid)
    roots = rng.uniform(grid[0], grid[-1], int(rng.integers(1, 6)))
    scale = 10.0 ** rng.choice((-300, -5, 0, 5, 300))

    def f(x):
        return scale * np.prod(np.subtract.outer(x, roots), axis=-1)

    with np.errstate(all="ignore"):
        vals = f(grid)
    # special values on the grid: exact zeros, infinities and NaNs
    for special in rng.choice((0.0, np.inf, -np.inf, np.nan), int(rng.integers(0, 4))):
        vals[rng.integers(0, len(vals))] = special
    sign = (lambda v: v, np.sign, tiny_sign)[seed % 3]
    tol = rng.choice((0.0, 1e-12, 1e-3)) * scale
    assert_same_refinement(f, grid, vals, sign, NEVER if seed % 5 == 0 else tol)


@contextmanager
def both_forms():
    """Patch the F = K scan so that it runs both forms on each bracket and
    compares them."""
    def compared(f, *bracket):
        *ends, tol = bracket
        assert_same_on_brackets(lambda t: np.array([f(x) for x in t.tolist()]),
                                *(np.array([v]) for v in ends), lambda v: v, tol)
        return _refine_bracket(f, *bracket)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "_refine_bracket", compared)
        yield


@pytest.mark.parametrize("ex", (0, -1060, -1010, 1010))
def test_scans_of_random_loops_match_the_array_form(ex):
    rng = random.Random(7 + ex)
    with both_forms():
        for _ in range(6):
            lags = [rng.uniform(0.2, 5.0) for _ in range(rng.randint(1, 3))]
            den = np.poly([0.0] + [-p for p in lags])
            plant = LinearPlant(num=(1.0,), den=tuple(den), k=rng.uniform(0.5, 40.0))
            nl = random_nonlinearity(rng, max_breakpoints=6)
            nl = PiecewiseNonlinearity(
                x=tuple(math.ldexp(v, ex) for v in nl.x),
                y=tuple(math.ldexp(v, ex) for v in nl.y),
                final_slope=nl.final_slope,
            )
            for _, km in phase_crossovers(plant):
                try:
                    find_intersections(nl, km)
                except cycles.IntersectionError:
                    pass


# -- the run table against the dense scan -----------------------------------


def scan_cells(grid, roots):
    """How many of ``roots`` lie in each interval [grid[i], grid[i+1]) of
    the scan, by the interval's index."""
    cells = {}
    for i in np.searchsorted(grid, roots, side="right").tolist():
        cells[i - 1] = cells.get(i - 1, 0) + 1
    return cells


def assert_matches_the_scan(nl, gain_margin, grid, F):
    """``find_intersections`` against ``reference_intersections`` on
    ``grid``, with F on it: the same count of roots in every scan interval,
    except where the library has two or more; each root meets
    ``|F - K| <= VALUE_TOL``.  Returns the number of roots compared, and of
    intervals that two roots share."""
    roots = find_intersections(nl, gain_margin)
    for x in roots:
        assert abs(_df_at(nl, x) - gain_margin) <= VALUE_TOL, (nl, gain_margin, x)
    inside = [x for x in roots if grid[0] <= x < grid[-1]]
    got = scan_cells(grid, inside)
    want = scan_cells(grid, reference_intersections(nl, gain_margin, grid, F))
    shared = {i for i, n in got.items() if n >= 2}
    assert {i: n for i, n in got.items() if i not in shared} == {
        i: n for i, n in want.items() if i not in shared
    }, (nl, gain_margin, roots)
    return len(inside), len(shared)


def scan_margins(nl, rng):
    """Gain margins for ``nl``: F at random amplitudes, and the midpoints of
    F's values at neighbouring extrema, read off the run table; none is F's
    value on its flat stretch below the first breakpoint."""
    X, F, runs = nl._f_runs
    top = max(nl.breakpoints)
    ks = [df_value(nl, top * math.exp(rng.uniform(-3.0, 1.5))) for _ in range(3)]
    turns = [F[stop - 1] for _, stop, _ in runs[:-1]]
    ks += [0.5 * (a + b) for a, b in zip(turns, turns[1:])]
    return [k for k in ks if 0 < k < math.inf and k != nl.initial_slope]


@pytest.mark.parametrize("seed", range(12))
def test_run_index_matches_the_array_scan(seed):
    # the run table's roots against the dense scan on 170 maps a seed
    rng = random.Random(500 + seed)
    counts = {"maps": 0, "roots": 0, "shared": 0, "turns": 0}
    for m in range(170):
        nl = random_nonlinearity(rng, max_breakpoints=6)
        e = (0, 0, 1000, -1000)[m % 4]  # x and y scaled by 2^e
        nl = PiecewiseNonlinearity(
            x=tuple(math.ldexp(v, e) for v in nl.x),
            y=tuple(math.ldexp(v, e) for v in nl.y),
            final_slope=nl.final_slope,
        )
        counts["maps"] += 1
        counts["turns"] += len(nl._f_runs[2]) - 1
        grid = scan_grid(nl)
        F = df_value(nl, grid)
        for k in scan_margins(nl, rng):
            roots, shared = assert_matches_the_scan(nl, k, grid, F)
            counts["roots"] += roots
            counts["shared"] += shared
    # the comparison is not vacuous: F turns, and most margins meet F
    assert counts["turns"] >= 200 and counts["roots"] >= 300, counts


def test_runs_split_at_the_turns_of_f(nl_a, nl_b):
    # NL_A peaks at 7.498; NL_B dips at 6.197 and peaks at 10.594, where the
    # closed-form F' changes sign; each run ends at infinity or at a turn
    for nl, turns in ((nl_a, [7.498]), (nl_b, [6.197, 10.594])):
        X, F, runs = nl._f_runs
        assert [r for _, _, r in runs] == [True, False, True, False][-len(runs):]
        assert [round(X[stop - 1], 3) for _, stop, _ in runs] == turns + [math.inf]
        for (start, stop, rising), next_run in zip(runs, runs[1:] + ((None,) * 3,)):
            # monotone, but on the cell where F turns, across which F moves
            # by about CELL_TOL (relative) at most
            steps = np.diff(F[start:stop]) * (1.0 if rising else -1.0)
            assert steps.min() >= -4.0 * cycles.CELL_TOL, (nl, start, steps.min())
            assert next_run[0] in (None, stop - 1)
