"""Harmonic-balance intersections, enclosure test, stability, ellipse."""

from __future__ import annotations

import cmath
import gc
import itertools
import math
import random
import sys
import weakref

import numpy as np
import pytest

from dfcycle import LinearPlant, PiecewiseNonlinearity, cycles, df_value, linsys
from dfcycle.cycles import (
    DELTA,
    CrossoverAnalysis,
    IntersectionError,
    LimitCycleEstimate,
    NonFiniteCycleError,
    analyze,
    classify,
    _run_table,
    ellipse_estimate,
    find_intersections,
)
from dfcycle.descfun import _df, _df_at
from dfcycle.linsys import OMEGA_RANGE, _contour, h_of_jw, nyquist_contour, phase_crossovers
from dfcycle.piecewise import NonlinearityError

from conftest import plant_a, plant_b, random_nonlinearity
from test_contour_reference import random_coefficients
from test_enclosure_reference import winding_number


def draws(seed):
    """``random_nonlinearity``'s maps from ``random.Random(seed)``."""
    rng = random.Random(seed)
    while True:
        yield random_nonlinearity(rng)


def closed_circle(turns: float, n: int, sign: float = 1.0) -> np.ndarray:
    # polygonal contour with the closing vertex repeated exactly
    t = np.linspace(0.0, turns * 2.0 * math.pi, n)
    c = np.exp(sign * 1.0j * t)
    c[-1] = c[0]
    return c


class TestWindingNumber:
    """The polygon winding number that ``test_enclosure_reference`` checks against."""

    def test_unit_circle(self):
        circle = closed_circle(1.0, 257)
        assert winding_number(circle, 0.0 + 0.0j) == 1
        assert winding_number(circle, 2.0 + 0.0j) == 0

    def test_orientation(self):
        assert winding_number(closed_circle(1.0, 257, sign=-1.0), 0.0j) == -1

    def test_double_loop(self):
        assert winding_number(closed_circle(2.0, 513), 0.0j) == 2

    def test_point_near_but_outside(self):
        assert winding_number(closed_circle(1.0, 4097), 1.001 + 0.0j) == 0

    @pytest.mark.parametrize("radius", [1e160, 1e300])
    def test_huge_contour(self, radius):
        # the edge cross products would overflow without the exact rescale
        circle = radius * closed_circle(2.0, 513)
        assert winding_number(circle, 0.0j) == 2
        assert winding_number(circle, 0.5 * radius + 0.0j) == 2
        assert winding_number(circle, -1.001 * radius + 0.0j) == 0


class TestIntersections:
    def test_first_case_counts(self, nl_a):
        for km, expected in ((1.0, 0), (0.4, 2), (0.166, 1)):
            roots = find_intersections(nl_a, km)
            assert len(roots) == expected, (km, roots)

    def test_second_case_counts(self, nl_b):
        for km, expected in ((2.4, 0), (0.8, 3), (0.4, 1)):
            roots = find_intersections(nl_b, km)
            assert len(roots) == expected, (km, roots)

    def test_roots_satisfy_balance(self, nl_b):
        for X in find_intersections(nl_b, 0.8):
            assert df_value(nl_b, X) == pytest.approx(0.8, abs=1e-8)

    def test_sorted_ascending(self, nl_b):
        roots = find_intersections(nl_b, 0.8)
        assert roots == sorted(roots)

    def test_plateau_at_the_gain_margin_raises(self):
        # unit saturation: F = 1 exactly on every amplitude below X = 1
        sat = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=0.0)
        with pytest.raises(
            IntersectionError, match=r"K = 1\.0 on a plateau: F = K for every X in \(0, 1\.0\]$"
        ):
            find_intersections(sat, 1.0)
        assert len(find_intersections(sat, 0.5)) == 1

    def test_overflowing_describing_function_raises(self):
        tall = PiecewiseNonlinearity(x=(1e-300, 1e-300), y=(0.0, 1e300))
        with pytest.raises(IntersectionError, match=r"^F is not finite at X = 1\.00"):
            find_intersections(tall, 2.4)

    def test_rejects_a_gain_margin_that_is_not_finite(self, nl_b):
        for km in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="gain margin must be positive and finite"):
                find_intersections(nl_b, km)

    def test_roots_up_to_the_largest_float(self):
        # saturation at 1e307: F = 4e307/(pi X) above it, which is 0.1 at
        # 1.27e308 and 0.01 only past the largest float
        wide = PiecewiseNonlinearity(x=(1e307,), y=(1e307,), final_slope=0.0)
        for km in (0.5, 0.1):
            [X] = find_intersections(wide, km)
            assert abs(_df_at(wide, X) - km) <= cycles.VALUE_TOL, (km, X)
        assert find_intersections(wide, 0.01) == []

    def test_roots_above_a_subnormal_breakpoint(self):
        # saturation at the smallest subnormal: F = 4e-324/(pi X) / 5e-324
        # above it, so F = K at X = 2.5e-324/K, a few subnormals up
        tiny = PiecewiseNonlinearity(x=(5e-324,), y=(5e-324,), final_slope=0.0)
        for km, at in ((0.5, 1.5e-323), (0.01, 6.3e-322)):
            assert find_intersections(tiny, km) == [at]
            below, above = math.nextafter(at, 0.0), math.nextafter(at, math.inf)
            assert _df_at(tiny, below) > km > _df_at(tiny, above)

    def test_roots_far_from_the_breakpoints(self, nl_b):
        # F = 40/(pi X) on NL_B's tail, past 100 times its last breakpoint,
        # and F = 0.75 at 2.3e-8, below 1e-7 of 100 times the last: a
        # 4 096-point log scan between those ends finds neither
        for km, at in ((0.006, 2122.05), (0.005, 2546.47), (0.001, 12732.4)):
            assert find_intersections(nl_b, km) == [pytest.approx(at, rel=1e-5)]
        low = PiecewiseNonlinearity(x=(1e-8, 1.0), y=(1e-8, 0.5 + 0.5e-8), final_slope=0.2)
        [X] = find_intersections(low, 0.75)
        assert X == pytest.approx(2.4754e-8, rel=1e-4)
        assert abs(_df_at(low, X) - 0.75) <= cycles.VALUE_TOL

    def test_gain_margin_at_a_turn_of_f_is_a_double_root(self, nl_b):
        # K = F at a knot where F turns: one root, with F < K on both sides
        # at a peak and on neither at a trough, which no label can tell
        X, F, runs = nl_b._f_runs
        for _, stop, rising in runs[:-1]:
            turn = stop - 1
            assert (X[turn], rising, rising) in cycles._roots(nl_b, F[turn])
            for enclosed in (False, True):
                with pytest.raises(cycles.AmbiguousStabilityError):
                    cycles._label(X[turn], 1.0, enclosed, enclosed)

    @pytest.mark.parametrize("draw, margin, count", [
        (455, 0.9437244738577499, 3),
        (665, 0.09773883765421576, 4),
        (1068, 0.13976199148601787, 3),
        (1303, 0.7712669956100676, 5),
    ])
    def test_two_extrema_a_fraction_of_a_percent_apart(self, draw, margin, count):
        # maps whose F has two extrema within 0.5 % of each other, at the
        # midpoint of F's values there: a log scan 0.5 % a step misses the
        # two roots between them
        nl = list(itertools.islice(draws(2026), draw, draw + 1))[0]
        roots = find_intersections(nl, margin)
        assert len(roots) == count, roots
        for X in roots:
            assert abs(_df_at(nl, X) - margin) <= cycles.VALUE_TOL
        # plant_b(12/K) crosses at K: the labels alternate along the roots,
        # where classify's probes, 0.1 % away, reach past a neighbour
        [co] = analyze(plant_b(12.0 / margin), nl)
        labels = [c.stability for c in co.cycles]
        assert len(labels) == count and all(a != b for a, b in zip(labels, labels[1:])), labels


class TestKeptTable:
    """``find_intersections`` keeps its run table of F on the map."""

    @staticmethod
    def fresh(nl):
        return PiecewiseNonlinearity(nl.x, nl.y, nl.final_slope)

    def test_one_map_gives_what_fresh_maps_give(self, nl_a, nl_b):
        rng = random.Random(11)
        for nl in (nl_a, nl_b, random_nonlinearity(rng), random_nonlinearity(rng)):
            margins = [math.exp(rng.uniform(math.log(0.05), math.log(5.0))) for _ in range(50)]
            kept = [find_intersections(nl, km) for km in margins]
            assert "_f_runs" in vars(nl)
            assert kept == [find_intersections(self.fresh(nl), km) for km in margins]
            assert any(kept), nl

    def test_an_explicit_grid_end_is_not_kept(self, nl_b):
        # x_max caps the amplitudes returned; the table kept is the one
        # that a call without it builds
        for km in (2.4, 0.8, 0.4, 0.005):
            every = find_intersections(self.fresh(nl_b), km)
            for x_max in (10.0, 1e3, math.inf):
                assert find_intersections(nl_b, km, x_max=x_max) == [
                    x for x in every if x <= x_max
                ]
            assert find_intersections(nl_b, km, x_max=None) == every
        fresh = self.fresh(nl_b)
        find_intersections(fresh, 0.8)
        assert vars(nl_b)["_f_runs"] == vars(fresh)["_f_runs"]

    def test_a_map_whose_f_overflows_raises_on_every_call(self):
        tall = PiecewiseNonlinearity(x=(1e-300, 1e-300), y=(0.0, 1e300))
        for km in (2.4, 2.4, 0.5):
            with pytest.raises(IntersectionError, match=r"^F is not finite at X = 1\.00"):
                find_intersections(tall, km)
        assert "_f_runs" not in vars(tall)
        with pytest.raises(ValueError, match="gain margin must be positive and finite"):
            find_intersections(tall, math.nan)  # K is checked first

    def test_f_minus_k_that_overflows(self):
        # F = -1e308 below X = 1 is finite, and F - K overflows for K = 1e308;
        # F < 0 < K on every run, so no bracket is refined and none raises
        deep = PiecewiseNonlinearity(x=(1.0,), y=(-1e308,), final_slope=0.0)
        for km in (1e300, 1e308, 1e308, 1e300):
            assert find_intersections(deep, km) == []

    @pytest.mark.parametrize("x, y, slope", [((1e-300, 1e12), (1.0, 1.0), 1.0),
                                             ((1.7e308, 1.7e308), (1.0, 2.0), None)])
    def test_knots_of_breakpoints_at_the_ends_of_the_float_range(self, x, y, slope):
        # 2^(i/4) overflowed past 1023 octaves above the first breakpoint,
        # and the marks above a breakpoint overflowed past the largest float:
        # each raised a RuntimeWarning
        X, F, _ = _run_table(PiecewiseNonlinearity(x=x, y=y, final_slope=slope))
        knots = np.array(X[:-1])
        assert X[-1] == math.inf and np.isfinite(knots).all() and np.isfinite(F).all()
        assert (knots[1:] > knots[:-1]).all()
        # the log-spaced knots run a quarter octave short of 100 times the
        # last breakpoint, or of the largest float
        assert knots[-1] >= min(100.0 * x[-1], sys.float_info.max) * 2.0**-0.25

    def test_the_table_lives_and_dies_with_its_map(self):
        # a map no other test builds, so that no cache keyed by equal maps
        # could hold an earlier object in its place
        nl = PiecewiseNonlinearity(x=(3.0, 6.0, 10.0, 19.125), y=(3.0, 3.0, 10.0, 10.0))
        assert len(find_intersections(nl, 0.8)) == 3
        assert "_f_runs" in vars(nl)
        ref = weakref.ref(nl)
        del nl
        gc.collect()
        assert ref() is None


class TestClassification:
    def test_first_case_two_cycles(self, nl_a):
        p = plant_a(2.5)
        w = math.sqrt(2.0)
        roots = find_intersections(nl_a, 0.4)
        labels = [classify(p, nl_a, X, w, contour=nyquist_contour(p)) for X in roots]
        assert labels == ["unstable", "stable"]

    def test_second_case_three_cycles(self, nl_b):
        p = plant_b(15.0)
        w = math.sqrt(3.0)
        roots = find_intersections(nl_b, 0.8)
        labels = [classify(p, nl_b, X, w, contour=nyquist_contour(p)) for X in roots]
        assert labels == ["stable", "unstable", "stable"]

    def test_probes_have_the_bits_of_df_value(self, monkeypatch, nl_a, nl_b):
        # classify takes F at each probe from _df_at; it took both from one
        # df_value call, whose checks it keeps
        seen = []
        verdict = cycles._verdict

        def recorded(X, omega, below, above, *, contour):
            seen.append((float.hex(below), float.hex(above)))
            return verdict(X, omega, below, above, contour=contour)

        def df_value_path(plant, nl, X, omega, contour):
            below, above = df_value(nl, [X * (1.0 - DELTA), X * (1.0 + DELTA)]).tolist()
            return cycles._verdict(X, omega, below, above, contour=contour)

        monkeypatch.setattr(cycles, "_verdict", recorded)
        relay = PiecewiseNonlinearity(x=(0.0, 0.0, 5.0), y=(0.0, 1.0, 1.0))
        cases = [(plant_a(k), nl_a) for k in (1.0, 2.5, 6.0)]
        cases += [(plant_b(k), nl) for k in (5.0, 15.0, 30.0) for nl in (nl_b, relay)]
        rng = random.Random(8)
        for e in (0, 0, 0, -1010, -1040, 1000):  # x and y scaled by 2^e
            nl = random_nonlinearity(rng)
            nl = PiecewiseNonlinearity(
                x=tuple(math.ldexp(v, e) for v in nl.x),
                y=tuple(math.ldexp(v, e) for v in nl.y),
                final_slope=nl.final_slope,
            )
            cases.append((plant_b(rng.uniform(2.0, 40.0)), nl))
        compared = 0
        for plant, nl in cases:
            contour = nyquist_contour(plant)
            [(omega, K)] = phase_crossovers(plant)
            top = nl.max_breakpoint
            amplitudes = find_intersections(nl, K) + list(nl.breakpoints) + [
                top * rng.uniform(0.0, 3.0) for _ in range(20)
            ] + [math.nextafter(x, math.inf) for x in nl.breakpoints]
            amplitudes += [-1.0, -0.0, 0.0, math.nan, math.inf, 5e-324]
            for X in amplitudes:
                seen.clear()
                got = outcome(lambda: classify(plant, nl, X, omega, contour=contour))
                with np.errstate(over="ignore", invalid="ignore"):
                    want = outcome(lambda: df_value_path(plant, nl, X, omega, contour))
                assert repr(got) == repr(want), (nl, X)
                assert seen[:1] == seen[1:], (nl, X)
                compared += len(seen) == 2
        assert compared >= 300


class TestEllipse:
    def test_points_follow_harmonic_solution(self):
        # x(t) = Im(Y1 H exp(jwt)): the two snapshots are t = 0 and a
        # quarter period later
        p = plant_b(30.0)
        w = math.sqrt(3.0)
        Y1 = 2.0
        x0, xq = ellipse_estimate(p, w, Y1)
        H = h_of_jw(p, w)
        np.testing.assert_allclose(x0, (Y1 * H).imag, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(xq, (Y1 * H).real, rtol=1e-12, atol=1e-15)

    def test_has_the_bits_of_the_array_products(self):
        # the products in Python floats against Y1 Im H and Y1 Re H as
        # arrays, overflows and NaNs included
        rng = random.Random(11)
        checked = 0
        for _ in range(400):
            num, den = random_coefficients(rng)
            plant = LinearPlant(num, den, 1.0)
            omega = 10.0 ** rng.uniform(-3.0, 3.0)
            Y1 = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
            Y1 = rng.choice((Y1, Y1, 0.0, math.inf, 1e308))
            try:
                h = h_of_jw(plant, omega)
            except linsys.PoleOnAxisError:
                continue
            with np.errstate(all="ignore"):
                want = Y1 * h.imag, Y1 * h.real
                got = ellipse_estimate(plant, omega, Y1)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (plant, omega, Y1)
            checked += 1
        assert checked >= 300


class TestAnalyze:
    def test_full_first_case(self, nl_a):
        res = analyze(plant_a(2.5), nl_a)
        assert len(res) == 1
        co = res[0]
        assert co.omega == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert co.gain_margin == pytest.approx(0.4, abs=1e-6)
        assert [c.stability for c in co.cycles] == ["unstable", "stable"]
        # each cycle carries a state-space estimate scaled by its own Y1
        for c in co.cycles:
            assert c.Y1 == pytest.approx(df_value(nl_a, c.X) * c.X, rel=1e-6)

    def test_stable_origin_case(self, nl_a):
        res = analyze(plant_a(1.0), nl_a)
        assert len(res) == 1
        assert len(res[0].cycles) == 0

    def test_no_crossover(self, nl_a):
        p = LinearPlant(num=(1.0,), den=(1.0, 1.0))
        assert analyze(p, nl_a) == []

    def test_evaluates_g_once_at_the_range_ends_and_the_roots(
        self, monkeypatch, nl_a, nl_b, cold_crossing_memo
    ):
        # on a cold memo the contour's crossings evaluate N and D once each, at
        # OMEGA_RANGE's ends and at each root of P, kept (Re G < 0) or not
        # (plant_b(-15): Re G > 0); on a warm one, at any gain, not at all
        calls = []
        horner, checked_den = linsys._horner, linsys._checked_den

        def counted_horner(coeffs, s):
            if coeffs == plant.num and np.ndim(s) == 1:
                calls.append(("N", np.size(s)))
            return horner(coeffs, s)

        def counted_den(den, s):
            if np.ndim(s) == 1:
                calls.append(("D", np.size(s)))
            return checked_den(den, s)

        monkeypatch.setattr(linsys, "_horner", counted_horner)
        monkeypatch.setattr(linsys, "_checked_den", counted_den)
        cases = [(plant_a(k), nl_a, 1) for k in (1.0, 2.5, 6.0)]
        cases += [(plant_b(k), nl_b, 1) for k in (5.0, 15.0, 30.0, -15.0)]
        cases.append((LinearPlant(num=(1.0,), den=(1.0, 1.0)), nl_a, 0))
        for plant, nl, roots in cases:
            cold_crossing_memo()
            calls.clear()
            analyze(plant, nl)
            assert calls == [("N", 2 + roots), ("D", 2 + roots)], (plant, calls)
            analyze(LinearPlant(plant.num, plant.den, 2.0 * plant.k), nl)
            analyze(plant, nl)
            assert calls == [("N", 2 + roots), ("D", 2 + roots)], (plant, calls)


def composed_analyze(plant, nl, label=None):
    """``analyze`` from its public calls, as the benchmark's traced op makes
    them: ``classify`` per cycle (or ``label(plant, nl, X, omega, K,
    contour)``),
    then Y1 = ``df_value(nl, X) * X``."""
    contour = nyquist_contour(plant)
    results = []
    for omega, K in phase_crossovers(plant):
        cycles = []
        for X in find_intersections(nl, K):
            if label is None:
                stability = classify(plant, nl, X, omega, contour=contour)
            else:
                stability = label(plant, nl, X, omega, K, contour)
            Y1 = df_value(nl, X) * X
            with np.errstate(over="ignore", invalid="ignore"):
                x0, xq = ellipse_estimate(plant, omega, Y1)
            if not np.isfinite([Y1, *x0, *xq]).all():
                raise NonFiniteCycleError(
                    f"the first harmonic Y1 = {Y1} or the state ellipse of the "
                    f"cycle at omega = {omega}, X = {X} is not finite"
                )
            cycles.append(LimitCycleEstimate(
                omega=omega, X=X, stability=stability, gain_margin=K, Y1=Y1,
                ellipse_x0=tuple(float(v) for v in x0),
                ellipse_xq=tuple(float(v) for v in xq),
            ))
        results.append(CrossoverAnalysis(omega=omega, gain_margin=K, cycles=tuple(cycles)))
    return results


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def probes_are_clear(nl, X, K, contour):
    """Whether ``classify``'s probes X (1 -/+ DELTA) hold no breakpoint and
    no other root of F = K between them, F > 0 at both, and the contour has
    no row between their -1/F but the crossover's own, at -1/K: only then do
    the probes see the side of the cycle that ``analyze`` reads off F's run."""
    lo, hi = X * (1.0 - DELTA), X * (1.0 + DELTA)
    others = [x for x in find_intersections(nl, K) if x != X] + list(nl.breakpoints)
    if any(lo <= x <= hi for x in others):
        return False
    F = [_df_at(nl, x) for x in (lo, hi)]
    if not min(F) > 0.0:
        return False
    p_lo, p_hi = sorted(-1.0 / f for f in F)
    return not any(p_lo <= x <= p_hi and x != -1.0 / K for x, _ in contour.tolist())


def classify_where_clear(labelled, unclear):
    """A ``label`` for ``composed_analyze``: ``classify`` where the probes
    are clear (``probes_are_clear``), else the cycle's label in the result
    ``labelled`` of ``analyze``, each such cycle appended to ``unclear``."""
    given = {(c.omega, c.X): c.stability
             for co in (labelled if isinstance(labelled, list) else []) for c in co.cycles}

    def label(plant, nl, X, omega, K, contour):
        if (omega, X) in given and not probes_are_clear(nl, X, K, contour):
            unclear.append((nl, X))
            return given[omega, X]
        return classify(plant, nl, X, omega, contour=contour)

    return label


def assert_public_crossings_are_analyzes(plant, nl):
    """``phase_crossovers`` on ``OMEGA_RANGE`` and ``nyquist_contour`` give
    the bits of ``analyze``'s crossovers and of its contour, as the
    benchmark's traced op, which makes the public calls, relies on."""
    rows, table, _ = _contour(plant)
    assert nyquist_contour(plant).tolist() == [list(row) for row in table]
    crossings = phase_crossovers(plant, OMEGA_RANGE)
    assert crossings == [(w, km) for w, km, _ in rows]
    assert crossings == [(co.omega, co.gain_margin) for co in analyze(plant, nl)]


@pytest.mark.parametrize("make, k", [(plant_a, k) for k in (1.0, 2.5, 6.0)]
                         + [(plant_b, k) for k in (5.0, 15.0, 30.0)])
def test_public_crossings_of_the_case_studies(make, k, nl_a, nl_b):
    assert_public_crossings_are_analyzes(make(k), nl_a if make is plant_a else nl_b)


def test_public_crossings_of_random_plants(nl_b):
    rng = random.Random(5)
    compared = 0
    for _ in range(100):
        num, den = random_coefficients(rng)
        plant = LinearPlant(num, den, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 3))
        try:
            analyze(plant, nl_b)
        except (ValueError, RuntimeError):
            continue
        assert_public_crossings_are_analyzes(plant, nl_b)
        compared += bool(phase_crossovers(plant))
    assert compared >= 15


# x and y scaled together by 2^e: F and the crossovers stay, the amplitudes
# scale, down to subnormal breakpoints and amplitudes below 2^-1000 (where
# descfun._psi scales its tail up by the tail's first amplitude)
EXPONENTS = (0, -1060, -1040, -1010, -1000, 1000, 1010)


@pytest.mark.parametrize("e", EXPONENTS)
def test_analyze_equals_its_public_parts(e):
    # each label is classify's, except on a cycle whose probes reach past a
    # breakpoint, another root or another row of the contour
    rng = random.Random(1234 + e)
    cycles, unclear = 0, []
    for _ in range(20):
        # an integrator and two or three lags: the plant crosses the axis
        lags = [rng.uniform(0.2, 5.0) for _ in range(rng.randint(2, 3))]
        den = tuple(np.poly([0.0] + [-p for p in lags]))
        num = (1.0,) if rng.random() < 0.5 else (-1.0, rng.uniform(0.5, 5.0))
        nl = random_nonlinearity(rng, max_breakpoints=6)
        # y, or -y where F < 0, and the gain that puts a cycle at a random
        # amplitude
        F = df_value(nl, rng.uniform(0.1, 1.5) * nl.max_breakpoint)
        sign = 1.0 if F >= 0 else -1.0
        km = phase_crossovers(LinearPlant(num=num, den=den))[0][1]
        plant = LinearPlant(num=num, den=den, k=km / abs(F) if F != 0 else 1.0)
        nl = PiecewiseNonlinearity(
            x=tuple(math.ldexp(v, e) for v in nl.x),
            y=tuple(sign * math.ldexp(v, e) for v in nl.y),
            final_slope=sign * nl.final_slope,
        )
        got = outcome(analyze, plant, nl)
        assert got == outcome(composed_analyze, plant, nl, classify_where_clear(got, unclear))
        for co in got if isinstance(got, list) else []:
            for c in co.cycles:
                # analyze's one-amplitude calls give the values of df_value's
                # array calls, whose power-of-two scale may differ
                triple = [c.X * (1.0 - DELTA), c.X, c.X * (1.0 + DELTA)]
                assert [_df_at(nl, x) for x in triple] == [df_value(nl, x) for x in triple]
                cycles += 1
    assert cycles >= 15 and len(unclear) <= cycles // 4  # the comparison is not vacuous


def test_warm_analyze_takes_no_resolvent_and_scans_no_table(monkeypatch, nl_a, nl_b):
    # on a warm memo and a kept table, the work per K and per cycle runs in
    # Python floats, and the contour's arc and chord in closed form: no
    # h_of_jw, np.angle, np.exp or np.sign call at all; and the cycles keep
    # the bits of df_value(nl, X) * X and ellipse_estimate and the labels of
    # classify where its probes are clear, which the benchmark's traced op
    # composes
    rng = random.Random(77)
    cases = [(plant_a(k), nl_a) for k in (1.0, 2.5, 6.0)]
    cases += [(plant_b(k), nl_b) for k in (5.0, 15.0, 30.0, -15.0)]
    cases += [
        (LinearPlant(num=(1.0,), den=(1.0, 4.0, 3.0, 0.0), k=6.0606),
         PiecewiseNonlinearity(x=(1.7e306,), y=(1.7e306,), final_slope=2.0)),  # Y1 = inf
        (LinearPlant(num=(1.0,), den=(1.0, 0.02, 0.0001, 0.0), k=5e-6),
         PiecewiseNonlinearity(x=(1e305,), y=(1e305,), final_slope=0.0)),  # x0 = inf
    ]
    for _ in range(30):
        # as in test_analyze_equals_its_public_parts: a gain that puts a
        # cycle at a random amplitude, x and y scaled by 2^e
        lags = [rng.uniform(0.2, 5.0) for _ in range(rng.randint(2, 3))]
        den = tuple(np.poly([0.0] + [-p for p in lags]))
        num = (1.0,) if rng.random() < 0.5 else (-1.0, rng.uniform(0.5, 5.0))
        nl = random_nonlinearity(rng, max_breakpoints=6)
        F = df_value(nl, rng.uniform(0.1, 1.5) * nl.max_breakpoint)
        sign = 1.0 if F >= 0 else -1.0
        km = phase_crossovers(LinearPlant(num=num, den=den))[0][1]
        e = rng.choice((0, 0, -1010, 1000))
        nl = PiecewiseNonlinearity(
            x=tuple(math.ldexp(v, e) for v in nl.x),
            y=tuple(sign * math.ldexp(v, e) for v in nl.y),
            final_slope=sign * nl.final_slope,
        )
        cases.append((LinearPlant(num, den, km / abs(F) if F != 0 else 1.0), nl))
    calls = []

    def counted(name, f):
        def g(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return g

    n_cycles = errors = 0
    unclear = []
    for plant, nl in cases:
        outcome(analyze, plant, nl)  # warms the memo and the table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "angle", counted("angle", np.angle))
            mp.setattr(np, "exp", counted("exp", np.exp))
            mp.setattr(np, "sign", counted("sign", np.sign))
            for module in (cycles, linsys):
                mp.setattr(module, "h_of_jw", counted("h_of_jw", module.h_of_jw))
            calls.clear()
            got = outcome(analyze, plant, nl)
        assert calls == [], (plant, nl, calls)
        want = outcome(composed_analyze, plant, nl, classify_where_clear(got, unclear))
        assert repr(got) == repr(want), (plant, nl)
        if isinstance(got, list):
            n_cycles += sum(len(co.cycles) for co in got)
        else:
            errors += got[0] is NonFiniteCycleError
    assert n_cycles >= 40 and errors == 2 and len(unclear) <= n_cycles // 4, (n_cycles, errors)


def test_one_call_on_the_probe_triple_keeps_each_value():
    # X just above a power of two 2^e: X (1 - DELTA) lies below it, so below
    # 2^-1000 the relay term's power-of-two scale, read off its tail's first
    # amplitude, is twice that of a one-point call at X or X (1 + DELTA);
    # the scale is exact there, so the bits stay
    rng = random.Random(99)
    tested = 0
    for e in range(-1060, -990):
        nl = random_nonlinearity(rng, max_breakpoints=4, max_jumps=2)
        ex = e - 5 - math.frexp(nl.max_breakpoint)[1]  # breakpoints below X / 16
        ey = rng.choice((ex, ex + 1000, ex - 40))  # as x, steep, subnormal y
        try:
            nl = PiecewiseNonlinearity(
                x=tuple(math.ldexp(v, ex) for v in nl.x),
                y=tuple(math.ldexp(v, ey) for v in nl.y),
                final_slope=math.ldexp(nl.final_slope, ey - ex),
            )
        except NonlinearityError:  # subnormal rounding merged two vertices
            continue
        X = math.ldexp(1.0 + rng.uniform(0.0, 0.5) * DELTA, e)
        triple = np.array([X * (1.0 - DELTA), X, X * (1.0 + DELTA)])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _df(nl, triple).tolist()
            want = [df_value(nl, x) for x in triple]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (e, nl, X)
        # and analyze's one-amplitude kernel, scaled by its own amplitude
        one = [_df_at(nl, x) for x in triple.tolist()]
        assert np.array(one).tobytes() == np.array(want).tobytes(), (e, nl, X)
        tested += 1
    assert tested >= 50

