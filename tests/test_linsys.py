"""Rational plants: frequency response, realization, crossover search."""

from __future__ import annotations

import gc
import json
import math
import random
import sys
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import LinearPlant, PlantError, linsys
from dfcycle.cycles import _refine_bracket, analyze
from dfcycle.linsys import (
    MEMO_SIZE,
    OMEGA_RANGE,
    PoleOnAxisError,
    _axis_poles,
    _bits,
    _gain_free,
    h_of_jw,
    log_grid,
    nyquist_contour,
    phase_crossovers,
)

from conftest import plant_a, plant_b
from test_contour_reference import random_coefficients


class TestValidation:
    def test_rejects_improper(self):
        with pytest.raises(PlantError):
            LinearPlant(num=(1.0, 2.0, 3.0), den=(1.0, 1.0))

    def test_rejects_zero_denominator(self):
        with pytest.raises(PlantError):
            LinearPlant(num=(1.0,), den=(0.0, 1.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(PlantError):
            LinearPlant(num=(float("inf"),), den=(1.0, 1.0))

    @pytest.mark.parametrize("num_zero", [0.0, -0.0])
    @pytest.mark.parametrize("den_zero", [0.0, -0.0])
    def test_rejects_common_factor_s(self, num_zero, den_zero):
        with pytest.raises(PlantError, match="^numerator and denominator share a factor s"):
            LinearPlant(num=(-78.08665438061327, num_zero), den=(-41.330426673779805, den_zero))
        with pytest.raises(PlantError, match="share a factor s"):
            LinearPlant(num=(num_zero,), den=(1.0, 2.0, den_zero))
        # one of them ending in 0 is a zero or a pole at the origin
        LinearPlant(num=(1.0, num_zero), den=(1.0, 2.0, 1.0))
        LinearPlant(num=(1.0, 1.0), den=(1.0, 2.0, den_zero))

    def test_counts_origin_poles(self):
        assert plant_b(1.0).origin_poles == 1
        assert LinearPlant(num=(1.0,), den=(1.0, 0.0, 0.0)).origin_poles == 2
        assert LinearPlant(num=(1.0,), den=(1.0, 1.0)).origin_poles == 0

    def test_gain_scaling(self):
        p = plant_a(1.0)
        q = LinearPlant(p.num, p.den, 2.5)
        s = 1.0 + 1.0j
        assert q.transfer(s) == pytest.approx(2.5 * p.transfer(s))


class TestTransfer:
    def test_known_value(self):
        # G(s) = (2 - s) / (s (s + 1)) at s = j: (2 - j) / (j (1 + j))
        p = plant_a(1.0)
        expected = (2.0 - 1.0j) / (1.0j * (1.0 + 1.0j))
        assert p.transfer(1.0j) == pytest.approx(expected)

    def test_pole_detection(self):
        with pytest.raises(PoleOnAxisError):
            plant_a(1.0).transfer(0.0j)

    def test_array_matches_scalar_calls(self):
        rhp_zero = LinearPlant(num=(-1.0, 3.0), den=(1.0, 3.0, 2.0, 0.0), k=4.0)
        s = 1.0j * np.logspace(-3, 3, 501)
        for p in (plant_a(2.5), plant_b(15.0), rhp_zero):
            expected = np.array([p.transfer(v) for v in s])
            assert np.array_equal(p.transfer(s), expected)

    def test_array_pole_names_the_point(self):
        p = LinearPlant(num=(1.0,), den=(1.0, 0.0, 1.0, 0.0))  # poles at 0, +-j
        with pytest.raises(PoleOnAxisError, match=r"pole at s = 1j$"):
            p.transfer(np.array([0.5j, 1.0j, 2.0j]))

    def test_denominator_overflow_is_not_a_pole(self):
        # den(s) = s^2 + s overflows at s = 1e200j, far from the poles 0 and -1
        p = plant_a(2.5)
        with pytest.raises(
            PoleOnAxisError, match=r"^the denominator overflows at s = 1e\+200j$"
        ), np.errstate(over="ignore", invalid="ignore"):
            p.transfer(np.array([1.0j, 1e100j, 1e200j, 1e300j]))

    def test_scalar_gives_complex_scalar(self):
        g = plant_b(5.0).transfer(1.0j)
        assert isinstance(g, np.complex128)  # not a 0-d array


def test_log_grid_is_logspace_up_to_the_largest_float():
    big = sys.float_info.max
    with np.errstate(over="ignore"):
        spaced = np.logspace(0.0, math.log10(big), 4)
    assert spaced[-1] == math.inf
    grid = log_grid(1.0, big, 4)
    assert grid[-1] == big
    assert np.array_equal(grid[:-1], spaced[:-1])
    assert np.array_equal(log_grid(1e-3, 7.0, 50), np.logspace(-3.0, math.log10(7.0), 50))


class TestStateSpace:
    @pytest.mark.parametrize("make", [plant_a, plant_b])
    def test_realization_reproduces_transfer(self, make):
        p = make(3.0)
        A, B, C, D = p.state_space
        for w in (0.1, 0.7, 1.4142, 5.0, 30.0):
            H = np.linalg.solve(1.0j * w * np.eye(len(A)) - A, B)
            g = (C @ H + D).item()
            assert g == pytest.approx(p.transfer(1.0j * w), rel=1e-10)

    @given(
        st.lists(st.floats(-3, 3), min_size=1, max_size=3),
        st.lists(st.floats(0.2, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_realizations(self, num, den_roots):
        if len(num) > len(den_roots):
            return
        den = np.poly(np.negative(den_roots))
        p = LinearPlant(num=tuple(num), den=tuple(den))
        if all(abs(c) < 1e-12 for c in num):
            return
        A, B, C, D = p.state_space
        w = 0.83
        H = np.linalg.solve(1.0j * w * np.eye(len(A)) - A, B)
        g = (C @ H + D).item()
        assert g == pytest.approx(p.transfer(1.0j * w), rel=1e-8, abs=1e-10)

    def test_h_of_jw_matches_solve(self):
        p = plant_b(15.0)
        A, B, _, _ = p.state_space
        H = h_of_jw(p, math.sqrt(3.0))
        ref = np.linalg.solve(1.0j * math.sqrt(3.0) * np.eye(len(A)) - A, B).ravel()
        np.testing.assert_allclose(H, ref, rtol=1e-12)

    @pytest.mark.parametrize("w", [0.01, 0.7, 40.0])
    def test_h_of_jw_with_leading_coefficient(self, w):
        # den[0] = 2 is normalized away in the realization
        p = LinearPlant(num=(3.0, -1.0), den=(2.0, 3.0, 5.0, 7.0, 0.0))
        A, B, _, _ = p.state_space
        ref = np.linalg.solve(1.0j * w * np.eye(len(A)) - A, B)
        np.testing.assert_allclose(h_of_jw(p, w), ref, rtol=1e-12)

    def test_h_of_jw_at_a_pole(self):
        p = LinearPlant(num=(1.0,), den=(1.0, 0.0, 4.0))
        with pytest.raises(PoleOnAxisError, match=r"pole at s = 2j$"):
            h_of_jw(p, 2.0)


class TestCrossovers:
    def test_first_case_study(self):
        start = time.monotonic()
        for k in (1.0, 2.5, 6.0):
            found = phase_crossovers(plant_a(k))
            assert len(found) == 1
            w, km = found[0]
            assert w == pytest.approx(math.sqrt(2.0), abs=1e-6)
            assert km == pytest.approx(1.0 / k, abs=1e-6)
        assert time.monotonic() - start < 1.0

    def test_second_case_study(self):
        for k in (5.0, 15.0, 30.0):
            found = phase_crossovers(plant_b(k))
            assert len(found) == 1
            w, km = found[0]
            assert w == pytest.approx(math.sqrt(3.0), abs=1e-6)
            assert km == pytest.approx(12.0 / k, abs=1e-6)

    def test_overflowing_response_names_the_frequency(self):
        p = LinearPlant(num=(1e300,), den=(1.0, 4.0, 3.0, 0.0), k=1e10)
        with pytest.raises(PoleOnAxisError, match=r"at omega = 0\.001$"):
            phase_crossovers(p)

    def test_tiny_gain_opens_no_spurious_bracket(self):
        # Im G ~ 1e-200 at neighbouring samples: their product underflows to 0
        [(w, km)] = phase_crossovers(plant_b(1e-200))
        assert w == pytest.approx(math.sqrt(3.0), abs=1e-6)
        assert km == pytest.approx(1.2e201, rel=1e-6)

    @pytest.mark.parametrize(
        "plant, omega", [(plant_a(1e-307), math.sqrt(2.0)), (plant_b(3e-306), math.sqrt(3.0))]
    )
    def test_subnormal_response_keeps_the_bracket_side(self, plant, omega):
        # Im G is subnormal near the crossing, where halving a stored end
        # value for the secant step underflows it to 0: the side kept must
        # still come from the value's sign
        [(w, _)] = phase_crossovers(plant)
        assert w == pytest.approx(omega, rel=1e-9)

    def test_halved_end_value_that_underflows_keeps_the_bracket(self):
        # the left end's value is the least subnormal: each secant point
        # falls on that end, so every step is the midpoint, and keeping the
        # end twice halves its stored value to 0
        def f(x):
            return 5e-324 if x < 0.3 else -1.0

        x = _refine_bracket(f, 0.0, 1.0, 5e-324, -1.0, 0.0)
        assert x == pytest.approx(0.3, abs=1e-15)

    def test_overflowing_gain_margin_names_the_frequency(self):
        with pytest.raises(PoleOnAxisError, match=r"1/\|G\| is inf at omega = 1\.73"):
            phase_crossovers(plant_b(1e-310))

    @pytest.mark.parametrize(
        "omega_range",
        [(1e-3, math.inf), (0.0, 1e3), (-1.0, 1e3), (1e3, 1e-3), (1.0, 1.0), (math.nan, 1e3),
         (1e-3, math.nan), (math.inf, math.inf)],
    )
    def test_rejects_a_range_outside_zero_to_inf(self, omega_range):
        # an infinite end used to reach the scan as a grid of NaN
        with pytest.raises(ValueError, match=r"^omega_range must satisfy 0 < lo < hi < inf, "
                                             r"got \(.*\)$"):
            phase_crossovers(plant_b(5.0), omega_range)

    @pytest.mark.parametrize("hi", [1e120, 1e150])
    def test_range_where_the_crossover_polynomial_overflows(self, hi):
        # P has degree 3: at omega = hi its powers overflow, but not P / omega^3
        [(w, km)] = phase_crossovers(plant_a(2.5), (1e-10, hi))
        assert w == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert km == pytest.approx(0.4, rel=1e-15)

    def test_no_crossover_plant(self):
        # first-order lag never reaches -180 degrees
        p = LinearPlant(num=(1.0,), den=(1.0, 1.0))
        assert phase_crossovers(p) == []

    def test_real_response_has_no_crossover(self):
        # Im G is exactly 0 at every frequency, so no bracket opens
        assert phase_crossovers(LinearPlant(num=(2.0,), den=(1.0,))) == []

    @given(
        st.lists(st.floats(0.2, 5.0), min_size=1, max_size=3),
        st.one_of(st.none(), st.floats(0.5, 5.0)),
        st.floats(0.5, 40.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_polynomial_roots(self, lags, rhp_zero, k):
        # G(jw) is real where Im N(jw) conj D(jw), a real polynomial in w, is 0
        den = np.poly([0.0] + [-p for p in lags])
        num = np.array([1.0]) if rhp_zero is None else np.array([-1.0, rhp_zero])
        plant = LinearPlant(num=tuple(num), den=tuple(den), k=k)

        def in_w(c):  # coefficients of c(j*w) as a polynomial in w
            return c * 1j ** np.arange(len(c) - 1, -1, -1)

        im = np.polymul(in_w(num), np.conj(in_w(den))).imag
        expected = []
        for r in np.roots(np.trim_zeros(im, "f")):
            w = r.real
            if abs(r.imag) > 1e-9 * abs(r) or not 1e-3 < w < 1e3:
                continue
            g = k * np.polyval(num, 1j * w) / np.polyval(den, 1j * w)
            if g.real < 0:
                expected.append((w, 1.0 / abs(g)))
        found = phase_crossovers(plant)
        assert len(found) == len(expected)
        for (w, km), (w_ref, km_ref) in zip(found, sorted(expected)):
            assert w == pytest.approx(w_ref, abs=1e-6)
            assert km == pytest.approx(km_ref, abs=1e-6)


class TestContour:
    def test_contour_is_closed(self):
        # Nyquist: a closed contour winds about -1/c by P - Z, with P the poles
        # of G and Z those of 1/(1 + c G) in the open right half-plane
        plants = [
            plant_a(2.5),
            plant_b(15.0),
            LinearPlant(num=(1.0,), den=(1.0, 3.0, 3.0, 1.0), k=-1.0),  # -1/(s + 1)^3
            LinearPlant(num=(1.0, 0.5), den=(1.0, 5.0, 6.0, 0.0, 0.0), k=4.0),
            LinearPlant(num=(1.0,), den=(1.0, 1.0, 0.0, 0.0)),  # type 2
        ]
        for p in plants:
            table = nyquist_contour(p)
            rhp_poles = np.sum(np.roots(p.den).real > 1e-9)
            for probe in -np.logspace(-2.0, 2.0, 17):
                if np.any(np.abs(table[:, 0] - probe) <= 1e-3 * abs(probe)):
                    continue
                closed = np.polyadd(p.den, (-p.k / probe) * np.asarray(p.num))
                z = np.sum(np.roots(closed).real > 0.0)
                assert table[table[:, 0] < probe, 1].sum() == rhp_poles - z, (p, probe)

    def test_contour_conjugate_symmetric_branches(self):
        # a phase crossover counts twice: on the branch and on its mirror
        p = plant_b(15.0)
        [(w, km)] = phase_crossovers(p)
        falls = p.transfer(1j * w * (1.0 - 1e-6)).imag > 0.0
        table = nyquist_contour(p)
        assert table[table[:, 0] == -1.0 / km, 1].tolist() == [2.0 if falls else -2.0]

    @pytest.mark.parametrize(
        "den, pole",
        [
            ((1.0, 0.0, 4.0), "2j"),  # G(jw) is real wherever it is sampled
            (tuple(np.polymul([1.0, 0.0], np.polymul([1.0, 0.0, 1.0], [1.0, 0.0, 1.0]))), "1j"),
            (tuple(np.polymul([1.0, 1.0, 0.0], [1.0, 0.0, 9.0])), "3j"),
        ],
    )
    def test_rejects_axis_pole_away_from_the_origin(self, den, pole):
        # np.roots puts the double poles of s (s^2 + 1)^2 about 6e-12 off the axis
        with pytest.raises(PoleOnAxisError, match=rf"^pole at s = {pole}$"):
            nyquist_contour(LinearPlant(num=(1.0,), den=den))

    def test_overflowing_indentation_arc_raises(self):
        # |G(j 0.001)| is finite, ten times it is not
        with pytest.raises(PoleOnAxisError, match=r"^the Nyquist contour is not finite"):
            nyquist_contour(plant_b(1e305))

    @pytest.mark.parametrize("a", [1e2, 1e8, 1e12, 1e16])
    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_chord_next_to_the_axis(self, a, k):
        # G = a / (s^2 (s + a)) at omega_min lies about 1e-3 / a of |G| off
        # the negative real axis, closer than an angle's rounding resolves;
        # the chord from 10 conj(G) to G crosses the axis at (20/11) Re G
        plant = LinearPlant(num=(a,), den=(1.0, a, 0.0, 0.0), k=k)
        g = complex(plant.transfer(1j * OMEGA_RANGE[0]))
        table = nyquist_contour(plant)
        if k < 0:  # Re G > 0: the chord crosses right of the origin
            assert table[:, 1].tolist() == [-1.0]  # the arc alone
            return
        assert table[:, 1].tolist() == [-1.0, -1.0, 1.0]  # arc, chord, segment
        want = Fraction(20, 11) * Fraction(g.real)
        assert abs(Fraction(table[1, 0]) - want) <= 4 * Fraction(math.ulp(float(want)))

    def test_keeps_lightly_damped_poles(self):
        # s^2 + 2e-6 s + 1: poles 1e-6 off the axis, relative
        c = nyquist_contour(LinearPlant(num=(1.0,), den=(1.0, 2e-6, 1.0, 0.0)))
        assert np.all(np.isfinite(c))


def outcomes(plant, nl):
    """repr of ``analyze``, ``nyquist_contour`` and ``phase_crossovers`` on
    ``plant``, or of the error each raises."""
    calls = (analyze, lambda p, _: nyquist_contour(p).tolist(), lambda p, _: phase_crossovers(p))
    found = []
    for f in calls:
        try:
            found.append(repr(f(plant, nl)))
        except (ValueError, RuntimeError) as exc:
            found.append(f"{type(exc).__name__}: {exc}")
    return found


def flip_zeros(coeffs):
    """``coeffs`` with the sign of each zero flipped."""
    return tuple(-c if c == 0.0 else c for c in coeffs)


class TestMemo:
    """The gain-free crossover data kept per coefficient set."""

    def test_size_stays_bounded(self, cold_crossing_memo):
        for i in range(200):
            nyquist_contour(LinearPlant(num=(1.0,), den=(1.0, 4.0 + i, 3.0, 0.0), k=2.0))
            for memo in (_gain_free, _axis_poles):
                assert memo.cache_info().currsize <= memo.cache_info().maxsize == MEMO_SIZE
        assert _gain_free.cache_info().currsize == MEMO_SIZE

    def test_entry_holds_only_tuples_of_python_numbers(self, cold_crossing_memo):
        # a tuple cannot be changed by a caller, and a NumPy scalar, a list
        # or an array in an entry would fail here
        def python_numbers(v):
            if type(v) is tuple:
                return all(map(python_numbers, v))
            return type(v) in (int, float, complex)

        plant = plant_b(15.0)
        nyquist_contour(plant)
        assert _gain_free.cache_info().currsize == 1
        entry = _gain_free(_bits(plant.num), _bits(plant.den), *OMEGA_RANGE)
        roots, _, ws, g1, hs = entry
        assert len(ws) == len(g1) == 2 + len(roots) == 3 and len(hs) == 1
        assert python_numbers(entry)

    def test_holds_no_plant(self, cold_crossing_memo):
        plant = LinearPlant(num=(1.0, 0.5), den=(1.0, 5.0, 6.0, 0.0, 0.0), k=4.0)
        nyquist_contour(plant)
        phase_crossovers(plant)
        ref = weakref.ref(plant)
        del plant
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize(
        "num, den, k, message",
        [
            ((1.0,), (1.0, 0.0, 4.0), 1.0, "^pole at s = 2j$"),
            ((1.0,), plant_b(1.0).den, 1e308, "^G\\(j omega\\) is not finite at omega = 0.001$"),
        ],
    )
    def test_an_error_is_raised_on_every_call(self, cold_crossing_memo, nl_b, num, den, k, message):
        for _ in range(3):
            with pytest.raises(PoleOnAxisError, match=message):
                analyze(LinearPlant(num, den, k), nl_b)
        # the next gain on the same shape gives a cold call's result
        other = LinearPlant(num, den, 30.0)
        warm = outcomes(other, nl_b)
        cold_crossing_memo()
        assert warm == outcomes(other, nl_b)

    def test_warm_analyze_makes_no_eigenvalue_call(self, cold_crossing_memo, monkeypatch, nl_b):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        analyze(plant_b(15.0), nl_b)
        assert len(calls) == 2  # the denominator's roots and P's
        calls.clear()
        for k in (5.0, 30.0, -15.0):
            analyze(plant_b(k), nl_b)
        assert calls == []

    def test_warm_analyze_looks_up_no_numpy_attribute(self, cold_crossing_memo, monkeypatch, nl_b):
        # G = k G1, |G| and the gain margins are formed in Python floats
        looked_up = []

        class CountedNumpy:
            def __getattr__(self, name):
                looked_up.append(name)
                return getattr(np, name)

        analyze(plant_b(15.0), nl_b)
        monkeypatch.setattr(linsys, "np", CountedNumpy())
        for k in (5.0, 30.0, -15.0):
            analyze(plant_b(k), nl_b)
        assert looked_up == []

    def test_warm_analyze_packs_each_key_once(self, cold_crossing_memo, monkeypatch, nl_b):
        # den's key serves both memos, so an op packs den once and num once
        plant = plant_b(15.0)
        analyze(plant, nl_b)
        packed = []
        monkeypatch.setattr(linsys, "_bits", lambda cs: packed.append(cs) or _bits(cs))
        analyze(plant, nl_b)
        assert packed == [plant.den, plant.num]

    def test_zero_signs_are_part_of_the_key(self, cold_crossing_memo, nl_b):
        # -78 s / (-41 s) at k = -1, a real G whose Im is a signed zero, had a
        # crossing with den's trailing 0.0 and none with -0.0; such a common
        # factor s is refused now (TestValidation), and no outcome below
        # depends on a zero's sign.  The key still tells the signs apart:
        # each zero-sign variant that passes takes its own entry
        shapes = []
        rng = random.Random(5)
        while len(shapes) < 40:
            num, den = random_coefficients(rng)
            if 0.0 in num + den:
                shapes.append((num, den))
        differ = keyed = 0
        for num, den in shapes:
            for k in (-1.0, 3.0):
                plants = [LinearPlant(n, d, k) for n in (num, flip_zeros(num))
                          for d in (den, flip_zeros(den))]
                cold = []
                for p in plants:
                    cold_crossing_memo()
                    cold.append(outcomes(p, nl_b))
                differ += len(set(map(tuple, cold))) > 1
                for order in (plants, plants[::-1]):
                    cold_crossing_memo()
                    assert [outcomes(p, nl_b) for p in order] == (
                        cold if order is plants else cold[::-1]), (num, den, k)
                if all(c[1].startswith("[") for c in cold):  # nyquist_contour passed
                    # repr tells -0.0 from 0.0, as the key must
                    keys = {(repr(p.num), repr(p.den)) for p in plants}
                    assert _gain_free.cache_info().currsize == len(keys), (num, den)
                    assert _axis_poles.cache_info().currsize == len({d for _, d in keys})
                    keyed += len(keys) > 1
        assert differ == 0
        assert keyed >= 60, keyed  # the key check is not vacuous


def crossovers_and_table(plant):
    """``phase_crossovers`` and ``nyquist_contour``'s rows as lists, or None
    where either raises."""
    try:
        return phase_crossovers(plant), nyquist_contour(plant).tolist()
    except PoleOnAxisError:
        return None


def test_the_gain_enters_last(cold_crossing_memo):
    # G = k G1: at 2^j k the crossovers stay put, each gain margin scales by
    # 2^-j and each abscissa by 2^j, exactly; at -k the crossovers are the
    # other roots of P, those where Re G1 > 0
    rng = random.Random(3)
    shapes = [(p.num, p.den) for p in (plant_a(1.0), plant_b(1.0))]
    shapes += [random_coefficients(rng) for _ in range(200)]
    checked = crossed = 0
    for num, den in shapes:
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        base = crossovers_and_table(LinearPlant(num, den, k))
        if base is None:  # a pole on the axis, at every gain
            continue
        roots, _, _, g1, _ = _gain_free(_bits(num), _bits(den), *OMEGA_RANGE)
        # 2^-8 k G1 and 2^8 k G1 stay clear of underflow and overflow
        if not all(x == 0.0 or 2.0**-1000 < abs(x) < 2.0**1000
                   for z in g1 for x in (z.real, z.imag)):
            continue
        found, table = base
        for j in (*range(-8, 0), *range(1, 9)):
            scale = 2.0**j
            assert crossovers_and_table(LinearPlant(num, den, scale * k)) == (
                [(w, km / scale) for w, km in found],
                [[scale * a, n] for a, n in table],
            ), (num, den, k, j)
        assert [w for w, _ in found] == [w for w, z in zip(roots, g1[1:-1]) if z.real < 0]
        found_at_minus_k = crossovers_and_table(LinearPlant(num, den, -k))[0]
        assert [w for w, _ in found_at_minus_k] == [
            w for w, z in zip(roots, g1[1:-1]) if z.real > 0], (num, den, k)
        checked += 1
        crossed += bool(found) + bool(found_at_minus_k)
    assert checked >= 180 and crossed >= 80, (checked, crossed)


class TestSerialization:
    def test_round_trip(self):
        p = plant_a(2.5)
        again = LinearPlant.from_dict(json.loads(json.dumps(p.to_dict())))
        assert again == p

    def test_default_gain(self):
        p = LinearPlant.from_dict({"num": [1.0], "den": [1.0, 1.0]})
        assert p.k == 1.0

    def test_rejects_bad_json(self):
        # JSON values that are not an object; the CLI refuses text that is not JSON
        for data in ([1, 2], "[1, 2", 3.0, None):
            with pytest.raises(PlantError):
                LinearPlant.from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"num": "1", "den": "143"},
            {"num": [1.0], "den": b"\x01\x01"},
            {"num": [1.0], "den": [1.0, 1.0], "k": True},
            {"num": [1.0], "den": [1.0, 1.0], "k": "2"},
            {"num": ["1"], "den": [1.0, 1.0]},
            {"num": [1.0], "den": [True, 1.0]},
        ],
    )
    def test_rejects_strings_and_booleans(self, data):
        with pytest.raises(PlantError):
            LinearPlant.from_dict(data)
