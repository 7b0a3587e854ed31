"""Exact describing function vs the quadrature oracle, and the private factors."""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import PiecewiseNonlinearity
from dfcycle import descfun, df_exact, df_qualitative, df_value
from dfcycle.descfun import _df, _df_at, _phi, _psi, df_oracle, df_oracle_curve

from conftest import random_nonlinearity


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


class TestKernels:
    """The closed forms of the unchecked factors, at X >= X1 only."""

    def test_phi_vanishes_at_threshold(self):
        assert _phi(np.array([3.0]), 3.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_phi_tends_to_one(self):
        assert _phi(np.array([1e8]), 3.0)[0] == pytest.approx(1.0, abs=1e-6)

    def test_phi_closed_form_sample(self):
        # X = 2 X1: 1 - (2/pi)(pi/6 + sqrt(3)/4), checked by hand
        expected = 1.0 - (2.0 / math.pi) * (math.pi / 6.0 + math.sqrt(3.0) / 4.0)
        assert _phi(np.array([2.0]), 1.0)[0] == pytest.approx(expected, rel=1e-14)

    def test_phi_zero_threshold_is_unity(self):
        assert _phi(np.array([5.0]), 0.0)[0] == pytest.approx(1.0)

    def test_psi_vanishes_at_threshold(self):
        assert _psi(2.0, np.array([2.0]), 1.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_psi_maximum_location_and_value(self):
        X1 = 2.0
        assert _psi(X1, np.array([math.sqrt(2.0) * X1]), 1.0)[0] == pytest.approx(
            2.0 / (math.pi * X1), rel=1e-14
        )

    def test_psi_is_below_maximum_elsewhere(self):
        X1 = 2.0
        peak = 2.0 / (math.pi * X1)
        assert np.all(_psi(X1, np.array([2.1, 2.5, 3.5, 10.0, 100.0]), 1.0) <= peak + 1e-15)


# The reference keeps its own checked, masked factors, zero below the
# threshold, so that it stays independent of df_value's tail path.


def ref_phi(X, X1):
    X = np.asarray(X, dtype=float)
    assert X1 >= 0 and np.all(X > 0)
    u = np.minimum(X1 / X, 1.0)
    inner = np.arcsin(u) + u * np.sqrt(1.0 - u * u)
    return np.where(X >= X1, 1.0 - (2.0 / math.pi) * inner, 0.0)


def ref_psi(X1, X):
    X = np.asarray(X, dtype=float)
    assert X1 >= 0 and np.all(X > 0)
    u = np.minimum(X1 / X, 1.0)
    return np.where(X >= X1, (4.0 / (math.pi * X)) * np.sqrt(1.0 - u * u), 0.0)


def reference_df(nl, X):
    """F(X) with every term through the reference factors over the whole array."""
    X = np.asarray(X, dtype=float)
    Xa = np.atleast_1d(X)
    pos = Xa > 0
    F = np.full_like(Xa, nl.initial_slope)
    Xp = Xa[pos]
    acc = np.zeros_like(Xp)
    for x1, relay, magnitude in nl.terms:
        acc += magnitude * (ref_psi(x1, Xp) if relay else ref_phi(Xp, x1))
    F[pos] += acc
    return float(F[0]) if X.ndim == 0 else F


class TestExactReference:
    """df_value skips each term below its threshold; the sum keeps its bits."""

    def test_random_nonlinearities(self):
        rng = random.Random(20261018)
        for _ in range(200):
            nl = random_nonlinearity(rng)
            top = 2.0 * max(nl.max_breakpoint, 1.0)
            X = np.sort(
                np.concatenate(
                    [
                        [rng.uniform(0.0, top) for _ in range(rng.randint(1, 40))],
                        nl.breakpoints,  # exactly at a threshold
                        [0.0, 0.0, nl.breakpoints[-1]],  # repeats
                    ]
                )
            )
            assert np.array_equal(df_value(nl, X), reference_df(nl, X))
            for x in (0.0, *nl.breakpoints, rng.uniform(0.0, top)):
                assert df_value(nl, x) == reference_df(nl, x)

    def test_origin_jump_and_case_studies(self, nl_a, nl_b):
        relay = PiecewiseNonlinearity(x=(0.0, 0.0, 2.0, 2.0), y=(0.0, 1.0, 1.5, 0.5))
        for nl in (nl_a, nl_b, relay):
            marks = [b for b in nl.breakpoints if b > 0]
            X = np.sort(np.concatenate([np.linspace(0.25, 40.0, 160), marks]))
            assert np.array_equal(df_value(nl, X), reference_df(nl, X))

    def test_amplitudes_all_below_every_threshold(self, nl_b):
        X = np.array([0.0, 0.5, 2.999])
        assert np.array_equal(df_value(nl_b, X), np.full(3, nl_b.initial_slope))

    def test_rejects_descending_amplitudes(self, nl_b):
        with pytest.raises(ValueError, match="X = 4.0 follows 15.0"):
            df_value(nl_b, [15.0, 4.0])


class TestExactValues:
    def test_plateau_equals_initial_slope(self, nl_b):
        assert df_value(nl_b, 2.0) == pytest.approx(1.0)
        assert df_value(nl_b, 0.0) == pytest.approx(1.0)

    def test_pure_relay_closed_form(self):
        # jump of height 2Y1 at the origin: F(X) = 4 Y1 / (pi X)
        nl = PiecewiseNonlinearity(x=(0.0, 0.0), y=(0.0, 1.5), final_slope=0.0)
        for X in (0.5, 1.0, 4.0):
            assert df_value(nl, X) == pytest.approx(4.0 * 1.5 / (math.pi * X))

    def test_saturation_closed_form(self):
        # unit slope saturating at 1: F(X) = 1 - phi(X, 1) for X > 1
        nl = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=0.0)
        for X in (1.5, 2.0, 8.0):
            assert df_value(nl, X) == pytest.approx(1.0 - ref_phi(X, 1.0), rel=1e-13)

    def test_origin_jump_rejects_zero_amplitude(self):
        nl = PiecewiseNonlinearity(x=(0.0, 0.0), y=(0.0, 1.0), final_slope=0.0)
        with pytest.raises(ValueError):
            df_value(nl, 0.0)

    def test_vectorized_matches_scalar(self, nl_a):
        grid = np.linspace(0.5, 30.0, 40)
        curve = df_exact(nl_a, grid)
        assert curve.provenance == "exact"
        for x, f in zip(curve.X, curve.F):
            assert f == pytest.approx(df_value(nl_a, float(x)), rel=1e-13)

    def test_first_case_study_frozen_values(self, nl_a):
        # frozen from the quadrature oracle at tol 1e-12
        assert df_value(nl_a, 6.89) == pytest.approx(0.5721006283928389, abs=1e-10)
        assert df_value(nl_a, 20.02) == pytest.approx(0.38712058320426695, abs=1e-10)


class TestOracle:
    def test_agrees_with_exact_on_random_inputs(self):
        rng = random.Random(20260826)
        start = time.monotonic()
        worst = 0.0
        for _ in range(20):
            nl = random_nonlinearity(rng)
            top = max(nl.max_breakpoint, 1.0)
            grid = np.linspace(0.05, 3.0 * top, 64) + 1e-4  # avoid breakpoints
            exact = df_exact(nl, grid)
            for x, f in zip(exact.X, exact.F):
                worst = max(worst, rel_err(f, df_oracle(nl, float(x))))
        assert worst <= 1e-6
        assert time.monotonic() - start < 5.0

    def test_symmetry_self_check_runs(self, nl_a):
        assert df_oracle(nl_a, 10.0) == pytest.approx(df_value(nl_a, 10.0), rel=1e-9)

    def test_rejects_nonpositive_amplitude(self, nl_a):
        for X in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                df_oracle(nl_a, X)
        with pytest.raises(ValueError, match="^amplitude must be positive$"):
            df_oracle_curve(nl_a, [0.0, 1.0])

    def test_split_rounding_past_a_jump(self):
        # df_curves benchmark input (seed 1, round 120): a split of the
        # full-period a1 integral rounds to the wrong side of the jump at 1.17
        nl = PiecewiseNonlinearity(
            x=(0.9185094198521655, 1.1685094198521655, 1.1685094198521655, 9.903184902277374),
            y=(0.6500387041947204, 0.6084919229642956, -1.66906167122439, -2.0178469832443247),
            final_slope=-0.8926329155914454,
        )
        X = 8.495517905453662
        assert df_oracle(nl, X) == pytest.approx(df_value(nl, X), rel=1e-9)

    def test_steep_final_slope_converges_quickly(self):
        # a steep outer piece is one line per panel, which the fixed rule
        # integrates to rounding error in one array evaluation
        nl = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=1e10)
        start = time.monotonic()
        assert df_oracle(nl, 1.5) == pytest.approx(df_value(nl, 1.5), rel=1e-9)
        assert time.monotonic() - start < 1.0

    def test_rule_is_exact_to_degree_31(self):
        for k in range(32):
            exact = 1.0 / (k + 1)  # integral of u^k over [0, 1]
            assert descfun._WEIGHTS @ descfun._NODES**k == pytest.approx(exact, rel=1e-14)

    def test_huge_final_slope_is_finite(self):
        # y reaches 5e307 at X = 1.5; the integral stays below the float limit
        nl = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=1e308)
        assert df_oracle(nl, 1.5) == pytest.approx(df_value(nl, 1.5), rel=1e-9)

    @pytest.mark.parametrize("X", [2.25, 3.0])
    def test_ordinates_past_the_largest_float(self, X):
        # y(3) = 2e308 overflows and F(3) = 5.8e307 does not: the oracle scales
        # the map and X down by a power of two
        nl = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=1e308)
        assert descfun._shift(nl, X) < 0
        assert df_oracle(nl, X) == pytest.approx(df_value(nl, X), rel=1e-12)

    def test_value_near_the_largest_float(self):
        # b1 = X F(X) = 1.8e308 overflows, F(X) itself does not
        nl = PiecewiseNonlinearity(x=(1.0,), y=(1.5e308,), final_slope=0.0)
        assert df_oracle(nl, 2.0) == pytest.approx(df_value(nl, 2.0), rel=1e-9)

    def test_independent_of_the_decomposition(self, nl_a, monkeypatch):
        relay = PiecewiseNonlinearity(x=(0.0, 2.0), y=(1.0, 1.5))  # origin jump
        cases = [(nl_a, X) for X in (1.0, 6.89, 20.02, 30.0)]
        cases += [(relay, X) for X in (0.5, 2.0, 5.0)]
        expected = [df_value(nl, X) for nl, X in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not use the closed forms")

        # a class-level property overrides the value cached on the instance
        monkeypatch.setattr(PiecewiseNonlinearity, "terms", property(forbidden))
        monkeypatch.setattr(descfun, "_phi", forbidden)
        monkeypatch.setattr(descfun, "_psi", forbidden)
        for (nl, X), f in zip(cases, expected):
            assert df_oracle(nl, X) == pytest.approx(f, rel=1e-9)

    def test_warm_call_rebuilds_no_table_and_skips_the_shift_loop(self, monkeypatch):
        # a warm map's oracle reads its kept line table and exponent bound:
        # no NumPy call takes nl.lines, and _shift does not read nl.pieces
        # for its loop unless the bound exceeds 1016
        rng = random.Random(39)
        steep = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=1e308)
        cases = [(random_nonlinearity(rng), X) for X in (0.3, 2.0, 7.5, 20.0)]
        cases += [(steep, 1.5), (steep, 3.0)]  # bound and shift: 1025, -8 and 1026, -10
        built, reads = [], []

        class CountedNumpy:
            def __getattr__(self, name):
                f = getattr(np, name)
                if not callable(f):
                    return f

                def g(*args, **kwargs):
                    built.extend(name for a in args if any(a is nl.lines for nl, _ in cases))
                    return f(*args, **kwargs)

                return g

        pieces = PiecewiseNonlinearity.pieces.func

        def counted(self):
            reads.append(self)
            return pieces(self)

        monkeypatch.setattr(descfun, "np", CountedNumpy())
        df_oracle(*cases[0])  # a cold map builds its table from nl.lines
        assert built == ["asfortranarray"]
        for nl, X in cases:
            df_oracle(nl, X)
            lines = nl._oracle_table[0]
            assert not lines.flags.writeable and lines[:, 0].flags.c_contiguous
            with pytest.raises(ValueError):
                lines[0, 0] = 0.0
        built.clear()
        # a class-level property overrides the value cached on the instance
        monkeypatch.setattr(PiecewiseNonlinearity, "pieces", property(counted))
        for nl, X in cases:
            df_oracle(nl, X)
            assert reads == ([nl] if nl is steep else []), X
            reads.clear()
        assert built == []

    def test_amplitude_just_above_a_breakpoint(self):
        # X is about 1e-15 relative above the breakpoint 3.5587784291319564;
        # the a1 panel next to the jump's split (t near -3.055) must converge
        nl = PiecewiseNonlinearity(
            x=(0.30772920475220944, 0.30772920475220944, 3.5587784291319564, 5.042896257636302),
            y=(0.17434891886241566, 2.5959643889092385, 3.0829676432366426, 2.1986520821986364),
            final_slope=-0.6141560030306685,
        )
        X = 3.5587784291319604
        assert df_oracle(nl, X) == pytest.approx(df_value(nl, X), rel=1e-6)


class TestSubnormalAmplitudes:
    # a jump of 1e-322 at the origin: F = m0 + 4 Y/(pi X) is about 25.7 at
    # the least float, where 4/(pi X) alone overflows
    TINY = PiecewiseNonlinearity(x=(0.0, 0.0, 4.5e-322), y=(0.0, 1e-322, 2e-322))

    @pytest.mark.parametrize("X", [5e-324, 1e-320])
    def test_relay_term_is_finite_and_matches_the_oracle(self, X):
        f = df_value(self.TINY, X)
        assert math.isfinite(f)
        assert f == pytest.approx(df_oracle(self.TINY, X), rel=1e-6)

    def test_tall_relay_at_the_least_float(self):
        # the scale up for a subnormal X wins over the scale down for a tall y
        nl = PiecewiseNonlinearity(x=(0.0, 0.0), y=(0.0, 1e308))
        with pytest.raises(descfun.QuadratureError, match="non-finite value"):
            df_oracle(nl, 5e-324)

    def test_least_float_closed_form(self):
        nl = self.TINY
        expected = nl.initial_slope + (4.0 / math.pi) * (1e-322 / 5e-324)
        assert df_value(nl, 5e-324) == pytest.approx(expected, rel=1e-14)
        assert df_qualitative(nl, [5e-324]).F[0] == pytest.approx(expected, rel=1e-14)


class TestOneAmplitudeKernel:
    """``_df_at`` has the bits of ``_df`` on a one-point array."""

    @staticmethod
    def assert_same_bits(nl, xs):
        for x in xs:
            with np.errstate(all="ignore"):
                want = _df(nl, np.array([x]))
            got = np.array([_df_at(nl, x)])
            assert got.tobytes() == want.tobytes(), (nl, x, got, want)

    def amplitudes(self, nl, rng):
        xs = [2.0 ** -1030, 1e-300, 1e300, 1.7e308]
        for x1, _, _ in nl.terms:
            if x1 > 0:
                xs += [x1, math.nextafter(x1, math.inf)]
        top = max(nl.max_breakpoint, 1.0)
        return xs + [rng.uniform(0.0, 3.0 * top) or 1.0 for _ in range(300)]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_nonlinearities(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            nl = random_nonlinearity(rng)
            self.assert_same_bits(nl, self.amplitudes(nl, rng))

    def test_case_studies(self, nl_a, nl_b):
        rng = random.Random(1)
        for nl in (nl_a, nl_b):
            self.assert_same_bits(nl, self.amplitudes(nl, rng))

    @pytest.mark.parametrize("x1", [0.0, 2.0 ** -1040, 5e-324])
    def test_relay_below_the_psi_scale(self, x1):
        # amplitudes below 2^-1000: _psi scales X and Y up by a power of two
        nl = PiecewiseNonlinearity(x=(x1, x1, 1e-300), y=(0.0, 1.5, 2.0))
        xs = [math.ldexp(1.0 + 0.3 * i, e) for e in range(-1074, -990, 3) for i in range(3)]
        self.assert_same_bits(nl, [x for x in xs if x >= x1] + [math.nextafter(x1, 1.0)])

    def test_arcsin_of_a_float_runs_the_array_loop(self):
        u = np.random.default_rng(0).uniform(0.0, 1.0, 100_000)
        got = np.array([np.arcsin(float(v)) for v in u])
        bad = np.flatnonzero(got != np.arcsin(u))
        assert not bad.size, (
            f"np.arcsin on a Python float differs from np.arcsin on an array at "
            f"{bad.size} of {u.size} points (u = {u[bad[0]]!r}): NumPy's loop for "
            f"one element rounds otherwise, so descfun._df_at no longer has _df's bits"
        )


class TestCurveContainer:
    def test_grid_must_be_sorted(self, nl_a):
        with pytest.raises(ValueError):
            df_exact(nl_a, np.array([2.0, 1.0]))

    def test_grid_must_be_nonnegative(self, nl_a):
        # NaN is no amplitude either, alone or between valid ones
        for grid in ([-1.0, 1.0], [math.nan], [1.0, math.nan, 20.0]):
            for make in (df_exact, df_qualitative):
                with pytest.raises(ValueError):
                    make(nl_a, np.array(grid))
            with pytest.raises(ValueError):
                df_value(nl_a, grid)
        with pytest.raises(ValueError):
            df_value(nl_a, math.nan)

    @pytest.mark.parametrize("make", [df_exact, df_qualitative, df_oracle_curve])
    def test_each_producer_checks_its_grid(self, make, nl_a):
        relay = PiecewiseNonlinearity(x=(0.0, 0.0), y=(0.0, 1.0), final_slope=0.0)
        tall = PiecewiseNonlinearity(x=(1e-300, 1e-300), y=(0.0, 1e300))
        cases = [
            (nl_a, [[1.0, 2.0]], "grid must be a non-empty 1-D array"),
            (nl_a, [], "grid must be a non-empty 1-D array"),
            (nl_a, [2.0, 1.0], "grid must be strictly increasing"),
            (nl_a, [1.0, 1.0, 2.0], "grid must be strictly increasing"),
            (nl_a, [-1.0, 1.0], "grid amplitudes must be >= 0"),
            # the step test compares neighbours: no difference to overflow or be NaN
            (nl_a, [1.0, math.inf, math.inf], "grid must be strictly increasing"),
            (nl_a, [1.0, math.nan, 2.0], "grid must be strictly increasing"),
            (nl_a, [-math.inf, 1.0], "grid amplitudes must be >= 0"),
            (nl_a, [-1e308, 1e308], "grid amplitudes must be >= 0"),
            (nl_a, [math.nan], "grid amplitudes must be >= 0"),
            (relay, [0.0, 1.0], "grid must exclude 0 when the nonlinearity jumps at the origin"),
            # F overflows above the jump: the df command's default grid, without 0
            (tall, 1e-302 * np.arange(1, 301), "F is not finite at X = 1.01e-300"),
        ]
        for nl, grid, message in cases:
            with pytest.raises(ValueError) as err, np.errstate(over="ignore", invalid="ignore"):
                make(nl, np.array(grid))
            assert str(err.value) == message


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_df_bounded_by_slope_range(seed):
    # F(X) of a continuous nonlinearity lies within [min slope, max slope]
    rng = random.Random(seed)
    nl = random_nonlinearity(rng)
    if any(relay for _, relay, _ in nl.terms):
        return
    slopes = nl.pieces[2]  # every segment's slope and the last slope
    lo, hi = min(slopes), max(slopes)
    top = max(nl.max_breakpoint, 1.0)
    for X in np.linspace(0.1, 4.0 * top, 16):
        f = df_value(nl, float(X))
        assert lo - 1e-9 <= f <= hi + 1e-9
