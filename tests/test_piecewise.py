"""Validation, evaluation, and primitive decomposition of the nonlinearity."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import NonlinearityError, PiecewiseNonlinearity, PrimitiveKind

from conftest import random_nonlinearity


class TestValidation:
    def test_rejects_length_mismatch(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(1.0, 2.0), y=(1.0,))

    def test_rejects_empty(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(), y=())

    def test_rejects_decreasing_abscissae(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(2.0, 1.0), y=(1.0, 2.0))

    def test_rejects_negative_abscissa(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(-1.0, 2.0), y=(1.0, 2.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(1.0, float("nan")), y=(1.0, 2.0))

    def test_rejects_repeated_abscissa_without_jump(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(1.0, 1.0), y=(2.0, 2.0))

    def test_rejects_triple_abscissa(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(1.0, 1.0, 1.0), y=(1.0, 2.0, 3.0))

    def test_rejects_overflowing_slope(self):
        with pytest.raises(NonlinearityError, match="from 0.0 to 1e-300 is not finite"):
            PiecewiseNonlinearity(x=(1e-300, 1.0), y=(1e300, 1.0))

    def test_pure_gain_via_final_slope(self):
        nl = PiecewiseNonlinearity(x=(0.0,), y=(0.0,), final_slope=3.0)
        assert nl.evaluate(2.0) == pytest.approx(6.0)
        assert nl.decompose() == (3.0, ())


class TestEvaluate:
    def test_linear_interpolation_between_vertices(self):
        nl = PiecewiseNonlinearity(x=(2.0, 4.0), y=(2.0, 6.0))
        assert nl.evaluate(3.0) == pytest.approx(4.0)

    def test_right_limit_at_jump(self):
        nl = PiecewiseNonlinearity(x=(1.0, 1.0, 2.0), y=(1.0, 3.0, 4.0))
        assert nl.evaluate(1.0) == pytest.approx(3.0)

    def test_tail_uses_final_slope(self):
        nl = PiecewiseNonlinearity(x=(1.0,), y=(2.0,), final_slope=0.5)
        assert nl.evaluate(3.0) == pytest.approx(3.0)

    def test_odd_extension(self):
        nl = PiecewiseNonlinearity(x=(1.0, 1.0, 2.0), y=(1.0, 3.0, 4.0))
        for x in (0.3, 0.99, 1.5, 5.0):
            assert nl.evaluate(-x) == pytest.approx(-nl.evaluate(x))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_odd_symmetry_random(self, seed):
        rng = random.Random(seed)
        nl = random_nonlinearity(rng)
        xs = [rng.uniform(0.01, 20.0) for _ in range(16)]
        for x in xs:
            assert nl.evaluate(-x) == pytest.approx(-nl.evaluate(x), abs=1e-12)


class TestPieceTable:
    def test_right_limit_at_jump(self, nl_a):
        xs, ys, _ = nl_a.pieces
        i = nl_a.piece(20.0)
        assert (xs[i], ys[i]) == (20.0, 4.21)
        assert nl_a.piece(np.nextafter(20.0, 0.0)) == i - 2

    def test_odd_symmetric(self, nl_a):
        x = np.linspace(0.0, 40.0, 81)
        np.testing.assert_array_equal(nl_a.piece(-x), nl_a.piece(x))

    def test_jump_at_origin(self):
        relay = PiecewiseNonlinearity(x=(0.0, 0.0), y=(0.0, 1.0), final_slope=0.0)
        xs, ys, slopes = relay.pieces
        assert (xs, ys, slopes) == ((0.0, 0.0), (0.0, 1.0), (0.0, 0.0))
        np.testing.assert_array_equal(relay.piece(np.array([-2.0, -1e-300, 0.0, 3.0])), 1)

    def test_last_piece_beyond_last_vertex(self, nl_b):
        xs, _, slopes = nl_b.pieces
        assert nl_b.piece(19.0) == nl_b.piece(1e9) == len(xs) - 1
        assert slopes[-1] == nl_b.last_slope == 0.0

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lines_through_the_vertices(self, seed, keep_final_slope):
        rng = random.Random(seed)
        nl = random_nonlinearity(rng)
        if not keep_final_slope:
            nl = PiecewiseNonlinearity(nl.x, nl.y)
        pts = list(zip(nl.x, nl.y))
        if pts[0] != (0.0, 0.0):
            pts.insert(0, (0.0, 0.0))
        xs, ys, slopes = nl.pieces
        assert list(zip(xs, ys)) == pts
        assert len(slopes) == len(pts)
        segment_slopes = []
        for (x0, y0), (x1, y1), m in zip(pts, pts[1:], slopes):
            if x1 == x0:
                assert m == 0.0
                continue
            segment_slopes.append((y1 - y0) / (x1 - x0))
            assert m == pytest.approx(segment_slopes[-1], rel=1e-12)
            assert y0 + m * (x1 - x0) == pytest.approx(y1, rel=1e-12, abs=1e-12)
        expected = nl.final_slope if keep_final_slope else segment_slopes[-1]
        assert slopes[-1] == pytest.approx(expected, rel=1e-12)


class TestDecompose:
    def test_case_study_components(self, nl_b):
        m0, comps = nl_b.decompose()
        assert m0 == pytest.approx(1.0)
        assert [(c.kind, c.threshold, c.magnitude) for c in comps] == [
            (PrimitiveKind.DEAD_ZONE, 3.0, pytest.approx(-1.0)),
            (PrimitiveKind.DEAD_ZONE, 6.0, pytest.approx(1.75)),
            (PrimitiveKind.DEAD_ZONE, 10.0, pytest.approx(-1.75)),
        ]

    def test_jump_yields_relay(self, nl_a):
        m0, comps = nl_a.decompose()
        relays = [c for c in comps if c.kind is PrimitiveKind.RELAY]
        assert len(relays) == 1
        assert relays[0].threshold == pytest.approx(20.0)
        assert relays[0].magnitude == pytest.approx(-3.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_superposition_reconstructs_function(self, seed):
        # the decomposition must sum back to y(x) away from the jump points
        rng = random.Random(seed)
        nl = random_nonlinearity(rng)
        m0, comps = nl.decompose()
        jump_xs = {xj for xj, _ in nl.jumps}
        for _ in range(24):
            x = rng.uniform(-20.0, 20.0)
            if any(abs(abs(x) - xj) < 1e-9 for xj in jump_xs):
                continue
            total = m0 * x + sum(c.evaluate(x) for c in comps)
            assert total == pytest.approx(nl.evaluate(x), abs=1e-9)


class TestSerialization:
    def test_round_trip(self, nl_a):
        again = PiecewiseNonlinearity.from_json(json.dumps(nl_a.to_dict()))
        assert again == nl_a

    def test_from_dict_rejects_unknown_shape(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity.from_dict({"x": [1.0]})

    @pytest.mark.parametrize(
        "data",
        [
            {"x": "3", "y": "3"},
            {"x": [3.0], "y": b"\x03"},
            {"x": [3.0], "y": [3.0], "final_slope": True},
            {"x": [3.0], "y": [3.0], "final_slope": "0"},
            {"x": [3.0, 6.0], "y": [3.0, "3"]},
            {"x": [True], "y": [1.0]},
        ],
    )
    def test_from_dict_rejects_strings_and_booleans(self, data):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity.from_dict(data)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity.from_json("not json")
