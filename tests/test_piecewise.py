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

    def test_from_json_rejects_garbage(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity.from_json("not json")
