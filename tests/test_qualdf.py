"""Qualitative (hand-drawable) describing function approximation."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import df_exact, df_value
from dfcycle.qualdf import (
    df_qualitative,
    phi_tilde,
    segment_anchor_values,
)

from conftest import random_nonlinearity


class TestBuildingBlocks:
    def test_phi_tilde_linear_fraction(self):
        assert phi_tilde(4.0, 2.0) == pytest.approx(0.5)
        assert phi_tilde(2.0, 2.0) == pytest.approx(0.0)

    def test_phi_tilde_zero_threshold(self):
        assert phi_tilde(3.0, 0.0) == pytest.approx(1.0)

    def test_phi_tilde_rejects_amplitude_below_threshold(self):
        with pytest.raises(ValueError):
            phi_tilde(1.0, 2.0)


class TestCurve:
    def test_initial_plateau_matches_exact(self, nl_b):
        grid = np.linspace(0.1, 2.9, 12)
        q = df_qualitative(nl_b, grid)
        assert q.provenance == "qualitative"
        np.testing.assert_allclose(q.F, [df_value(nl_b, float(x)) for x in grid])

    def test_tends_to_last_slope(self, nl_a):
        X = 1e5
        q = df_qualitative(nl_a, np.array([X]))
        last = (5.25 - 4.21) / 5.0
        assert q.F[0] == pytest.approx(last, rel=1e-3)

    def test_continuity_across_segment_joins(self, nl_a):
        eps = 1e-9
        for Xj in nl_a.breakpoints:
            if Xj <= 0:
                continue
            lo = df_qualitative(nl_a, np.array([Xj]))
            hi = df_qualitative(nl_a, np.array([Xj + eps]))
            # a jump adds an impulsive term that starts at zero, so the
            # chained curve stays continuous even at the jump abscissa
            assert hi.F[0] == pytest.approx(lo.F[0], abs=1e-4)

    def test_first_case_study_frozen_values(self, nl_a):
        # frozen from this implementation after checking the published curve
        q = df_qualitative(nl_a, np.array([6.89, 19.89]))
        assert q.F[0] == pytest.approx(0.63875, abs=1e-5)
        assert q.F[1] == pytest.approx(0.36134, abs=1e-5)

    def test_anchor_chain_first_case(self, nl_a):
        anchors = segment_anchor_values(nl_a)
        assert anchors[0] == pytest.approx(0.0)  # initial plateau value
        assert len(anchors) == len(nl_a.breakpoints)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_same_limits_as_exact(seed):
    # both curves start at m0 and approach the final slope for large X
    rng = random.Random(seed)
    nl = random_nonlinearity(rng)
    top = max(nl.max_breakpoint, 1.0)
    X = 1e6 * top
    q = df_qualitative(nl, np.array([X]))
    e = df_exact(nl, np.array([X]))
    assert q.F[0] == pytest.approx(nl.last_slope, abs=1e-3)
    assert e.F[0] == pytest.approx(nl.last_slope, abs=1e-3)
