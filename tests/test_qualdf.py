"""Qualitative (hand-drawable) describing function approximation."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import PiecewiseNonlinearity, df_exact, df_value
from dfcycle.qualdf import df_qualitative

from conftest import random_nonlinearity


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

    def test_case_studies_bit_identical(self, nl_a, nl_b):
        # the values of the ramp 1 - Xj/X, chained over the segments, to
        # the last bit; the third map adds a relay at the origin (Xj = 0)
        grid = 0.75 + 2.5 * np.arange(12)
        relay = PiecewiseNonlinearity(
            x=(0, 0, 2, 5, 5, 9, 9, 13, 19), y=(0, 1, 0, 4, 2, 4, 6, 6, 8)
        )
        frozen = {
            nl_a: [0.0, 0.34615384615384615, 0.5869565217391305, 0.5770396270396271,
                   0.4913237924865832, 0.4379535558780842, 0.40152625152625154,
                   0.37507903055848263, 0.3059435310660347, 0.25540668482748646,
                   0.2330122929290995, 0.22047191733262386],
            nl_b: [1.0, 0.9230769230769231, 0.5217391304347826, 0.8409090909090908,
                   0.9302325581395349, 0.7547169811320755, 0.6349206349206349,
                   0.547945205479452, 0.4819277108433735, 0.4301075268817205,
                   0.38834951456310685, 0.35398230088495575],
            relay: [1.1976527263135504, 0.5968942188928705, 0.5896942670828803,
                    0.46942097509324165, 0.5161413683047663, 0.45862440820106765,
                    0.43873693599984, 0.4242980863194966, 0.41333847752598296,
                    0.40473577384935394, 0.39780349807109955, 0.39209817375802286],
        }
        for nl, F in frozen.items():
            assert np.array_equal(df_qualitative(nl, grid).F, F)


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
