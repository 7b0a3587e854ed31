"""Harmonic-balance intersections, enclosure test, stability, ellipse."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from dfcycle import LinearPlant, PiecewiseNonlinearity, df_value
from dfcycle.cycles import (
    IntersectionError,
    analyze,
    classify,
    ellipse_estimate,
    find_intersections,
)
from dfcycle.linsys import N_SCAN, h_of_jw, nyquist_contour

from conftest import plant_a, plant_b
from test_enclosure_reference import winding_number


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
            IntersectionError, match=r"K = 1\.0 on a plateau: .* X = \[9\.99+e-06, 1\.0\]$"
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

    def test_grid_past_the_largest_float_raises(self):
        # the default grid ends at 100 times the last breakpoint
        wide = PiecewiseNonlinearity(x=(1e307,), y=(1.0,))
        with pytest.raises(IntersectionError, match=r"grid is not finite: it ends at inf$"):
            find_intersections(wide, 2.4)

    def test_grid_that_underflows_to_zero_raises(self):
        # the default grid starts at 1e-7 times its end, 100 times the breakpoint
        tiny = PiecewiseNonlinearity(x=(5e-324,), y=(5e-324,), final_slope=0.0)
        with pytest.raises(
            IntersectionError, match=r"grid is not positive: it starts at 0\.0$"
        ):
            find_intersections(tiny, 0.5)


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

    def test_evaluates_g_at_the_scan_and_its_refinement_only(self, monkeypatch, nl_a, nl_b):
        # the crossover scan's grid, plus a few refinement points per bracket
        points = []
        transfer = LinearPlant.transfer

        def counted(self, s):
            points.append(np.size(s))
            return transfer(self, s)

        monkeypatch.setattr(LinearPlant, "transfer", counted)
        for plant, nl in [(plant_a(k), nl_a) for k in (1.0, 2.5, 6.0)] + [
            (plant_b(k), nl_b) for k in (5.0, 15.0, 30.0)
        ]:
            points.clear()
            analyze(plant, nl)
            assert N_SCAN < sum(points) <= N_SCAN + 100, (plant, points)
