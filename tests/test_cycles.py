"""Harmonic-balance intersections, enclosure test, stability, ellipse."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from dfcycle import DescribingFunctionCurve, LinearPlant, PiecewiseNonlinearity
from dfcycle import df_exact, df_value
from dfcycle.cycles import (
    IntersectionError,
    analyze,
    classify,
    ellipse_estimate,
    find_intersections,
    winding_number,
)
from dfcycle.linsys import h_of_jw

from conftest import plant_a, plant_b


def closed_circle(turns: float, n: int, sign: float = 1.0) -> np.ndarray:
    # polygonal contour with the closing vertex repeated exactly
    t = np.linspace(0.0, turns * 2.0 * math.pi, n)
    c = np.exp(sign * 1.0j * t)
    c[-1] = c[0]
    return c


class TestWindingNumber:
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

    def test_curve_input_matches_source(self, nl_a):
        grid = np.linspace(0.01, 100.0, 20_000)
        from_curve = find_intersections(df_exact(nl_a, grid), 0.4)
        direct = find_intersections(nl_a, 0.4)
        assert len(from_curve) == len(direct)
        for a, b in zip(from_curve, direct):
            assert a == pytest.approx(b, rel=1e-3)

    def test_sorted_ascending(self, nl_b):
        roots = find_intersections(nl_b, 0.8)
        assert roots == sorted(roots)

    def test_exact_sample_root_counted_once(self):
        curve = DescribingFunctionCurve(
            np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 1.5]), "exact"
        )
        assert find_intersections(curve, 1.0) == [2.0]

    def test_plateau_at_the_gain_margin_raises(self):
        # unit saturation: F = 1 exactly on every amplitude below X = 1
        sat = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=0.0)
        with pytest.raises(
            IntersectionError, match=r"K = 1\.0 on a plateau: .* X = \[9\.99+e-06, 1\.0\]$"
        ):
            find_intersections(sat, 1.0)
        with pytest.raises(IntersectionError, match="plateau"):
            find_intersections(df_exact(sat, np.linspace(0.1, 3.0, 30)), 1.0)
        assert len(find_intersections(sat, 0.5)) == 1

    def test_overflowing_describing_function_raises(self):
        tall = PiecewiseNonlinearity(x=(1e-300, 1e-300), y=(0.0, 1e300))
        with pytest.raises(IntersectionError, match=r"^F is not finite at X = 1\.00"):
            find_intersections(tall, 2.4)


class TestClassification:
    def test_first_case_two_cycles(self, nl_a):
        p = plant_a(2.5)
        w = math.sqrt(2.0)
        roots = find_intersections(nl_a, 0.4)
        labels = [classify(p, nl_a, X, w) for X in roots]
        assert labels == ["unstable", "stable"]

    def test_second_case_three_cycles(self, nl_b):
        p = plant_b(15.0)
        w = math.sqrt(3.0)
        roots = find_intersections(nl_b, 0.8)
        labels = [classify(p, nl_b, X, w) for X in roots]
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

    def test_ellipse_point_periodic(self, nl_b):
        (co,) = analyze(plant_b(30.0), nl_b)
        (cyc,) = co.cycles
        T = 2.0 * math.pi / cyc.omega
        np.testing.assert_allclose(
            cyc.ellipse_point(0.3), cyc.ellipse_point(0.3 + T), atol=1e-9
        )


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
