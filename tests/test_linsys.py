"""Rational plants: frequency response, realization, crossover search."""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import LinearPlant, PlantError
from dfcycle.linsys import (
    PoleOnAxisError,
    SingularFrequencyError,
    h_of_jw,
    nyquist_contour,
    phase_crossovers,
)

from conftest import plant_a, plant_b


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

    def test_counts_origin_poles(self):
        assert plant_b(1.0).origin_poles == 1
        assert LinearPlant(num=(1.0,), den=(1.0, 0.0, 0.0)).origin_poles == 2
        assert LinearPlant(num=(1.0,), den=(1.0, 1.0)).origin_poles == 0

    def test_gain_scaling(self):
        p = plant_a(1.0)
        q = p.with_gain(2.5)
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

    def test_scalar_gives_complex_scalar(self):
        g = plant_b(5.0).transfer(1.0j)
        assert isinstance(g, np.complex128)  # not a 0-d array


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
        with pytest.raises(SingularFrequencyError, match=r"at omega = 0\.001$"):
            phase_crossovers(p)

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
        c = nyquist_contour(plant_a(2.5))
        assert c[0] == pytest.approx(c[-1])

    def test_contour_conjugate_symmetric_branches(self):
        p = plant_b(15.0)
        n = 512
        c = nyquist_contour(p, n=n)
        np.testing.assert_allclose(c[:n], np.conj(c[2 * n - 1 : n - 1 : -1]), rtol=1e-12)


class TestSerialization:
    def test_round_trip(self):
        p = plant_a(2.5)
        again = LinearPlant.from_json(json.dumps(p.to_dict()))
        assert again == p

    def test_default_gain(self):
        p = LinearPlant.from_dict({"num": [1.0], "den": [1.0, 1.0]})
        assert p.k == 1.0

    def test_rejects_bad_json(self):
        with pytest.raises(PlantError):
            LinearPlant.from_json("[1, 2")
