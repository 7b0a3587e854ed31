"""``_contour`` with its kept grid terms against the form it replaced.

``_contour`` takes num and den on ``_SCAN_GRID``, checked for poles on the
imaginary axis, from ``linsys._grid_terms``, which keeps them per coefficient
set, and computes G = k num / den on every call.  ``reference_contour`` below
is the form it replaced: ``np.roots`` and ``freq_response`` on every call.
On random coefficient sets of order 1-6, each at gains of both signs from
1e-300 to 1e300, with the memo cold and then warm, ``_contour``,
``nyquist_contour`` and ``analyze`` must give the same rows, the same table
bits and the same errors as the reference, RuntimeWarnings raised as errors
included; so must plants with a sampled pole, a pole on the axis, an
overflowing denominator, a G that overflows only at a large gain, and a
denominator that ``np.roots`` overflows on.  The memo's own tests follow.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from dfcycle import LinearPlant, cycles
from dfcycle.cycles import analyze
from dfcycle.linsys import (
    GRID_MEMO_SIZE,
    PoleOnAxisError,
    _SCAN_GRID,
    _contour,
    _refine_sign_changes,
    freq_response,
    nyquist_contour,
)

from conftest import plant_b

GAINS = (1.0, -1.0, 1e-300, -1e300, 1e300)


def reference_contour(plant):
    """``_contour`` with ``np.roots`` and ``freq_response`` on every call."""
    r = np.roots(plant.den)
    on_axis = r.imag[(r.imag > 0) & (np.abs(r.real) <= 1e-9 * np.abs(r))]
    if on_axis.size:
        raise PoleOnAxisError(f"pole at s = {on_axis.min():.7g}j")
    g_grid = freq_response(plant, _SCAN_GRID)
    with np.errstate(over="ignore", invalid="ignore"):
        omegas, g, im_left = _refine_sign_changes(
            lambda w: plant.transfer(1j * w),
            _SCAN_GRID,
            g_grid,
            np.imag,
            lambda g: np.abs(g.imag) <= 1e-12 * np.abs(g),
        )
    overflow = ~np.isfinite(g)
    if overflow.any():
        raise PoleOnAxisError(f"G(j omega) is not finite at omega = {omegas[overflow][0]}")
    neg = g.real < 0
    omegas = omegas[neg]
    with np.errstate(over="ignore", divide="ignore"):
        margins = 1.0 / np.abs(g[neg])
    bad = ~(np.isfinite(margins) & (margins > 0.0))
    if bad.any():
        raise PoleOnAxisError(
            f"the gain margin 1/|G| is {margins[bad][0]} at omega = {omegas[bad][0]}"
        )
    rows = []
    for w, km, d in zip(omegas.tolist(), margins.tolist(), np.sign(im_left[neg]).tolist()):
        if rows and abs(w - rows[-1][0]) <= 1e-9 * w:
            rows[-1][2] += d
        else:
            rows.append([w, km, d])
    g_lo, g_hi = g_grid[0], g_grid[-1]
    table = [(-1.0 / km, 2.0 * d) for _, km, d in rows]
    end, q = np.conj(g_lo), plant.origin_poles
    if q > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            radius = 10.0 * abs(g_lo)
            theta0 = np.angle(end)
            start = radius * np.exp(1j * theta0)
        if not np.isfinite(start):
            raise PoleOnAxisError(f"the Nyquist contour is not finite: it reaches {start}")
        table.append((-radius, -float((q + (g_lo.imag > 0)) // 2)))
        end = radius * np.exp(1j * (theta0 - q * math.pi))
    for a, b in ((g_hi, np.conj(g_hi)), (end, g_lo)):
        if (a.imag > 0) != (b.imag > 0):
            t = 0.5 * a.imag / (0.5 * a.imag - 0.5 * b.imag)
            table.append(((1.0 - t) * a.real + t * b.real, 1.0 if a.imag > 0 else -1.0))
    table = np.array(table, dtype=float).reshape(-1, 2)
    table = table[(table[:, 0] < 0.0) & (table[:, 1] != 0.0)]
    return rows, table[np.argsort(table[:, 0], kind="stable")]


def reference_analyze(plant, nl):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "_contour", reference_contour)
        return analyze(plant, nl)


def outcome(f, *args):
    """Rows and the table's dtype, shape and bytes, a result's repr, or the
    error's type and message (a RuntimeWarning is raised as an error)."""
    try:
        r = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(r, np.ndarray):
        return r.dtype, r.shape, r.tobytes()
    if isinstance(r, tuple):
        rows, table = r
        return repr(rows), outcome(lambda: table)
    return repr(r)


def assert_matches_reference(plant, nl):
    expected = outcome(reference_contour, plant)
    assert outcome(_contour, plant) == expected, plant
    table = expected if isinstance(expected[0], type) else expected[1]  # an error, or the table
    assert outcome(nyquist_contour, plant) == table, plant
    assert outcome(analyze, plant, nl) == outcome(reference_analyze, plant, nl), plant


def random_coefficients(rng: random.Random) -> tuple[tuple, tuple]:
    order = rng.randint(1, 6)

    def coeff():
        if rng.random() < 0.15:
            return rng.choice((0.0, -0.0))
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)

    den = [coeff() or 1.0] + [coeff() for _ in range(order)]
    num = [coeff() for _ in range(rng.randint(1, order + 1))]
    return tuple(num), tuple(den)


@pytest.mark.parametrize("seed", range(3))
def test_random_plants_match_the_reference(seed, cold_grid_memo, nl_b):
    rng = random.Random(seed)
    # more sets than the memo holds, so that later sets evict earlier ones
    for _ in range(GRID_MEMO_SIZE + 4):
        num, den = random_coefficients(rng)
        gains = GAINS + tuple(
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2)
        )
        for k in gains + gains:  # the first call cold, all later ones warm
            assert_matches_reference(LinearPlant(num, den, k), nl_b)


W = float(_SCAN_GRID[2100])
SAMPLED_DOUBLE_POLE = tuple(np.polymul([1.0, 0.0, W * W], [1.0, 0.0, W * W]).tolist())


@pytest.mark.parametrize(
    "num, den, message",
    [
        # np.roots puts the double pole off the axis; den(j W) is negligible
        ((1.0,), SAMPLED_DOUBLE_POLE, rf"^pole at s = {W!r}j$"),
        ((1.0,), (1.0, 0.0, 4.0), r"^pole at s = 2j$"),
        ((1.0,), (1.0, 1e306, 1e306, 0.0), r"^the denominator overflows at s = "),
        # G overflows at the gains 1e300 and -1e300 only
        ((1e10,), plant_b(1.0).den, r"^G\(j omega\) is not finite at omega = 0.001$"),
        # np.roots overflows on den / den[0]
        ((1.0,), (1e-300, 1e300), r"^overflow encountered in divide$"),
    ],
)
def test_errors_match_the_reference(num, den, message, cold_grid_memo, nl_b):
    for k in GAINS + GAINS:
        assert_matches_reference(LinearPlant(num, den, k), nl_b)
    with pytest.raises((PoleOnAxisError, RuntimeWarning), match=message):
        _contour(LinearPlant(num, den, 1e300))


class TestGridMemo:
    # G = -3 s / (-s): a zero's sign in den moves the last bit of the table
    SIGNED = [LinearPlant((1.0, 0.0), (-1.0, z), 3.0) for z in (0.0, -0.0)]

    def test_signed_zeros_are_kept_apart(self, cold_grid_memo):
        cold = []
        for plant in self.SIGNED:
            cold_grid_memo.cache_clear()
            cold.append(outcome(_contour, plant))
        assert cold[0] != cold[1]
        for order in ((0, 1), (1, 0)):
            cold_grid_memo.cache_clear()
            for i in order + order:
                assert outcome(_contour, self.SIGNED[i]) == cold[i]
        assert cold_grid_memo.cache_info().currsize == 2

    def test_holds_at_most_its_bound(self, cold_grid_memo):
        for i in range(GRID_MEMO_SIZE + 5):
            _contour(LinearPlant((1.0,), (1.0, 1.0 + i, 0.0)))
            assert cold_grid_memo.cache_info().currsize == min(i + 1, GRID_MEMO_SIZE)

    def test_keeps_no_error(self, cold_grid_memo):
        plant = LinearPlant((1.0,), (1.0, 0.0, 1.0, 0.0))
        for _ in range(2):
            with pytest.raises(PoleOnAxisError, match=r"^pole at s = 1j$"):
                _contour(plant)
        assert cold_grid_memo.cache_info().currsize == 0

    def test_kept_arrays_are_read_only(self, cold_grid_memo):
        plant = plant_b(15.0)
        _contour(plant)
        signs = tuple(math.copysign(1.0, c) for c in plant.num + plant.den)
        for a in cold_grid_memo(plant.num, plant.den, signs):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
