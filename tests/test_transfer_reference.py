"""``LinearPlant.transfer`` against its ``np.polyval`` form, bit for bit.

``transfer``, ``h_of_jw`` and ``_gain_free`` evaluate their polynomials with
``linsys._horner``, an in-place copy of ``np.polyval``'s loop, and check
den(s) with ``_checked_den``.  The functions below are the ``np.polyval``
form it replaced:
``G = k num(s) / den(s)``, with den(s) checked against the polynomial of
|den|'s coefficients at |s|.  On random plants of order 1-6 with gains up to
1e300, at scalar and array s, ``transfer``, ``freq_response`` and
``h_of_jw`` must give the same bits, the same result types and the same
errors as these.

``linsys._crossings`` applies the gain last: it forms G = k G1 from the
kept G1 = N / D, each part one Python float product.  On 100 000 drawn G1
and gains, with parts from 2^-1000 to 2^1000, signed zeros, subnormals, and
infinities and NaNs, it must give NumPy's products ``k * g1.real`` and
``k * g1.imag``, or raise ``PoleOnAxisError`` naming the first omega where
one is not finite; |G| may overflow to inf there without an error.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from dfcycle import LinearPlant, linsys
from dfcycle.linsys import PoleOnAxisError, _crossings, freq_response, h_of_jw

from conftest import plant_a, within_ulps


def reference_den_at(plant, s):
    den = np.polyval(plant.den, s)
    scale = np.maximum(np.abs(np.polyval(np.abs(plant.den), np.abs(s))), 1.0)
    bad = np.abs(den) <= 1e-14 * scale
    if bad.any():
        at, size = np.asarray(s)[bad][0], np.asarray(scale)[bad][0]
        if size == math.inf:
            raise PoleOnAxisError(f"the denominator overflows at s = {at}")
        raise PoleOnAxisError(f"pole at s = {at}")
    return den


def reference_transfer(plant, s):
    return plant.k * np.polyval(plant.num, s) / reference_den_at(plant, s)


def reference_freq_response(plant, omega):
    ws = np.asarray(omega)
    if np.any(ws <= 0):
        raise ValueError("frequency must be positive")
    g = reference_transfer(plant, 1j * omega)
    overflow = ~np.isfinite(g)
    if overflow.any():
        raise PoleOnAxisError(f"G(j omega) is not finite at omega = {ws[overflow][0]}")
    return g


def reference_h_of_jw(plant, omega):
    s = 1j * omega
    return s ** np.arange(plant.order) * (plant.den[0] / reference_den_at(plant, s))


def outcome(f, *args):
    """The result's type, shape and bytes, or the error's type and message."""
    try:
        with np.errstate(all="ignore"):
            r = f(*args)
    except (PoleOnAxisError, ValueError) as exc:
        return type(exc), str(exc)
    return type(r), np.shape(r), np.atleast_1d(r).tobytes()


def random_plant(rng: random.Random) -> LinearPlant:
    order = rng.randint(1, 6)

    def coeff():
        if rng.random() < 0.15:
            return 0.0
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)

    den = [coeff() or 1.0] + [coeff() for _ in range(order)]
    while True:
        num = [coeff() for _ in range(rng.randint(1, order + 1))]
        if num[-1] != 0.0 or den[-1] != 0.0:  # a common factor s is refused
            break
    k = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
    return LinearPlant(tuple(num), tuple(den), k)


def random_points(rng: random.Random):
    """Scalar and array s: on the imaginary axis, off it, and as floats."""
    w = 10.0 ** rng.uniform(-3.0, 3.0)
    ws = 10.0 ** np.array([rng.uniform(-3.0, 3.0) for _ in range(rng.randint(1, 40))])
    return (
        1j * w,
        complex(rng.uniform(-5.0, 5.0), w),
        1j * ws,
        ws * (rng.uniform(-1.0, 1.0) + 1j),
        ws,
    )


@pytest.mark.parametrize("seed", range(4))
def test_random_plants_match_the_polyval_form(seed):
    rng = random.Random(seed)
    for _ in range(75):
        plant = random_plant(rng)
        for s in random_points(rng):
            assert outcome(plant.transfer, s) == outcome(reference_transfer, plant, s), (
                plant, s)
        w = 10.0 ** rng.uniform(-3.0, 3.0)
        ws = np.sort(10.0 ** np.array([rng.uniform(-3.0, 3.0) for _ in range(30)]))
        for omega in (w, ws):
            assert outcome(freq_response, plant, omega) == outcome(
                reference_freq_response, plant, omega), (plant, omega)
        assert outcome(h_of_jw, plant, w) == outcome(reference_h_of_jw, plant, w)


@pytest.mark.parametrize(
    "plant, s, message",
    [
        # poles at 0 and +-j, sampled at j
        (LinearPlant(num=(1.0,), den=(1.0, 0.0, 1.0, 0.0)), np.array([0.5j, 1.0j, 2.0j]),
         r"^pole at s = 1j$"),
        (LinearPlant(num=(1.0,), den=(1.0, 0.0, 1.0, 0.0)), 1.0j, r"^pole at s = 1j$"),
        # den(s) = s^2 + s overflows at s = 1e200j, far from the poles 0 and -1
        (plant_a(2.5), np.array([1.0j, 1e100j, 1e200j, 1e300j]),
         r"^the denominator overflows at s = 1e\+200j$"),
        (plant_a(2.5), 1e200j, r"^the denominator overflows at s = 1e\+200j$"),
    ],
)
def test_errors_match_the_polyval_form(plant, s, message):
    got = outcome(plant.transfer, s)
    assert got == outcome(reference_transfer, plant, s)
    assert got[0] is PoleOnAxisError
    with pytest.raises(PoleOnAxisError, match=message), np.errstate(all="ignore"):
        plant.transfer(s)


def random_part(rng: random.Random, special: float) -> float:
    """A float of either sign from 2^-1000 to 2^1000; or, each one time in
    25, a signed zero or a subnormal; or, with probability ``special``,
    an infinity or a NaN."""
    u = rng.random()
    if u < special:
        return rng.choice((math.inf, -math.inf, math.nan))
    sign = rng.choice((-1.0, 1.0))
    if u < special + 0.04:
        return sign * 0.0
    if u < special + 0.08:
        return sign * rng.uniform(0.0, 2.0**-1022)
    return sign * math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-1000, 1000))


@pytest.mark.parametrize("seed", range(4))
def test_crossings_form_g_as_k_times_g1(seed, monkeypatch):
    # _crossings at a range's two ends, with _gain_free's G1 replaced by
    # drawn ones: 2 products a call, 25 000 a seed
    rng = random.Random(seed)
    ws = (1e-3, 1e3)
    drawn = {}
    monkeypatch.setattr(linsys, "_gain_free", lambda *key: drawn["entry"])
    finite = failed = 0
    for _ in range(12_500):
        k = rng.choice((0.0, -0.0, *(random_part(rng, 0.0) for _ in range(6))))
        g1 = tuple(complex(random_part(rng, 0.02), random_part(rng, 0.02)) for _ in ws)
        drawn["entry"] = ((), (), ws, g1, ())
        parts = np.array(g1)
        with np.errstate(all="ignore"):
            want = np.empty(len(ws), complex)
            want.real, want.imag = k * parts.real, k * parts.imag
        plant = LinearPlant((1.0,), (1.0, 1.0), k)
        bad = ~np.isfinite(want)
        if bad.any():
            message = f"^G\\(j omega\\) is not finite at omega = {np.array(ws)[bad][0]}$"
            with pytest.raises(PoleOnAxisError, match=message):
                _crossings(plant, b"", *ws)
            failed += 1
            continue
        _, _, g_lo, size_lo, g_hi = _crossings(plant, b"", *ws)
        got = np.array([g_lo, g_hi])
        assert got.tobytes() == want.tobytes(), (k, g1, got, want)
        with np.errstate(all="ignore"):
            assert within_ulps(size_lo, float(np.abs(want[0]))), (k, g1)
        finite += 1
    # both outcomes are drawn often
    assert finite > 5_000 and failed > 1_000, (finite, failed)


def test_finite_g_whose_size_overflows(monkeypatch):
    # |G| = hypot(Re G, Im G) gives inf there without an error or a warning
    # (abs(complex) raises OverflowError); at a crossover the gain margin
    # 1/|G| is then 0, which is refused
    plant, ws = LinearPlant((1.0,), (1.0, 1.0), 1.0), (1e-3, 1.0, 1e3)
    big = complex(1.5e308, 1.5e308)
    for g1, crossover in (((big, complex(-1.7e308, -1e308), 1 + 0j), True),
                          ((big, 1j, 1 + 0j), False)):
        entry = ((1.0,), (1,), ws, g1, ((1j,),))
        monkeypatch.setattr(linsys, "_gain_free", lambda *key, entry=entry: entry)
        if crossover:
            with pytest.raises(PoleOnAxisError, match=r"^the gain margin 1/\|G\| is 0\.0 at omega = 1\.0$"):
                _crossings(plant, b"", 1e-3, 1e3)
        else:
            rows, _, g_lo, size_lo, _ = _crossings(plant, b"", 1e-3, 1e3)
            assert (rows, g_lo, size_lo) == ([], big, math.inf)
