"""Rational plant G(s): frequency response, phase crossovers, the Nyquist
contour's crossing table, realization.

The plant is stored as numerator/denominator polynomial coefficients plus a
scalar gain.  A controllable canonical state-space realization is derived for
the steady-state geometry and the time simulator.  G(j omega) is real where
P(omega) = Im N(j omega) conj(D(j omega)) = 0, so the phase crossovers are
the real roots of P, and G is evaluated only there and at the range's ends.
All of that but G's gain k is kept per coefficient set in two small memos,
with G1 = N / D there and the state resolvent h(j omega) at each crossover,
which spans a cycle's ellipse; so a plant shape swept over gains finds its
crossovers once, and each call forms G = k G1 in Python floats.  The Nyquist
contour's crossings of the negative real axis away from the crossovers lie
where plane geometry puts them, in closed form from G at the range's ends
(``nyquist_contour``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

# Frequency interval of the crossover search, which also bounds the Nyquist
# contour: its arc and its two straight segments sit at the interval's ends.
OMEGA_RANGE = (1e-3, 1e3)
# Entries of each memo of the gain-free crossover data (``_gain_free``,
# ``_axis_poles``), least recently used first out.
MEMO_SIZE = 64
# |N(j omega)| against the sum of its terms' sizes at or below which a root
# of P is a zero of num on the axis, where G passes through 0.  P's root is
# good to P's rounding, which leaves N up to about 2e-12 of that sum there
# (nums with only even powers, zeros at j 0.01 to j 30, random dens of
# order 1-7); the crossings of random coefficient sets lie above 3e-7 of it.
# A crossing at a zero of num damped by about 1e-10 or less, relative to
# its frequency, is dropped with them.
NUM_ZERO = 1e-10


class PlantError(ValueError):
    """Raised when plant coefficients are unusable."""


class PoleOnAxisError(ValueError):
    """G has a pole where it is evaluated, or on the imaginary axis away from
    the origin, G, its denominator or the gain margin 1/|G| is not finite at
    the frequency, the Nyquist contour's indentation arc overflows, or the
    roots of the denominator or of the crossover polynomial P are not finite."""


@dataclass(frozen=True)
class LinearPlant:
    """Proper rational transfer function ``G(s) = k * num(s) / den(s)``.

    Coefficients are in descending powers of s; the gain multiplier ``k``
    is kept separate.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]
    k: float = 1.0

    def __post_init__(self) -> None:
        num = tuple(float(c) for c in self.num)
        den = tuple(float(c) for c in self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "k", float(self.k))
        if not num or not den:
            raise PlantError("numerator and denominator must be non-empty")
        if not all(math.isfinite(c) for c in num + den) or not math.isfinite(self.k):
            raise PlantError("coefficients must be finite")
        if den[0] == 0.0:
            raise PlantError("denominator leading coefficient must be nonzero")
        if num[-1] == 0.0 and den[-1] == 0.0:
            # the cancelled origin pole would still count on the contour
            raise PlantError("numerator and denominator share a factor s: both end in 0")
        num_deg = len(num) - 1 - next(
            (i for i, c in enumerate(num) if c != 0.0), len(num) - 1
        )
        if num_deg > len(den) - 1:
            raise PlantError("plant must be proper (deg num <= deg den)")

    @property
    def order(self) -> int:
        return len(self.den) - 1

    @property
    def origin_poles(self) -> int:
        """Number of poles at s = 0 (trailing zero denominator coefficients)."""
        n = 0
        for c in reversed(self.den):
            if c != 0.0:
                break
            n += 1
        return n

    def transfer(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """G(s) at a scalar or, elementwise, at an array of complex s.

        A scalar s gives a NumPy complex scalar.  Both polynomials are
        evaluated by ``_horner``, with the bits of ``np.polyval``.  Raises
        ``PoleOnAxisError`` naming the first s at which the denominator is
        negligible.
        """
        return self.k * _horner(self.num, s) / _checked_den(self.den, s)

    @cached_property
    def state_space(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Controllable canonical realization (A, B, C, D) with gain folded in."""
        a = np.asarray(self.den, dtype=float) / self.den[0]
        b = np.asarray(self.num, dtype=float) * (self.k / self.den[0])
        n = len(a) - 1
        if n == 0:
            raise PlantError("static plant has no state-space realization")
        b_full = np.zeros(n + 1)
        b_full[n + 1 - len(b):] = b
        d = b_full[0]
        rem = b_full[1:] - d * a[1:]  # remainder of b(s)/a(s), degree < n
        A = np.zeros((n, n))
        A[:-1, 1:] = np.eye(n - 1)
        A[-1, :] = -a[1:][::-1]
        B = np.zeros(n)
        B[-1] = 1.0
        C = rem[::-1].copy()
        return A, B, C, d

    @classmethod
    def from_dict(cls, data: dict) -> "LinearPlant":
        try:
            num = data["num"]
            den = data["den"]
        except (KeyError, TypeError) as exc:
            raise PlantError(
                "plant descriptor must be an object with 'num' and 'den' arrays"
            ) from exc
        if not isinstance(num, (list, tuple)) or not isinstance(den, (list, tuple)):
            raise PlantError("'num' and 'den' must be arrays of numbers")
        k = data.get("k", 1.0)
        # float() takes a string of digits and a bool, which are not JSON numbers
        for v in (*num, *den, k):
            if isinstance(v, (str, bool)):
                raise PlantError(f"'num', 'den' and 'k' must be numbers, not {v!r}")
        return cls(tuple(num), tuple(den), k)

    def to_dict(self) -> dict:
        return {"num": list(self.num), "den": list(self.den), "k": self.k}


def _horner(coeffs: tuple[float, ...], s):
    """``np.polyval(coeffs, s)`` at a float or complex scalar or array s.

    Its operations in its order, ``y = y * s + c`` from zeros, so its bits,
    without its per-call conversions, which outweigh the arithmetic on the
    few points of a refinement step.  Not in place: on one complex element
    NumPy's in-place multiply takes another loop than ``y * s``, which may
    round differently (it need not fuse a multiply and an add), and its
    in-place add is slower there.  A scalar s gives a NumPy scalar, as there.
    """
    s = np.asarray(s)
    y = np.zeros(s.shape, np.result_type(s, 0.0))
    for c in coeffs:
        y = y * s + c
    return y[()]


def _checked_den(den: tuple[float, ...], s):
    """den(s): ``PoleOnAxisError`` where it is negligible against the sum of
    its terms' sizes (a pole), the polynomial of |den|'s coefficients at |s|,
    or where that sum overflows, which leaves no size to compare den(s) with."""
    value = _horner(den, s)
    # the sum is >= 0 or NaN: all of its terms are
    scale = np.maximum(_horner(map(abs, den), np.abs(s)), 1.0)
    # also holds wherever the scale is inf, unless den(s) is nan
    bad = np.abs(value) <= 1e-14 * scale
    if bad.any():
        at, size = np.asarray(s)[bad][0], np.asarray(scale)[bad][0]
        if size == math.inf:
            raise PoleOnAxisError(f"the denominator overflows at s = {at}")
        raise PoleOnAxisError(f"pole at s = {at}")
    return value


def _bits(coeffs: tuple[float, ...]) -> bytes:
    """A memo key for ``coeffs``: their floats' bits, which, unlike the
    tuple's ==, tell 0.0 from -0.0, whose sign can reach G."""
    return struct.pack(f"{len(coeffs)}d", *coeffs)


def _floats(bits: bytes) -> tuple[float, ...]:
    """The coefficients whose ``_bits`` these are."""
    return struct.unpack(f"{len(bits) // 8}d", bits)


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` >= 1 log-spaced points from lo to hi, 0 < lo < hi < inf.

    ``np.logspace`` takes ``10 ** log10(hi)``, which can round past the
    largest float; that end point is hi itself instead of inf.  (Every
    other point is a whole grid step below it.)
    """
    with np.errstate(over="ignore"):
        grid = np.logspace(math.log10(lo), math.log10(hi), n)
    if grid[-1] == math.inf:
        grid[-1] = hi
    return grid


def freq_response(
    plant: LinearPlant, omega: float | np.ndarray
) -> complex | np.ndarray:
    """G(j*omega) at a scalar or an array of frequencies, all > 0.

    Raises ``PoleOnAxisError`` naming the first omega at which G
    overflows.
    """
    ws = np.asarray(omega)
    if np.any(ws <= 0):
        raise ValueError("frequency must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        g = plant.transfer(1j * omega)
    return _finite(g, ws)


def _finite(g, omega: np.ndarray):
    """``g``, G at ``omega``; ``PoleOnAxisError`` naming the first omega at
    which it is not finite."""
    overflow = ~np.isfinite(g)
    if overflow.any():
        raise PoleOnAxisError(
            f"G(j omega) is not finite at omega = {omega[overflow][0]}"
        )
    return g


def _roots(coeffs: list[float], name: str) -> list[complex]:
    """``np.roots``' eigenvalues of the companion matrix of ``coeffs`` (end
    coefficients nonzero) without its per-call conversions; ``PoleOnAxisError``
    where they are not finite, as where dividing by ``coeffs[0]`` overflows."""
    if len(coeffs) < 2:
        return []
    a = np.eye(len(coeffs) - 1, k=-1)
    with np.errstate(all="ignore"):
        a[0] = -np.array(coeffs[1:]) / coeffs[0]
        try:
            r = np.linalg.eigvals(a)
        except np.linalg.LinAlgError:  # an inf or NaN in the companion matrix
            r = np.array([math.nan])
    if not np.isfinite(r).all():
        raise PoleOnAxisError(f"the roots of {name} are not finite")
    return r.tolist()


def _sign_and_step(p: list[float], size: list[float], w: float) -> tuple[int, float]:
    """P's sign at w > 0 (0 where |P(w)| is within its rounding bound) and
    Newton's step P(w) / P'(w); above w = 1 from P(w) / w^m, in powers of
    1/w, so that no power of w overflows."""
    x, terms = (w, zip(reversed(p), reversed(size))) if w <= 1.0 else (1.0 / w, zip(p, size))
    v = dv = bound = 0.0
    for c, a in terms:  # Horner's rule for the polynomial, its derivative and its size
        dv = dv * x + v
        v = v * x + c
        bound = bound * x + a
    bound *= 2.0**-50 * len(p)  # 8 roundings per coefficient of P
    if w > 1.0:  # P'(w) / w^(m-1) = m v - x dv
        v, dv = w * v, (len(p) - 1) * v - x * dv
    return (v > bound) - (v < -bound), v / dv if dv else math.inf


def _newton(p, size, a: float, b: float, sign_a: int, t: float) -> float:
    """A root of P in [a, b], P of sign ``sign_a`` at a and not at b, by
    Newton's method from t, a step out of the bracket going to its geometric
    midpoint; one step past the first t where P has no sign or the step
    leaves t as it is, if in [a, b]."""
    for _ in range(100):  # geometric bisection alone ends within 64 steps
        sign, step = _sign_and_step(p, size, t)
        t_next = t - step
        if sign == 0 or t_next == t:
            return t_next if a < t_next < b else t
        a, b = (t, b) if sign == sign_a else (a, t)
        t_next = t_next if a < t_next < b else math.sqrt(a) * math.sqrt(b)
        if not a < t_next < b:  # a and b are neighbouring floats
            break
        t = t_next
    return t


@lru_cache(maxsize=MEMO_SIZE)
def _gain_free(
    num_bits: bytes, den_bits: bytes, lo: float, hi: float
) -> tuple[tuple[float, ...], tuple[int, ...], tuple[float, ...], tuple[complex, ...],
           tuple]:
    """What ``_crossings`` finds without G's gain k, kept per coefficient set
    and range: the phase crossovers' candidates ``roots``, the real roots of P
    in (lo, hi) at which it changes sign and N(j omega) is not negligible,
    P's sign at each one's left edge, ``ws = (lo, *roots, hi)``, G1 = N / D
    at ws (D by ``_checked_den``), and ``h_of_jw`` at each root, from its D,
    each a tuple of Python numbers.
    P comes from num and den scaled to a largest |coefficient| of 1.
    (lo, hi) is split at the midpoints between the candidates, the real
    parts in it of P's roots with imaginary parts at most 1e-7 of them.  Each
    pair of neighbouring edges where P has opposite signs, past edges where
    it has none, brackets one root (``_newton``); where they agree, as where
    G touches the axis, there is none.  A root where |N(j omega)| is at most
    ``NUM_ZERO`` of the finite sum of its terms' sizes (``_checked_den``'s
    rule, with a tolerance for the root's rounding and no floor at 1) is a
    zero of num on the axis, where G passes through 0 and the sign of Re G
    is rounding: it is dropped, as is a crossing at a zero of num damped by
    about ``NUM_ZERO`` of its frequency or less.  Raises ``PoleOnAxisError``
    where P's roots are not finite or D is refused, on every call: an error
    is not kept."""
    num, den = _floats(num_bits), _floats(den_bits)
    scaled_num, scaled_den = ([c / (max(map(abs, cs)) or 1.0) for c in reversed(cs)]
                              for cs in (num, den))
    p = [0.0] * (len(num) + len(den) - 1)
    size = p.copy()
    for i, a in enumerate(scaled_num):
        for m, b in enumerate(scaled_den):
            s = (0.0, 1.0, 0.0, -1.0)[(i - m) % 4]  # Im j^i conj(j^m)
            p[i + m] += s * a * b
            size[i + m] += abs(s * a * b)
    # divided by the largest power of omega that divides P; [] where P = 0
    nonzero = [e for e, c in enumerate(p) if c != 0.0] or [0, -1]
    p, size = p[nonzero[0]:nonzero[-1] + 1], size[nonzero[0]:nonzero[-1] + 1]
    # _roots divides by the leading coefficient: those below 2^-1022 of the
    # largest are left out, though a root they add still changes P's sign
    top = max(map(abs, p), default=0.0)
    lead = max((e for e, c in enumerate(p) if abs(c) >= 2.0**-1022 * top), default=-1)
    r = _roots(p[lead::-1], "the crossover polynomial")
    candidates = sorted(z.real for z in r if abs(z.imag) <= 1e-7 * z.real and lo < z.real < hi)
    edges = [lo] + [0.5 * u + 0.5 * v for u, v in zip(candidates, candidates[1:])] + [hi]
    signs = [_sign_and_step(p, size, e)[0] for e in edges]
    roots, left_signs, left = [], [], None
    for i, sign in enumerate(signs):
        if sign and left is not None and sign != signs[left]:
            t = candidates[left] if candidates else math.sqrt(lo) * math.sqrt(hi)  # no candidate
            roots.append(_newton(p, size, edges[left], edges[i], signs[left], t))
            left_signs.append(signs[left])
        left = i if sign else left
    ws = np.array([lo, *roots, hi])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n = _horner(num, 1j * ws)
        d = _checked_den(den, 1j * ws)
        g1 = n / d
    keep = [i for i, (w, v) in enumerate(zip(roots, n[1:-1].tolist()))
            if not abs(v) <= NUM_ZERO * _size(num, w) < math.inf]
    if len(keep) < len(roots):
        at = [0, *(i + 1 for i in keep), len(ws) - 1]
        roots, left_signs = [roots[i] for i in keep], [left_signs[i] for i in keep]
        ws, g1, d = ws[at], g1[at], d[at]
    with np.errstate(over="ignore", invalid="ignore"):
        hs = tuple(tuple(_resolvent(den, 1j * w, v).tolist()) for w, v in zip(roots, d[1:-1]))
    return tuple(roots), tuple(left_signs), tuple(ws.tolist()), tuple(g1.tolist()), hs


def _size(coeffs: tuple[float, ...], w: float) -> float:
    """The sum of the sizes of the terms of ``coeffs``' polynomial at j w, w > 0."""
    size = 0.0
    for c in coeffs:
        size = size * w + abs(c)
    return size


def _crossings(
    plant: LinearPlant, den_bits: bytes, lo: float, hi: float
) -> tuple[list[list], list[tuple], complex, float, complex]:
    """``[omega, gain margin, direction]`` rows of the phase crossovers in
    (lo, hi), ``h_of_jw`` at each as a tuple, G and |G| at lo, and G at hi;
    ``den_bits`` is ``_bits(plant.den)``, which the caller packs once.
    The gain enters last: G = k G1 from ``_gain_free``'s G1, each part one
    Python float product, so the crossovers, ``_gain_free``'s roots of P at
    which Re G < 0, do not move with k's size, and the gain margin 1/|G|
    scales as 1/|k|.  |G| is ``math.hypot``, which gives inf where |G|
    overflows (``abs`` of a complex raises there); at a crossover
    |G| >= |Re G| > 0.  The direction is Im G's sign at the root's left edge,
    +1 where Im G falls through 0.  Raises ``PoleOnAxisError`` as
    ``_gain_free`` and ``phase_crossovers`` say, naming the first omega at
    which G is not finite."""
    roots, left_signs, ws, g1, hs = _gain_free(_bits(plant.num), den_bits, lo, hi)
    k, g = plant.k, []
    for w, z in zip(ws, g1):
        x, y = k * z.real, k * z.imag
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PoleOnAxisError(f"G(j omega) is not finite at omega = {w}")
        g.append(complex(x, y))
    sign = math.copysign(1.0, k)  # Im G = k P / |D|^2
    rows, kept = [], []
    for w, z, left, h in zip(roots, g[1:-1], left_signs, hs):
        if z.real < 0:
            km = 1.0 / math.hypot(z.real, z.imag)
            if not 0.0 < km < math.inf:
                raise PoleOnAxisError(f"the gain margin 1/|G| is {km} at omega = {w}")
            rows.append([w, km, sign * left])
            kept.append(h)
    return rows, kept, g[0], math.hypot(g[0].real, g[0].imag), g[-1]


def phase_crossovers(
    plant: LinearPlant, omega_range: tuple[float, float] = OMEGA_RANGE
) -> list[tuple[float, float]]:
    """Negative-real-axis crossings of G(j*omega) as (omega, gain margin):
    ``_crossings`` in ``omega_range``, on ``OMEGA_RANGE`` ``analyze``'s
    crossovers bit for bit.  Raises ``PoleOnAxisError`` naming the first
    crossing or end of the range at which G has a pole or is not finite, or
    the first crossing whose gain margin 1/|G| overflows or underflows to 0,
    and ``ValueError`` unless 0 < omega_min < omega_max < inf."""
    lo, hi = omega_range
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"omega_range must satisfy 0 < lo < hi < inf, got {omega_range}")
    return [(w, km) for w, km, _ in _crossings(plant, _bits(plant.den), lo, hi)[0]]


def _negligible_den(den: tuple[float, ...], omega: float) -> bool:
    """Whether ``_checked_den`` refuses j omega: den is negligible there, or
    the sum of its terms' sizes overflows."""
    try:
        _checked_den(den, 1j * omega)
    except PoleOnAxisError:
        return True
    return False


@lru_cache(maxsize=MEMO_SIZE)
def _axis_poles(den_bits: bytes) -> None:
    """``PoleOnAxisError`` for a root r of den, the poles at the origin left
    out, on the imaginary axis as ``nyquist_contour`` says, or for roots that
    are not finite, on every call: only a den that passes is kept."""
    den = _floats(den_bits)
    q = next(i for i, c in enumerate(reversed(den)) if c != 0.0)  # den[0] != 0
    r = _roots(den[:len(den) - q], "the denominator")
    on_axis = [z.imag for z in r if z.imag > 0 and (
        abs(z.real) <= 1e-9 * z.imag
        # np.roots moves a double root about 1e-8 off the axis
        or (abs(z.real) <= 1e-7 * z.imag and _negligible_den(den, z.imag)))]
    if on_axis:
        raise PoleOnAxisError(f"pole at s = {min(on_axis):.7g}j")


def _contour(plant: LinearPlant) -> tuple[list[list], list[tuple[float, float]], list[tuple]]:
    """``_crossings``' rows on ``OMEGA_RANGE``, ``nyquist_contour``'s table
    as a list of ``(abscissa, count)`` rows, and ``h_of_jw`` at each row's
    omega as a tuple of complex numbers."""
    den_bits = _bits(plant.den)
    _axis_poles(den_bits)
    rows, hs, g_lo, size_lo, g_hi = _crossings(plant, den_bits, *OMEGA_RANGE)
    table = [(-1.0 / km, 2.0 * d) for _, km, d in rows]
    q = plant.origin_poles
    if q > 0:
        radius = 10.0 * size_lo
        if radius == math.inf:
            raise PoleOnAxisError("the Nyquist contour is not finite: its arc's radius overflows")
        table.append((-radius, -float((q + (g_lo.imag > 0)) // 2)))
    if g_hi.imag != 0.0:
        table.append((g_hi.real, 1.0 if g_hi.imag > 0 else -1.0))
    if q % 2 == 0 and g_lo.imag != 0.0:
        table.append(((20.0 / 11.0 if q else 1.0) * g_lo.real, 1.0 if g_lo.imag < 0 else -1.0))
    table = sorted((row for row in table if row[0] < 0.0 and row[1] != 0.0), key=itemgetter(0))
    return rows, table, hs


def nyquist_contour(plant: LinearPlant) -> np.ndarray:
    """The closed Nyquist contour's crossings of the negative real axis.

    Sorted rows ``[abscissa, signed count]``, +1 where the contour runs down,
    so it winds about a real p < 0 ``table[table[:, 0] < p, 1].sum()`` times;
    rows at an abscissa >= 0 or with a count of 0 are left out.  The contour
    is G(j omega) over ``OMEGA_RANGE``, its mirror, the segment joining them
    at omega_max, and for q poles at the origin a clockwise arc of q pi from
    10 conj(G(j omega_min)) (the indentation image); a chord closes it at
    G(j omega_min).  With G = x + j y at a range end, the rows are closed
    forms of plane geometry, with no angle taken:

    - each phase crossover at -1/K, twice (branch and mirror) in its
      direction;
    - the arc at -10 |G|: clockwise, it runs up through angle pi, which a
      turn of q pi passes (q + 1) // 2 times from below the axis (y > 0 at
      omega_min), else q // 2 times;
    - the segment at omega_max, from x + j y to x - j y: at x where y != 0,
      +1 where y > 0;
    - the chord from the arc's end (-1)^q 10 (x - j y) to x + j y: for odd
      q both ends lie on one side of the axis; for even q it crosses where
      y != 0, at the fraction c / (c + 1) of its length, c = 10 (q >= 2) or
      1 (q = 0, no arc), so at 2 c x / (c + 1): (20/11) x or x, +1 where y < 0.

    Raises ``PoleOnAxisError`` for any other pole r on the imaginary axis
    (``|Re r| <= 1e-9 Im r``, or ``<= 1e-7 Im r`` where the denominator is
    negligible at j Im r, as at a double pole), in ``OMEGA_RANGE`` or not,
    for an arc whose radius overflows, where the denominator's roots are
    not finite, and as ``phase_crossovers`` does.
    """
    return np.array(_contour(plant)[1], dtype=float).reshape(-1, 2)


def h_of_jw(plant: LinearPlant, omega: float) -> np.ndarray:
    """State resolvent ``(j*omega*I - A)^(-1) B`` of the realization.

    In controllable canonical form it is ``[1, s, ..., s^(n-1)] den[0] / den(s)``
    at s = j omega (Kailath, *Linear Systems*, 1980).
    """
    s = 1j * omega
    return _resolvent(plant.den, s, _checked_den(plant.den, s))


def _resolvent(den: tuple[float, ...], s: complex, den_s) -> np.ndarray:
    """``h_of_jw``'s resolvent at s from den(s) = ``den_s``."""
    return s ** np.arange(len(den) - 1) * (den[0] / den_s)
