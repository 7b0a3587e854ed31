"""Rational plant G(s): frequency response, phase crossovers, the Nyquist
contour's crossing table, realization.

The plant is stored as numerator/denominator polynomial coefficients plus a
scalar gain.  A controllable canonical state-space realization is derived for
the steady-state geometry and the time simulator.  The contour's scan keeps
the gain-free half of G on its fixed grid, num and den there and the check
for poles on the imaginary axis, per coefficient set, so a sweep over gains
evaluates them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Frequency interval of the crossover scan, which also bounds the Nyquist
# contour: its arc and its two straight segments sit at the interval's ends.
OMEGA_RANGE = (1e-3, 1e3)
# Log-grid points of the crossover scan, and the cap on refinement steps per
# bracket of both root scans (Im G = 0 over omega here, F(X) = K in ``cycles``).
N_SCAN = 4000
MAX_ITER = 200
# Coefficient sets whose grid terms the contour's scan keeps, 128 KB each.
GRID_MEMO_SIZE = 16


class PlantError(ValueError):
    """Raised when plant coefficients are unusable."""


class PoleOnAxisError(ValueError):
    """G has a pole where it is sampled, or on the imaginary axis away from the
    origin, or G or the gain margin 1/|G| is not finite at the frequency, or
    the Nyquist contour's indentation arc overflows, or the denominator of G
    overflows where it is sampled."""


@dataclass(frozen=True)
class LinearPlant:
    """Proper rational transfer function ``G(s) = k * num(s) / den(s)``.

    Coefficients are in descending powers of s.  The gain multiplier ``k``
    is kept separate so gain sweeps reuse one coefficient set: plants with
    equal ``num`` and ``den`` share the contour scan's grid terms.
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
        return self.k * _horner(self.num, s) / self._den_at(s)

    @cached_property
    def _abs_den(self) -> tuple[float, ...]:
        """|den|'s coefficients, whose polynomial at |s| bounds |den(s)|."""
        return tuple(abs(c) for c in self.den)

    def _den_at(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """den(s), checked: ``PoleOnAxisError`` where it is negligible against
        the sum of its terms' sizes (a pole), or where that sum overflows, which
        leaves no size to compare den(s) with."""
        den = _horner(self.den, s)
        # the sum is >= 0 or NaN: all of its terms are
        scale = np.maximum(_horner(self._abs_den, np.abs(s)), 1.0)
        # also holds wherever the scale is inf, unless den(s) is nan
        bad = np.abs(den) <= 1e-14 * scale
        if bad.any():
            at, size = np.asarray(s)[bad][0], np.asarray(scale)[bad][0]
            if size == math.inf:
                raise PoleOnAxisError(f"the denominator overflows at s = {at}")
            raise PoleOnAxisError(f"pole at s = {at}")
        return den

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


# The crossover scan's grid over OMEGA_RANGE, which no plant changes.
_SCAN_GRID = log_grid(*OMEGA_RANGE, N_SCAN)
_SCAN_GRID.flags.writeable = False


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


def _brackets(v: np.ndarray) -> np.ndarray:
    """Left ends i of the sign changes: ``v[i] != 0 and v[i] * v[i+1] <= 0``.

    The product is taken of the signs, so that it cannot overflow or
    underflow to 0.
    """
    s = np.sign(v)
    return np.nonzero((s[:-1] != 0.0) & (s[:-1] * s[1:] <= 0.0))[0]


def _refine_sign_changes(f, grid, vals, sign, done):
    """Refine every bracket of ``sign(vals)``, ``vals = f(grid)``, at once.

    Each step is the Illinois variant of false position (Dowell & Jarratt,
    *BIT* 11, 1971): the secant point through the ends' stored values, where
    the stored value of an end kept on two steps in a row is halved.  Where
    that point is not strictly inside the bracket (a 0 value at an end, an
    overflow, a NaN, equal stored values), the step is the midpoint.  The
    side kept comes from the unscaled value ``sa``, since halving can
    underflow to 0.  A bracket freezes at the first point whose value meets
    ``done``, or after ``MAX_ITER`` steps.  Returns the last trial points,
    their values and ``sign`` at each bracket's left end, in grid order.

    A step makes one array call of ``f`` on all live trial points, then one
    of ``sign`` and one of ``done`` on its values.  Each bracket's ends,
    stored values and state are Python floats: a float operation rounds as
    the same NumPy operation on float64 does, so the points, values and
    roots have the bits of an elementwise array form.  Only a division by
    0, where that form gives inf or NaN and takes the midpoint, would raise
    here; it takes the midpoint directly.
    """
    v = sign(vals)
    i = _brackets(v)
    x, fx = grid[i].tolist(), vals[i].tolist()  # each bracket takes a step
    # [index, a, b, sa, fa, fb, kept]: a < b throughout; kept is +1 where a
    # was kept on the last step, -1 where b was
    live = [
        [j, a, b, sa, sa, fb, 0.0]
        for j, (a, b, sa, fb) in enumerate(
            zip(grid[i].tolist(), grid[i + 1].tolist(), v[i].tolist(), v[i + 1].tolist())
        )
    ]
    for _ in range(MAX_ITER):
        if not live:
            break
        t = []
        for _, a, b, _, fa, fb, _ in live:
            d = fb - fa
            tk = b - fb * (b - a) / d if d != 0.0 else math.nan
            t.append(tk if a < tk < b else 0.5 * a + 0.5 * b)  # a + b can overflow
        ft = f(np.array(t))
        st, stop = sign(ft).tolist(), done(ft).tolist()
        following = []
        for bracket, tk, fk, s, halt in zip(live, t, ft.tolist(), st, stop):
            j, a, b, sa, fa, fb, kept = bracket
            x[j], fx[j] = tk, fk
            if halt:
                continue
            if (s > 0) == (sa > 0):  # t replaces a, b is kept
                bracket[1:] = tk, b, s, s, 0.5 * fb if kept == -1.0 else fb, -1.0
            else:
                bracket[2:] = tk, sa, 0.5 * fa if kept == 1.0 else fa, s, 1.0
            following.append(bracket)
        live = following
    return np.array(x, dtype=grid.dtype), np.array(fx, dtype=vals.dtype), v[i]


def _scan(plant: LinearPlant, ws: np.ndarray, g_grid: np.ndarray) -> list[list]:
    """``phase_crossovers``' search on the ascending positive grid ``ws``,
    where G is ``g_grid``, as ``[omega, gain margin, direction]`` rows.

    A crossing's direction is the sign of Im G at its bracket's left end, +1
    where Im G falls through 0.  Brackets that refine to one omega give one
    row, whose direction is their sum (0 at a tangency).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        omegas, g, im_left = _refine_sign_changes(
            lambda w: plant.transfer(1j * w),
            ws,
            g_grid,
            np.imag,
            lambda g: np.abs(g.imag) <= 1e-12 * np.abs(g),
        )
    neg = _finite(g, omegas).real < 0
    omegas = omegas[neg]
    with np.errstate(over="ignore", divide="ignore"):
        margins = 1.0 / np.abs(g[neg])
    bad = ~(np.isfinite(margins) & (margins > 0.0))
    if bad.any():
        raise PoleOnAxisError(
            f"the gain margin 1/|G| is {margins[bad][0]} at omega = {omegas[bad][0]}"
        )
    rows: list[list] = []
    for w, km, d in zip(omegas.tolist(), margins.tolist(), np.sign(im_left[neg]).tolist()):
        if rows and abs(w - rows[-1][0]) <= 1e-9 * w:
            rows[-1][2] += d
        else:
            rows.append([w, km, d])
    return rows


def phase_crossovers(
    plant: LinearPlant,
    omega_range: tuple[float, float] = OMEGA_RANGE,
) -> list[tuple[float, float]]:
    """Negative-real-axis crossings of G(j*omega) as (omega, gain margin).

    Im G is sampled on a log grid, and a bracket opens wherever
    ``Im G_i != 0`` and ``Im G_i * Im G_i+1 <= 0``.  All brackets are
    refined together by ``_refine_sign_changes`` until
    ``|Im G| <= 1e-12 * |G|``; crossings with Re G >= 0 are discarded.
    Raises ``PoleOnAxisError`` naming the first scanned or refined omega
    at which G overflows, or the first crossing whose gain margin 1/|G|
    overflows or underflows to 0, and ``ValueError`` unless
    0 < omega_min < omega_max < inf.
    """
    lo, hi = omega_range
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"omega_range must satisfy 0 < lo < hi < inf, got {omega_range}")
    ws = log_grid(lo, hi, N_SCAN)
    return [(w, km) for w, km, _ in _scan(plant, ws, freq_response(plant, ws))]


@lru_cache(maxsize=GRID_MEMO_SIZE)
def _grid_terms(
    num: tuple[float, ...], den: tuple[float, ...], signs: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """num and den at j ``_SCAN_GRID``, read-only, as ``transfer`` evaluates
    them, after ``nyquist_contour``'s check for poles on the imaginary axis.

    ``signs``, the coefficients' signs, only completes the key: ``-0.0 ==
    0.0``, but a zero's sign can move a bit of num or den.  Raises as that
    check and ``transfer`` do; an error is not kept.
    """
    r = np.roots(den)
    on_axis = r.imag[(r.imag > 0) & (np.abs(r.real) <= 1e-9 * np.abs(r))]
    if on_axis.size:
        raise PoleOnAxisError(f"pole at s = {on_axis.min():.7g}j")
    s = 1j * _SCAN_GRID
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _horner(num, s), LinearPlant(num, den)._den_at(s)
    for a in terms:
        a.flags.writeable = False
    return terms


def _contour(plant: LinearPlant) -> tuple[list[list], np.ndarray]:
    """``_scan``'s rows on ``_SCAN_GRID`` and the table of ``nyquist_contour``.

    G there is ``k * num / den`` from ``_grid_terms``, kept per coefficient
    set, with the bits and errors of ``freq_response``.
    """
    signs = tuple(math.copysign(1.0, c) for c in plant.num + plant.den)
    num, den = _grid_terms(plant.num, plant.den, signs)
    with np.errstate(over="ignore", invalid="ignore"):
        g_grid = _finite(plant.k * num / den, _SCAN_GRID)
    rows = _scan(plant, _SCAN_GRID, g_grid)
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
        # turning clockwise through q pi from theta0, it passes angle pi
        # upwards (q + 1) // 2 times if it starts below the axis, else q // 2
        table.append((-radius, -float((q + (g_lo.imag > 0)) // 2)))
        end = radius * np.exp(1j * (theta0 - q * math.pi))
    # straight segments a -> b, counted as a polygon edge: Im <= 0 is below
    for a, b in ((g_hi, np.conj(g_hi)), (end, g_lo)):
        if (a.imag > 0) != (b.imag > 0):
            t = 0.5 * a.imag / (0.5 * a.imag - 0.5 * b.imag)  # halves cannot overflow
            table.append(((1.0 - t) * a.real + t * b.real, 1.0 if a.imag > 0 else -1.0))
    table = np.array(table, dtype=float).reshape(-1, 2)
    table = table[(table[:, 0] < 0.0) & (table[:, 1] != 0.0)]
    return rows, table[np.argsort(table[:, 0], kind="stable")]


def nyquist_contour(plant: LinearPlant) -> np.ndarray:
    """The closed Nyquist contour's crossings of the negative real axis.

    Sorted rows ``[abscissa, signed count]``, +1 where the contour runs down,
    so it winds about a real p < 0 ``table[table[:, 0] < p, 1].sum()`` times.
    The contour is G(j omega) over ``OMEGA_RANGE``, its mirror, the segment
    joining them at omega_max, and for q poles at the origin a clockwise arc
    of q pi at ten times |G(j omega_min)| (the indentation image); a chord
    closes it at G(j omega_min).  Rows: each phase crossover at -1/K, counted
    twice (branch and mirror) in its direction; each pass of the arc through
    angle pi, -1; each straight segment that crosses.  Raises
    ``PoleOnAxisError`` for any other pole r on the imaginary axis
    (``|Re r| <= 1e-9 |r|``), sampled or not, for an arc that overflows, and
    as ``phase_crossovers`` does.  That pole check and num and den on the
    scan's grid are kept for the last ``GRID_MEMO_SIZE`` coefficient sets,
    so across a sweep of ``k`` only G = k num / den and its refinement are
    computed again.
    """
    return _contour(plant)[1]


def h_of_jw(plant: LinearPlant, omega: float) -> np.ndarray:
    """State resolvent ``(j*omega*I - A)^(-1) B`` of the realization.

    In controllable canonical form it is ``[1, s, ..., s^(n-1)] den[0] / den(s)``
    at s = j omega (Kailath, *Linear Systems*, 1980).
    """
    s = 1j * omega
    return s ** np.arange(plant.order) * (plant.den[0] / plant._den_at(s))
