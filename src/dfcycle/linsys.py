"""Rational plant G(s): frequency response, phase crossovers, realization.

The plant is stored as numerator/denominator polynomial coefficients plus a
scalar gain.  A controllable canonical state-space realization is derived for
the steady-state geometry and the time simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Frequency interval of the crossover scan and of the Nyquist contour.
OMEGA_RANGE = (1e-3, 1e3)
# Log-grid points of the crossover scan, and bisection steps per bracket of
# both root scans (Im G = 0 over omega here, F(X) = K in ``cycles``).
N_SCAN = 4000
MAX_ITER = 200


class PlantError(ValueError):
    """Raised when plant coefficients are unusable."""


class PoleOnAxisError(ValueError):
    """Frequency response requested at (or numerically on) an imaginary pole."""


class SingularFrequencyError(ValueError):
    """State-space resolvent is singular, or G is not finite, at the frequency."""


@dataclass(frozen=True)
class LinearPlant:
    """Proper rational transfer function ``G(s) = k * num(s) / den(s)``.

    Coefficients are in descending powers of s.  The gain multiplier ``k``
    is kept separate so gain sweeps reuse one coefficient set.
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

    def with_gain(self, k: float) -> "LinearPlant":
        return LinearPlant(self.num, self.den, k)

    def transfer(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """G(s) at a scalar or, elementwise, at an array of complex s.

        A scalar s gives a NumPy complex scalar.  Raises ``PoleOnAxisError``
        naming the first s at which the denominator is negligible.
        """
        num = np.polyval(self.num, s)
        den = np.polyval(self.den, s)
        scale = np.maximum(np.abs(np.polyval(np.abs(self.den), np.abs(s))), 1.0)
        on_pole = np.abs(den) <= 1e-14 * scale
        if on_pole.any():
            raise PoleOnAxisError(f"pole at s = {np.asarray(s)[on_pole][0]}")
        return self.k * num / den

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
        if not isinstance(num, Sequence) or not isinstance(den, Sequence):
            raise PlantError("'num' and 'den' must be arrays of numbers")
        return cls(tuple(num), tuple(den), float(data.get("k", 1.0)))

    @classmethod
    def from_json(cls, text: str) -> "LinearPlant":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlantError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {"num": list(self.num), "den": list(self.den), "k": self.k}


def freq_response(
    plant: LinearPlant, omega: float | np.ndarray
) -> complex | np.ndarray:
    """G(j*omega) at a scalar or an array of frequencies, all > 0.

    Raises ``SingularFrequencyError`` naming the first omega at which G
    overflows.
    """
    ws = np.asarray(omega)
    if np.any(ws <= 0):
        raise ValueError("frequency must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        g = plant.transfer(1j * omega)
    overflow = ~np.isfinite(g)
    if overflow.any():
        raise SingularFrequencyError(
            f"G(j omega) is not finite at omega = {ws[overflow][0]}"
        )
    return g


def _brackets(v: np.ndarray) -> np.ndarray:
    """Left ends i of the sign changes: ``v[i] != 0 and v[i] * v[i+1] <= 0``."""
    return np.nonzero((v[:-1] != 0.0) & (v[:-1] * v[1:] <= 0.0))[0]


def _bisect_sign_changes(f, grid, vals, sign, done):
    """Bisect every bracket of ``sign(vals)``, ``vals = f(grid)``, at once.

    ``f`` takes the array of all live midpoints.  A bracket freezes at the
    first midpoint whose value meets ``done``, or after ``MAX_ITER``
    halvings.  Returns the final midpoints and their values, in grid order.
    """
    v = sign(vals)
    i = _brackets(v)
    a, b, sa = grid[i], grid[i + 1], v[i]
    x, fx = grid[i], vals[i]
    live = np.arange(len(i))
    for _ in range(MAX_ITER):
        if not live.size:
            break
        mid = 0.5 * (a + b)
        fm = f(mid)
        x[live], fx[live] = mid, fm
        sm = sign(fm)
        left = (sm > 0) == (sa > 0)
        a, sa, b = np.where(left, mid, a), np.where(left, sm, sa), np.where(left, b, mid)
        go = ~done(fm)
        live, a, b, sa = live[go], a[go], b[go], sa[go]
    return x, fx


def phase_crossovers(
    plant: LinearPlant,
    omega_range: tuple[float, float] = OMEGA_RANGE,
) -> list[tuple[float, float]]:
    """Negative-real-axis crossings of G(j*omega) as (omega, gain margin).

    Im G is sampled on a log grid, and a bracket opens wherever
    ``Im G_i != 0`` and ``Im G_i * Im G_i+1 <= 0``.  All brackets are
    bisected together until ``|Im G| <= 1e-12 * |G|``; crossings with
    Re G >= 0 are discarded.  Raises ``SingularFrequencyError`` naming the
    first scanned omega at which G overflows.
    """
    lo, hi = omega_range
    if not (0 < lo < hi):
        raise ValueError("omega_range must be a positive increasing interval")
    ws = np.logspace(math.log10(lo), math.log10(hi), N_SCAN)
    mids, g = _bisect_sign_changes(
        lambda w: plant.transfer(1j * w),
        ws,
        freq_response(plant, ws),
        np.imag,
        lambda g: np.abs(g.imag) <= 1e-12 * np.abs(g),
    )
    neg = g.real < 0
    # collapse brackets that refined to the same crossing
    dedup: list[tuple[float, float]] = []
    for w, km in zip(mids[neg].tolist(), (1.0 / np.abs(g[neg])).tolist()):
        if not dedup or abs(w - dedup[-1][0]) > 1e-9 * w:
            dedup.append((w, km))
    return dedup


def nyquist_contour(plant: LinearPlant, n: int = 8192) -> np.ndarray:
    """Closed Nyquist polygon of G for winding-number enclosure tests.

    The positive-frequency branch, ``n`` log-spaced samples over
    ``OMEGA_RANGE``, is mirrored by conjugation; a pole of G at the origin
    opens the contour, which is closed with a large clockwise arc of pi
    radians per origin pole at ten times the innermost sample radius (the
    standard indentation image).
    """
    lo, hi = OMEGA_RANGE
    ws = np.logspace(math.log10(lo), math.log10(hi), n)
    g = plant.transfer(1j * ws)
    parts = [g, np.conj(g)[::-1]]
    q = plant.origin_poles
    if q > 0:
        start = np.conj(g[0])
        theta0 = np.angle(start)
        radius = 10.0 * abs(g[0])
        sweep = theta0 - np.linspace(0.0, q * math.pi, 64 * q + 1)
        parts.append(radius * np.exp(1j * sweep))
    contour = np.concatenate(parts)
    return np.append(contour, contour[0])


def h_of_jw(plant: LinearPlant, omega: float) -> np.ndarray:
    """State resolvent ``(j*omega*I - A)^(-1) B`` of the realization."""
    A, B, _, _ = plant.state_space
    M = 1j * omega * np.eye(len(B)) - A
    try:
        h = np.linalg.solve(M, B.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularFrequencyError(
            f"omega = {omega} is an eigenvalue frequency of the realization"
        ) from exc
    return h
