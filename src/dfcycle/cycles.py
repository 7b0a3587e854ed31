"""Limit cycle estimation: solve F(X) G(jw) = -1 and classify the solutions.

Each negative-real-axis crossing of G contributes a gain margin K; amplitudes
solving F(X) = K are candidate limit cycles.  Stability is decided by probing
whether -1/F just beyond the candidate amplitude leaves the closed Nyquist
contour while -1/F just below stays enclosed.  The steady-state orbit in
state space is estimated as an ellipse spanned by two basis vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descfun import DescribingFunctionCurve, df_value
from .linsys import LinearPlant, h_of_jw, nyquist_contour, phase_crossovers
from .piecewise import PiecewiseNonlinearity

STABLE = "stable"
UNSTABLE = "unstable"

# Log-grid points of the F(X) = K scan, the |F - K| that ends a bisection,
# and bisection steps per bracket.
N_GRID = 4096
VALUE_TOL = 1e-10
MAX_ITER = 200
# Relative offset of the two stability probes from the cycle amplitude.
DELTA = 1e-3


class AmbiguousStabilityError(RuntimeError):
    """Both amplitude probes gave the same enclosure verdict."""

    def __init__(self, X, omega, enclosed_below, enclosed_above):
        super().__init__(
            f"cannot classify cycle at X={X}, omega={omega}: "
            f"probe below enclosed={enclosed_below}, above enclosed={enclosed_above}"
        )
        self.X = X
        self.omega = omega
        self.enclosed_below = enclosed_below
        self.enclosed_above = enclosed_above


@dataclass(frozen=True)
class LimitCycleEstimate:
    """One predicted limit cycle and its steady-state state-space ellipse."""

    omega: float
    X: float
    stability: str
    gain_margin: float
    Y1: float
    ellipse_x0: tuple[float, ...]
    ellipse_xq: tuple[float, ...]

    def ellipse_point(self, t: float) -> np.ndarray:
        """Parametric steady-state estimate sin(wt)*x(0) + cos(wt)*x(pi/2w)."""
        return math.sin(self.omega * t) * np.asarray(self.ellipse_x0) + math.cos(
            self.omega * t
        ) * np.asarray(self.ellipse_xq)


@dataclass(frozen=True)
class CrossoverAnalysis:
    """Everything derived from one phase crossover of the plant."""

    omega: float
    gain_margin: float
    cycles: tuple[LimitCycleEstimate, ...] = field(default_factory=tuple)


def winding_number(contour: np.ndarray, point: complex) -> int:
    """Signed winding number of a closed polygonal contour around a point."""
    v = np.asarray(contour) - point
    x0, y0 = v.real[:-1], v.imag[:-1]
    x1, y1 = v.real[1:], v.imag[1:]
    # orientation of each edge against the horizontal ray from the origin
    cross = x0 * y1 - x1 * y0
    up = (y0 <= 0.0) & (y1 > 0.0) & (cross > 0.0)
    down = (y0 > 0.0) & (y1 <= 0.0) & (cross < 0.0)
    return int(np.sum(up)) - int(np.sum(down))


def _scan_roots(f, grid):
    vals = f(grid)
    roots = []
    for i in range(len(grid) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(grid[i])
            continue
        if fa * fb >= 0.0:
            continue
        a, b = grid[i], grid[i + 1]
        mid = a
        for _ in range(MAX_ITER):
            mid = 0.5 * (a + b)
            fm = float(f(mid))
            if abs(fm) <= VALUE_TOL:
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(mid)
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    return roots


def find_intersections(
    source: PiecewiseNonlinearity | DescribingFunctionCurve,
    gain_margin: float,
    *,
    x_max: float | None = None,
) -> list[float]:
    """All amplitudes with F(X) = gain_margin, ascending.

    With a nonlinearity the exact describing function is scanned on a dense
    log grid up to ``x_max`` (default 100x the last breakpoint) and each sign
    change is bisected down to ``|F - K| <= VALUE_TOL``.  With a sampled
    curve, crossings are located by linear interpolation between samples
    (amplitude accuracy limited by the sampling; counts are exact wherever
    the grid resolves the curve's rises and falls).
    """
    if gain_margin <= 0:
        raise ValueError("gain margin must be positive")

    if isinstance(source, DescribingFunctionCurve):
        X, F = source.X, source.F - gain_margin
        roots = []
        for i in range(len(X) - 1):
            if F[i] == 0.0:
                roots.append(float(X[i]))
            elif F[i] * F[i + 1] < 0.0:
                roots.append(float(X[i] - F[i] * (X[i + 1] - X[i]) / (F[i + 1] - F[i])))
        if len(F) and F[-1] == 0.0:
            roots.append(float(X[-1]))
    else:
        nl = source
        if x_max is None:
            ref = nl.max_breakpoint
            x_max = 100.0 * ref if ref > 0 else 100.0
        lo = x_max * 1e-7
        grid = np.logspace(math.log10(lo), math.log10(x_max), N_GRID)

        def f(x):
            return df_value(nl, x) - gain_margin

        roots = _scan_roots(f, grid)

    dedup: list[float] = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 1e-6 * max(abs(r), 1e-300):
            dedup.append(r)
    return dedup


def classify(
    plant: LinearPlant,
    nl: PiecewiseNonlinearity,
    X: float,
    omega: float,
    *,
    contour: np.ndarray | None = None,
) -> str:
    """Stable/unstable verdict for a candidate cycle amplitude.

    Probes -1/F at X*(1 +/- DELTA): the cycle is stable when the outward
    probe escapes the closed Nyquist contour while the inward probe remains
    enclosed, and unstable in the mirrored case.
    """
    if contour is None:
        contour = nyquist_contour(plant)
    probes = {}
    for tag, xs in (("below", X * (1.0 - DELTA)), ("above", X * (1.0 + DELTA))):
        F = df_value(nl, xs)
        if F <= 0:
            raise AmbiguousStabilityError(X, omega, None, None)
        probes[tag] = winding_number(contour, -1.0 / F) != 0
    if probes["below"] and not probes["above"]:
        return STABLE
    if probes["above"] and not probes["below"]:
        return UNSTABLE
    raise AmbiguousStabilityError(X, omega, probes["below"], probes["above"])


def ellipse_estimate(
    plant: LinearPlant, omega: float, Y1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Basis vectors x(0) and x(pi/2w) of the steady-state state ellipse.

    Componentwise the steady state is ``A(w) sin(wt + ph)`` with amplitude
    ``A = Y1 |H(jw)|`` and phase ``ph = arg H(jw)``; the two returned
    vectors are ``A sin(ph)`` and ``A cos(ph)``.
    """
    h = h_of_jw(plant, omega)
    amp = Y1 * np.abs(h)
    ph = np.angle(h)
    return amp * np.sin(ph), amp * np.cos(ph)


def analyze(plant: LinearPlant, nl: PiecewiseNonlinearity) -> list[CrossoverAnalysis]:
    """Full limit-cycle estimation for every phase crossover of the plant."""
    results = []
    crossovers = phase_crossovers(plant)  # rejects an overflowing G first
    contour = nyquist_contour(plant)
    for omega, K in crossovers:
        cycles = []
        for X in find_intersections(nl, K):
            stability = classify(plant, nl, X, omega, contour=contour)
            Y1 = df_value(nl, X) * X
            x0, xq = ellipse_estimate(plant, omega, Y1)
            cycles.append(
                LimitCycleEstimate(
                    omega=omega,
                    X=X,
                    stability=stability,
                    gain_margin=K,
                    Y1=Y1,
                    ellipse_x0=tuple(float(v) for v in x0),
                    ellipse_xq=tuple(float(v) for v in xq),
                )
            )
        results.append(CrossoverAnalysis(omega=omega, gain_margin=K, cycles=tuple(cycles)))
    return results
