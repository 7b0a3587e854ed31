"""Exact describing function of piecewise-linear nonlinearities.

Closed forms are built from two primitives: the dead-zone factor ``phi`` and
the relay factor ``psi``.  The full curve is the superposition of one term per
slope change and per jump of the nonlinearity.  ``df_oracle`` recomputes the
same value by quadrature of the first Fourier harmonic and serves as an
independent cross-check of the closed forms: it splits the period where
X sin t meets a breakpoint and integrates each panel's own linear piece of y,
read from ``evaluate`` and the vertex geometry, never from the decomposition,
with one fixed 16-node Gauss-Legendre rule per panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .piecewise import PiecewiseNonlinearity, PrimitiveComponent, PrimitiveKind


class QuadratureError(RuntimeError):
    """The quadrature oracle gave a non-finite integral or a nonzero a1."""


@dataclass(frozen=True)
class DescribingFunctionCurve:
    """Sampled describing function: amplitudes X, values F, and provenance."""

    X: np.ndarray
    F: np.ndarray
    provenance: str  # "exact" | "qualitative" | "oracle"

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        F = np.asarray(self.F, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "F", F)
        if X.ndim != 1 or X.shape != F.shape:
            raise ValueError("X and F must be 1-D arrays of equal length")
        if len(X) > 1 and not np.all(np.diff(X) > 0):
            raise ValueError("X must be strictly increasing")
        if np.any(X < 0):
            raise ValueError("amplitudes must be >= 0")
        overflow = ~np.isfinite(F) & (X > 0)
        if overflow.any():
            raise ValueError(f"F is not finite at X = {X[overflow][0]}")
        if self.provenance not in ("exact", "qualitative", "oracle"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


def phi(X, X1: float):
    """Dead-zone describing-function factor.

    Zero for X < X1; for X >= X1 equal to
    ``1 - (2/pi) * (arcsin(X1/X) + (X1/X) * sqrt(1 - (X1/X)^2))``,
    which is 1 for X1 = 0.  Accepts a scalar or array of amplitudes X > 0
    (X = 0 is allowed and maps to 0 when X1 > 0).
    """
    if X1 < 0:
        raise ValueError(f"threshold must be >= 0, got {X1}")
    X = np.asarray(X, dtype=float)
    if np.any(X <= 0):
        raise ValueError("amplitude must be positive")
    if X1 == 0:
        out = np.ones_like(X)
        return out if out.ndim else float(out)
    u = np.minimum(X1 / X, 1.0)
    inner = np.arcsin(u) + u * np.sqrt(1.0 - u * u)
    val = np.where(X >= X1, 1.0 - (2.0 / math.pi) * inner, 0.0)
    return val if val.ndim else float(val)


def psi(X1: float, X):
    """Relay describing-function factor ``(4/(pi X)) sqrt(1 - (X1/X)^2)``.

    Zero for X < X1; equals ``4/(pi X)`` for X1 = 0 (ideal relay).
    """
    if X1 < 0:
        raise ValueError(f"threshold must be >= 0, got {X1}")
    X = np.asarray(X, dtype=float)
    if np.any(X <= 0):
        raise ValueError("amplitude must be positive")
    u = np.minimum(X1 / X, 1.0)
    val = np.where(X >= X1, (4.0 / (math.pi * X)) * np.sqrt(1.0 - u * u), 0.0)
    return val if val.ndim else float(val)


def df_value(nl: PiecewiseNonlinearity, X):
    """Exact describing function F(X) by superposition of primitive terms.

    Accepts a scalar or array of amplitudes.  X = 0 is only valid when the
    nonlinearity has no jump at the origin (there F(0) = m0).
    """
    X = np.asarray(X, dtype=float)
    scalar = X.ndim == 0
    Xa = np.atleast_1d(X)
    if np.any(Xa < 0):
        raise ValueError("amplitudes must be >= 0")
    if np.any(Xa == 0) and nl.has_origin_jump:
        raise ValueError("X = 0 is singular for a nonlinearity jumping at the origin")
    m0, comps = nl.decompose()
    pos = Xa > 0
    F = np.full_like(Xa, m0)
    Xp = Xa[pos]
    acc = np.zeros_like(Xp)
    for c in comps:
        if c.kind is PrimitiveKind.DEAD_ZONE:
            acc += c.magnitude * phi(Xp, c.threshold)
        else:
            acc += c.magnitude * psi(c.threshold, Xp)
    F[pos] += acc
    return float(F[0]) if scalar else F


def _validate_grid(nl: PiecewiseNonlinearity, grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if len(grid) > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 0:
        raise ValueError("grid amplitudes must be >= 0")
    if grid[0] == 0 and nl.has_origin_jump:
        raise ValueError("grid must exclude 0 when the nonlinearity jumps at the origin")
    return grid


def df_exact(nl: PiecewiseNonlinearity, grid) -> DescribingFunctionCurve:
    """Sample the exact describing function on a strictly increasing grid."""
    grid = _validate_grid(nl, grid)
    return DescribingFunctionCurve(grid, df_value(nl, grid), "exact")


def df_derivative(component: PrimitiveComponent, X: float) -> float:
    """dF/dX of a single primitive term, valid for X > threshold.

    Dead zone: ``4 m X1 sqrt(X^2 - X1^2) / (pi X^3)``; relay:
    ``4 Y1 (2 X1^2 - X^2) / (pi X^3 sqrt(X^2 - X1^2))`` (singular at X = X1).
    """
    X1 = component.threshold
    if X <= X1:
        raise ValueError(f"derivative requires X > threshold ({X} <= {X1})")
    root = math.sqrt(X * X - X1 * X1)
    if component.kind is PrimitiveKind.DEAD_ZONE:
        return 4.0 * component.magnitude * X1 * root / (math.pi * X**3)
    return 4.0 * component.magnitude * (2.0 * X1 * X1 - X * X) / (math.pi * X**3 * root)


# -- quadrature oracle ----------------------------------------------------

# The largest |a1| accepted relative to 1 + |b1|.
SYMMETRY_TOL = 1e-8


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule moved to [0, 1].

    Golub & Welsch (Math. Comp. 1969): the nodes are the eigenvalues of the
    Jacobi matrix of the Legendre recurrence, the weights the squared first
    components of its eigenvectors.  The rule is exact for polynomials of
    degree 2n - 1, and its weights sum to 1, so a panel's weighted sum cannot
    overflow before the integral does.
    """
    k = np.arange(1.0, n)
    roots, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return 0.5 * (1.0 + roots), vectors[0] ** 2


_NODES, _WEIGHTS = _gauss_legendre(16)


def _integrate_piecewise(nl, X, weight, splits, name):
    """Integrate ``y(X sin t) * weight(t)`` over consecutive split panels.

    Between two splits X sin t stays on one linear piece of y.  Each panel
    takes that piece once, at its midpoint (the value there and the slope of
    the segment holding it), and integrates the piece's line with the
    Gauss-Legendre rule, whose nodes lie inside the panel, so a jump of y
    sitting on a split never leaks into the panel.  All panels are evaluated
    as one array.
    """
    splits = np.array(splits)
    a, width = splits[:-1], np.diff(splits)
    x_mid = X * np.sin(a + 0.5 * width)
    y_mid = np.array([nl.evaluate(x) for x in x_mid.tolist()])
    ends = [xe for _, xe, _ in nl.segments]
    slopes = np.array([s for _, _, s in nl.segments] + [nl.last_slope])
    m = slopes[np.searchsorted(ends, np.abs(x_mid), side="right")]
    t = a[:, None] + width[:, None] * _NODES
    with np.errstate(all="ignore"):
        f = (y_mid[:, None] + m[:, None] * (X * np.sin(t) - x_mid[:, None])) * weight(t)
        total = float(width @ (f @ _WEIGHTS))
    if not math.isfinite(total):
        raise QuadratureError(
            f"quadrature gave a non-finite value in the {name} integral at X = {X}"
        )
    return total


def df_oracle(nl: PiecewiseNonlinearity, X: float) -> float:
    """Describing function by quadrature of the first Fourier harmonic.

    Integrates ``(4/(pi X)) * y(X sin t) sin t`` over a quarter period, with
    the domain split at ``arcsin(Xj/X)`` for every breakpoint Xj <= X, where
    the integrand kinks or jumps, and a 16-node Gauss-Legendre rule on each
    panel.  The cosine coefficient a1 is computed over the full period as a
    symmetry self-check and must vanish.  Raises ``QuadratureError`` when an
    integral is not finite or a1 does not vanish.
    """
    if X <= 0:
        raise ValueError("amplitude must be positive")

    marks = sorted({xj for xj in (v[0] for v in nl.vertices) if 0.0 < xj < X})
    thetas = [0.0] + [math.asin(xj / X) for xj in marks] + [math.pi / 2.0]

    quarter = _integrate_piecewise(nl, X, np.sin, thetas, "quarter-period b1")
    value = (4.0 / math.pi) * (quarter / X)  # finite wherever F(X) is
    b1 = value * X

    # a1 over the full period; kinks occur wherever |X sin t| hits a breakpoint
    full_marks = {-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0, math.pi}
    for xj in marks:
        t = math.asin(xj / X)
        full_marks.update((t, math.pi - t, -t, -math.pi + t))
    splits = sorted(full_marks)

    a1 = _integrate_piecewise(nl, X, np.cos, splits, "full-period a1") / math.pi
    if abs(a1) > SYMMETRY_TOL * (1.0 + abs(b1)):
        raise QuadratureError(
            f"symmetry self-check failed: a1 = {a1:.3e} for b1 = {b1:.3e}"
        )
    return value


def df_oracle_curve(nl: PiecewiseNonlinearity, grid) -> DescribingFunctionCurve:
    """Quadrature oracle sampled over a grid (for cross-checks and CLI use)."""
    grid = _validate_grid(nl, grid)
    if np.any(grid == 0):
        raise ValueError("the quadrature oracle requires strictly positive amplitudes")
    F = np.array([df_oracle(nl, x) for x in grid])
    return DescribingFunctionCurve(grid, F, "oracle")
