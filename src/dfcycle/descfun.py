"""Exact describing function of piecewise-linear nonlinearities.

Closed forms are built from two primitives: the dead-zone factor ``_phi`` and
the relay factor ``_psi``.  The full curve is the superposition of one term per
slope change and per jump of the nonlinearity.  Each public entry checks its
input once, then runs an unchecked kernel: ``df_value`` its amplitudes before
``_df``, and the curve samplers their grid in ``_sample``, the one builder of
a ``DescribingFunctionCurve``.  ``_df`` is the kernel for arrays and the
definition of F; ``_df_at`` repeats its operations on one amplitude in
Python floats, with its bits, for the F = K refinement, Y1 and the
stability probes of ``cycles.classify``.

``df_oracle`` recomputes the same value by quadrature of the first Fourier
harmonic and serves as an independent cross-check of the closed forms: it
splits the period where X sin t meets a breakpoint and integrates each
panel's own linear piece of y, read from the nonlinearity's signed line table
(``lines``), never from its ``terms``, with one fixed 16-node Gauss-Legendre
rule per panel.  The map keeps that table as a read-only array, beside the
exponent bound that lets ``_shift`` skip its loop over the pieces
(``_oracle_table``), so a call on a warm map rebuilds neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .piecewise import PiecewiseNonlinearity


class QuadratureError(RuntimeError):
    """The quadrature oracle gave a non-finite integral or a nonzero a1."""


@dataclass(frozen=True)
class DescribingFunctionCurve:
    """Sampled describing function: amplitudes X, values F, and provenance."""

    X: np.ndarray
    F: np.ndarray
    provenance: str  # "exact" | "qualitative" | "oracle"


def _phi(X, X1: float):
    """Dead-zone factor ``1 - (2/pi) (arcsin u + u sqrt(1 - u^2))``, u = X1/X.

    The closed form alone, for an array X >= X1 >= 0 with X > 0; it is 1 for
    X1 = 0.  ``df_value`` checks the amplitudes and passes only the tail at or
    above the threshold, where the factor is nonzero.  The expression is
    evaluated in two buffers, operation by operation, so it keeps its bits.
    """
    u = X1 / X
    w = u * u
    np.sqrt(np.subtract(1.0, w, out=w), out=w)
    w *= u
    w += np.arcsin(u, out=u)
    w *= 2.0 / math.pi
    return np.subtract(1.0, w, out=w)


def _psi(X1: float, X, Y: float):
    """Relay term ``Y (4/(pi X)) sqrt(1 - (X1/X)^2)`` of a jump Y at X1, for
    an ascending array X >= X1 >= 0, X > 0.

    Equals ``4Y/(pi X)`` for X1 = 0 (ideal relay).  Unchecked and evaluated
    in two buffers, as ``_phi``.  X and Y are scaled up exactly, by a power of
    two c, until X[0] >= 2^-1000: at a subnormal X, 4/(pi X) loses digits or
    overflows.  4/(pi X c) is formed as 1/(pi X c/4): the same bits wherever
    pi X c is finite, and finite where pi X c overflows.
    """
    c = 2.0 ** max(0, -1000 - math.frexp(X[0])[1])
    u = X1 / X
    np.sqrt(np.subtract(1.0, np.multiply(u, u, out=u), out=u), out=u)
    r = X * (c / 4.0)
    np.divide(1.0, np.multiply(r, math.pi, out=r), out=r)
    r *= u
    r *= Y * c
    return r


def _df(nl: PiecewiseNonlinearity, X: np.ndarray) -> np.ndarray:
    """F on an ascending 1-D array of amplitudes >= 0, unchecked.

    Each term of ``nl.terms`` adds its factor only on the tail at or above its
    threshold.
    """
    F = np.full_like(X, nl.initial_slope)
    i = np.searchsorted(X, 0.0, side="right")
    Xp = X[i:]  # X > 0
    acc = np.zeros_like(Xp)
    for x1, relay, magnitude in nl.terms:
        k = np.searchsorted(Xp, x1)  # Xp[k:] >= x1, the factors' domain
        if k == len(Xp):
            break  # the thresholds ascend, so no later term reaches Xp either
        tail = Xp[k:]
        acc[k:] += _psi(x1, tail, magnitude) if relay else magnitude * _phi(tail, x1)
    F[i:] += acc
    return F


def _df_at(nl: PiecewiseNonlinearity, X: float) -> float:
    """F at one amplitude X > 0, unchecked, in Python floats.

    ``_df`` is the definition: this runs its operations in its order, with
    ``_phi``'s and ``_psi``'s expressions and the scale c of ``_psi``, so it
    returns the bits of ``_df(nl, np.array([X]))[0]`` without NumPy's
    per-call overhead, which outweighs the arithmetic on one amplitude.  Only
    arcsin is NumPy's, on a Python float: that runs the array loop, which
    ``math.asin`` does not always match.
    """
    acc = 0.0
    for x1, relay, magnitude in nl.terms:
        if X < x1:
            break  # the thresholds ascend
        u = x1 / X
        if relay:
            c = 2.0 ** max(0, -1000 - math.frexp(X)[1])
            acc += 1.0 / (X * (c / 4.0) * math.pi) * math.sqrt(1.0 - u * u) * (magnitude * c)
        else:
            w = (math.sqrt(1.0 - u * u) * u + float(np.arcsin(u))) * (2.0 / math.pi)
            acc += magnitude * (1.0 - w)
    return nl.initial_slope + acc


def df_value(nl: PiecewiseNonlinearity, X):
    """Exact describing function F(X) by superposition of the terms of ``nl``.

    Accepts a scalar or an ascending (nondecreasing) array of amplitudes >= 0,
    checked once before the unchecked kernel ``_df``: ``ValueError`` rejects
    a negative or NaN amplitude and names the first descent of any other
    array.  X = 0 is only valid when the nonlinearity has no jump at the
    origin (there F(0) = m0).
    """
    X = np.asarray(X, dtype=float)
    Xa = np.atleast_1d(X)
    if not np.all(Xa >= 0):  # NaN fails too
        raise ValueError("amplitudes must be >= 0")
    if np.any(Xa == 0) and nl.has_origin_jump:
        raise ValueError("X = 0 is singular for a nonlinearity jumping at the origin")
    down = np.flatnonzero(Xa[1:] < Xa[:-1])
    if down.size:
        i = down[0]
        raise ValueError(
            f"amplitudes must be nondecreasing: X = {Xa[i + 1]} follows {Xa[i]}"
        )
    F = _df(nl, Xa)
    return float(F[0]) if X.ndim == 0 else F


def _sample(nl: PiecewiseNonlinearity, grid, kernel, provenance: str):
    """The curve of the unchecked ``kernel(nl, grid)``, with ``grid`` checked once.

    ``ValueError`` also refuses an F that is not finite where X > 0.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError("grid must be strictly increasing")
    if not grid[0] >= 0:  # NaN fails too; a longer grid fails the diff test
        raise ValueError("grid amplitudes must be >= 0")
    if grid[0] == 0 and nl.has_origin_jump:
        raise ValueError("grid must exclude 0 when the nonlinearity jumps at the origin")
    F = kernel(nl, grid)
    if not np.isfinite(F).all():
        overflow = ~np.isfinite(F) & (grid > 0)
        if overflow.any():
            raise ValueError(f"F is not finite at X = {grid[overflow][0]}")
    return DescribingFunctionCurve(grid, F, provenance)


def df_exact(nl: PiecewiseNonlinearity, grid) -> DescribingFunctionCurve:
    """Sample the exact describing function (``_df``) on a grid checked once."""
    return _sample(nl, grid, _df, "exact")


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


def _oracle_table(nl: PiecewiseNonlinearity):
    """The per-map facts of the quadrature, which ``nl._oracle_table`` keeps.

    ``lines`` is ``nl.lines`` as a read-only array in column-major order, so
    its ``lo`` column, which every lookup bisects, is contiguous.  ``top_y``
    and ``top_m`` are the largest frexp exponents of the ordinates and the
    slopes of ``nl.pieces``, from which ``_shift`` bounds its ``top``.
    """
    lines = np.asfortranarray(nl.lines)
    lines.flags.writeable = False
    _, ys, slopes = nl.pieces
    return lines, max(math.frexp(y)[1] for y in ys), max(math.frexp(m)[1] for m in slopes)


def _integrate_piecewise(nl, X, shift, quarter, full):
    """Integrals of ``2^shift y(X sin t)`` times sin t between the ascending
    splits ``quarter``, and times cos t between ``full``, in one pass.

    Between two splits X sin t stays on one linear piece of y.  Each panel
    looks that piece up once in the map's kept line table (``nl.lines`` as an
    array, ``_oracle_table``), at its midpoint, and integrates the piece's
    line with the Gauss-Legendre rule, whose nodes lie inside the panel, so
    a jump of y sitting on a split never leaks into the panel.  All panels
    are evaluated as one array.  The map and X are scaled exactly by
    2^shift, on a copy of the table where the shift is not 0; a line whose
    anchor overflows lies past X.  A non-finite integral raises
    ``QuadratureError``, the sine integral first.
    """
    Xs = math.ldexp(X, shift)
    q = len(quarter) - 1  # row q, from pi/2 back to -pi, is no panel: it is skipped
    splits = np.array(quarter + full)
    a = splits[:-1]
    width = splits[1:] - a
    lines = nl._oracle_table[0]
    with np.errstate(all="ignore"):
        if shift:
            lines = lines.copy()
            lines[:, :4] = np.ldexp(lines[:, :4], shift)
        x_mid = Xs * np.sin(a + 0.5 * width)
        _, _, x0, y0, m = lines[lines[:, 0].searchsorted(x_mid, side="right") - 1].T
        y_mid = y0 + m * (x_mid - x0)
        t = a[:, None] + width[:, None] * _NODES
        sin_t = np.sin(t)
        f = y_mid[:, None] + m[:, None] * (Xs * sin_t - x_mid[:, None])
        f[:q] *= sin_t[:q]
        f[q + 1:] *= np.cos(t[q + 1:])
        totals = [float(width[rows] @ (f[rows] @ _WEIGHTS))
                  for rows in (slice(q), slice(q + 1, None))]
    for total, name in zip(totals, ("quarter-period b1", "full-period a1")):
        if not math.isfinite(total):
            raise QuadratureError(
                f"quadrature gave a non-finite value in the {name} integral at X = {X}"
            )
    return totals


def _shift(nl: PiecewiseNonlinearity, X: float) -> int:
    """The power of two that scales the map and X for the quadrature at X.

    A subnormal X loses digits in the integrand: scale up to 2^-1000, no
    further.  Else, where the ordinates on [-X, X] near the largest float,
    scale down until they stay below 2^1017, so no panel sum overflows; X
    stays above 2^-1009 then.  Their bound ``top`` comes from exponents,
    |y0| + |m| (X - x0) on each piece from its vertex x0 <= X, as y(X)
    itself may overflow.  Else the shift is 0.  Since 0 <= X - x0 <= X,
    ``top`` is at most max(top_y, top_m + max(e(X), 0)) from the map's kept
    exponents (``_oracle_table``): where that is at most 1016, the shift is
    0 without the loop over the pieces.
    """
    e = math.frexp(X)[1]
    if e < -1000:
        return -1000 - e
    _, top_y, top_m = nl._oracle_table
    if max(top_y, top_m + max(e, 0)) <= 1016:
        return 0
    xs, ys, slopes = nl.pieces
    top = max(
        max(math.frexp(y0)[1], math.frexp(m)[1] + math.frexp(X - x0)[1])
        for x0, y0, m in zip(xs, ys, slopes) if x0 <= X
    )
    return min(0, 1016 - top)


def df_oracle(nl: PiecewiseNonlinearity, X: float) -> float:
    """Describing function by quadrature of the first Fourier harmonic.

    Integrates ``(4/(pi X)) * y(X sin t) sin t`` over a quarter period, with
    the domain split at ``arcsin(Xj/X)`` for every breakpoint Xj <= X, where
    the integrand kinks or jumps, and a 16-node Gauss-Legendre rule on each
    panel.  The cosine coefficient a1 is computed over the full period as a
    symmetry self-check and must vanish.  Raises ``QuadratureError`` when an
    integral is not finite or a1 does not vanish.
    """
    if not X > 0:
        raise ValueError("amplitude must be positive")

    marks = sorted({xj for xj in nl.x if 0.0 < xj < X})
    thetas = [0.0] + [math.asin(xj / X) for xj in marks] + [math.pi / 2.0]

    # a1 over the full period; kinks occur wherever |X sin t| hits a breakpoint
    full_marks = {-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0, math.pi}
    for t in thetas[1:-1]:
        full_marks.update((t, math.pi - t, -t, -math.pi + t))

    shift = _shift(nl, X)
    quarter, full = _integrate_piecewise(nl, X, shift, thetas, sorted(full_marks))
    value = (4.0 / math.pi) * (quarter / math.ldexp(X, shift))  # finite wherever F(X) is

    # a1 and b1 scaled by 2^shift, as the integrals are: b1 = F X may overflow
    a1 = full / math.pi
    b1 = value * math.ldexp(X, shift)
    if abs(a1) > SYMMETRY_TOL * (math.ldexp(1.0, shift) + abs(b1)):
        raise QuadratureError(
            f"symmetry self-check failed: a1 = {a1:.3e} for b1 = {b1:.3e} "
            f"(y and X scaled by 2^{shift})"
        )
    return value


def df_oracle_curve(nl: PiecewiseNonlinearity, grid) -> DescribingFunctionCurve:
    """Quadrature oracle on a grid checked once; ``df_oracle`` refuses X = 0."""
    return _sample(nl, grid, lambda nl, X: np.array([df_oracle(nl, x) for x in X]),
                   "oracle")
