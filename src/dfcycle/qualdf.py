"""Qualitative (hand-drawing style) describing function.

The qualitative curve chains one simple segment per breakpoint: each segment
starts where the previous one ended and relaxes toward the local slope via a
ramp factor, with an impulsive relay term added at jump abscissae.  It is a
shape-faithful stand-in for the exact curve: same plateau, same tail, same
rise/fall pattern, at a fraction of the algebra.
"""

from __future__ import annotations

import math

import numpy as np

from .descfun import DescribingFunctionCurve, _validate_grid, psi
from .piecewise import PiecewiseNonlinearity


def phi_tilde(X, Xj: float):
    """Ramp factor ``1 - Xj/X``: zero at X = Xj, tending to one as X grows.

    Defined for X >= Xj > 0 (and identically one when Xj = 0).
    """
    if Xj < 0:
        raise ValueError(f"breakpoint must be >= 0, got {Xj}")
    X = np.asarray(X, dtype=float)
    if np.any(X < Xj) or np.any(X <= 0):
        raise ValueError("ramp factor requires X >= Xj > 0")
    val = 1.0 - Xj / X
    return val if val.ndim else float(val)


def _events(nl: PiecewiseNonlinearity):
    """Breakpoints as (Xj, slope after Xj, jump amplitude at Xj)."""
    jump_at = dict(nl.jumps)
    return [(xj, nl.line_at(xj)[4], jump_at.get(xj, 0.0)) for xj in nl.breakpoints]


def segment_anchor_values(nl: PiecewiseNonlinearity) -> list[float]:
    """Chained start values F~_{j0}, one per breakpoint segment.

    Entry j is the value the qualitative curve reaches at breakpoint X_{j+1}
    of the previous segment, i.e. where segment j+1 takes over.
    """
    events = _events(nl)
    anchors = []
    prev = nl.initial_slope
    for j, (xj, mj, yj) in enumerate(events):
        anchors.append(prev)
        x_next = events[j + 1][0] if j + 1 < len(events) else None
        if x_next is not None:
            prev = prev + (mj - prev) * phi_tilde(x_next, xj)
            if yj != 0.0:
                prev += yj * psi(xj, x_next)
    return anchors


def df_qualitative(nl: PiecewiseNonlinearity, grid) -> DescribingFunctionCurve:
    """Sample the qualitative describing function on a strictly increasing grid.

    Piecewise construction: F~ = m0 up to the first breakpoint; on each
    half-open range (Xj, X_{j+1}] the curve is
    ``F_{j0} + (mj - F_{j0}) * phi_tilde(X, Xj) [+ Yj * psi(Xj, X)]``
    where F_{j0} chains from the previous segment's endpoint.
    """
    grid = _validate_grid(nl, grid)
    events = _events(nl)
    F = np.full_like(np.asarray(grid, dtype=float), nl.initial_slope)
    if not events:
        return DescribingFunctionCurve(grid, F, "qualitative")

    anchors = segment_anchor_values(nl)
    for j, ((xj, mj, yj), f0) in enumerate(zip(events, anchors)):
        hi = events[j + 1][0] if j + 1 < len(events) else math.inf
        mask = (grid > xj) & (grid <= hi)
        if not np.any(mask):
            continue
        Xs = grid[mask]
        vals = f0 + (mj - f0) * phi_tilde(Xs, xj)
        if yj != 0.0:
            vals = vals + yj * psi(xj, Xs)
        F[mask] = vals
    return DescribingFunctionCurve(grid, F, "qualitative")
