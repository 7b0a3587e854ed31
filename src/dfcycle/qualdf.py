"""Qualitative (hand-drawing style) describing function.

The qualitative curve chains one simple segment per breakpoint: each segment
starts where the previous one ended and relaxes toward the local slope via
the ramp factor ``1 - Xj/X``, with the relay factor ``descfun._psi`` added at
jump abscissae.  It is a shape-faithful stand-in for the exact curve: same
plateau, same tail, same rise/fall pattern, at a fraction of the algebra.
``df_qualitative`` checks its grid once and runs the unchecked ``_qualitative``.
"""

from __future__ import annotations

import math

import numpy as np

from .descfun import DescribingFunctionCurve, _psi, _sample
from .piecewise import PiecewiseNonlinearity


def _qualitative(nl: PiecewiseNonlinearity, grid: np.ndarray) -> np.ndarray:
    """F~ on an ascending 1-D array of amplitudes >= 0, unchecked.

    Piecewise construction: F~ = m0 up to the first breakpoint; on each
    half-open range (Xj, X_{j+1}] the curve is
    ``F_{j0} + (mj - F_{j0}) * (1 - Xj/X) [+ _psi(Xj, X, Yj)]``, with mj the
    slope after Xj and Yj the jump there.  F_{j0} is the previous segment's
    value at Xj, so one walk over the breakpoints chains the segments, and
    ``_psi`` only ever sees amplitudes above its breakpoint.
    """
    F = np.full_like(grid, nl.initial_slope)
    jump_at = {xj: yj for xj, relay, yj in nl.terms if relay}
    bps = nl.breakpoints
    f0 = nl.initial_slope
    for xj, hi in zip(bps, (*bps[1:], math.inf)):
        mj, yj = nl.line_at(xj)[4], jump_at.get(xj, 0.0)
        i, k = np.searchsorted(grid, (xj, hi), side="right")
        X = np.append(grid[i:k], hi)  # the segment's samples, then its end
        vals = f0 + (mj - f0) * (1.0 - xj / X)
        if yj != 0.0:  # adding 0 * _psi would turn a -0.0 into +0.0
            vals = vals + _psi(xj, X, yj)
        F[i:k], f0 = vals[:-1], vals[-1]
    return F


def df_qualitative(nl: PiecewiseNonlinearity, grid) -> DescribingFunctionCurve:
    """Sample the qualitative describing function on a grid checked once."""
    return _sample(nl, grid, _qualitative, "qualitative")
