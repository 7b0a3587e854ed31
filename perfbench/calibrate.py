"""Machine-speed calibration: a fixed reference kernel timed next to each op.

The benchmark's machine is a shared virtual machine whose speed drifts over
tens of seconds: 10 s windows of ``df_curves`` ops averaged from 18.7 to
36.3 ms per op, and CPU time drifts with wall time, so the processor runs
slower, not the process waiting.  Raw wall times of two runs of the same
code therefore differ by more than any useful regression bound.

``scale()`` times a fixed kernel, written here and independent of the
library, and returns ``REFERENCE_S`` over its median time: the factor that
converts a wall time measured at the machine's current speed into the time
it would take at the reference speed.  The kernel mixes the three kinds of
work the library does: an RK4 loop over Python lists (the shape of
``sim.simulate``), a recursive Simpson quadrature over a piecewise-linear
map (the shape of ``df_oracle``), and NumPy arithmetic on mid-sized arrays
(the shape of the describing-function kernels).  It does not track every
workload exactly: the machine's slow spells slow some code more than the
kernel, so calibrated times still move by a few percent with the speed.

The library never sees the kernel, so a change that makes the library
faster or slower moves calibrated times by the same share as raw ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

# The kernel's median time on the reference machine (the 2-vCPU Xeon recorded
# in BASELINE.md, at its median speed); calibrated times are in seconds at
# that speed.
REFERENCE_S = 0.8e-3
# A scale runs the kernel at least MIN_REPS times and for at least SHARE of
# the time of the work it calibrates, so a long op gets a steadier scale.
MIN_REPS = 3
SHARE = 0.05

_XS = [1.0, 2.5, 4.0, 7.0, 9.0]
_YS = [0.5, 1.0, 3.0, 3.5, 2.0]


def _piecewise(x: float) -> float:
    """Odd piecewise-linear map through (_XS, _YS), flat beyond the last point."""
    ax = -x if x < 0 else x
    i = bisect.bisect_right(_XS, ax)
    if i == 0:
        y = _YS[0] * ax / _XS[0]
    elif i == len(_XS):
        y = _YS[-1]
    else:
        x0, x1, y0, y1 = _XS[i - 1], _XS[i], _YS[i - 1], _YS[i]
        y = y0 + (y1 - y0) * (ax - x0) / (x1 - x0)
    return -y if x < 0 else y


def _integrand(t: float) -> float:
    s = math.sin(t)
    return _piecewise(8.0 * s) * s


def _simpson(a: float, b: float, fa: float, fb: float, depth: int) -> float:
    m = 0.5 * (a + b)
    fm = _integrand(m)
    if depth == 0:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(a, m, fa, fm, depth - 1) + _simpson(m, b, fm, fb, depth - 1)


_A = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, -3.0, -4.0))
_B = (0.0, 0.0, 1.0)
_C = (-2.0, 0.0, 0.0)


def _rk4(steps: int) -> float:
    """Fixed-step RK4 of a third-order loop through ``_piecewise``."""
    traj = np.empty((steps + 1, 3))
    state = [1.0, 0.0, 0.0]
    h = 0.01

    def rhs(x):
        u = _piecewise(sum(c * v for c, v in zip(_C, x)))
        return [sum(a * v for a, v in zip(row, x)) + b * u for row, b in zip(_A, _B)]

    for k in range(steps):
        k1 = rhs(state)
        k2 = rhs([s + 0.5 * h * v for s, v in zip(state, k1)])
        k3 = rhs([s + 0.5 * h * v for s, v in zip(state, k2)])
        k4 = rhs([s + h * v for s, v in zip(state, k3)])
        state = [s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        traj[k + 1] = state
    return float(traj[-1, 0])


def kernel() -> float:
    """The reference work: about 1 ms on the reference machine."""
    r = _rk4(8)
    a = np.linspace(0.0, 1.0, 10_000)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    q = _simpson(0.0, 3.0, _integrand(0.0), _integrand(3.0), 7)
    return r + float(a[-1]) + q


def scale(busy_s: float = 0.0) -> float:
    """``REFERENCE_S`` over the kernel's median time now, next to ``busy_s`` of work."""
    reps: list[float] = []
    spent = 0.0
    while len(reps) < MIN_REPS or spent < SHARE * busy_s:
        t = perf_counter()
        kernel()
        d = perf_counter() - t
        reps.append(d)
        spent += d
    return REFERENCE_S / statistics.median(reps)
