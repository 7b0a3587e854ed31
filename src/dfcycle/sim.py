"""Closed-loop time simulation of the autonomous feedback system.

The loop realizes x -> y(x) -> -G(s) -> x with fixed-step classical
Runge-Kutta.  The verdict distinguishes trajectories that blow up, settle,
or lock onto a sustained oscillation, whose amplitude and frequency are
measured from zero crossings of the loop signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linsys import LinearPlant
from .piecewise import PiecewiseNonlinearity

CONVERGED = "converged_to_origin"
SUSTAINED = "sustained_oscillation"
DIVERGED = "diverged"

DIVERGENCE_NORM = 1e8
# Largest relative change of the amplitude between the two halves of the
# analysis window, and the fewest zero crossings, of a sustained oscillation.
DRIFT_TOL = 0.02
MIN_CROSSINGS = 4


class AlgebraicLoopError(ValueError):
    """The plant has direct feedthrough, so the loop is not well-posed."""


@dataclass(frozen=True)
class SimResult:
    t: np.ndarray
    states: np.ndarray  # shape (len(t), order)
    x: np.ndarray  # loop signal fed to the nonlinearity
    verdict: str
    amplitude: float | None = None
    frequency: float | None = None


def loop_matrices(plant: LinearPlant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C_loop) with C_loop = -C so that x = C_loop @ xs closes the loop."""
    A, B, C, D = plant.state_space
    if D != 0.0:
        raise AlgebraicLoopError(
            "plant must be strictly proper (D = 0) for the feedback loop"
        )
    return A, B, -C


def default_horizon(omega: float) -> tuple[float, float]:
    """(T, dt) defaults: 200 periods simulated at 400 steps per period."""
    period = 2.0 * math.pi / omega
    return 200.0 * period, period / 400.0


def simulate(
    plant: LinearPlant,
    nl: PiecewiseNonlinearity,
    x0,
    T: float,
    dt: float,
) -> SimResult:
    """Fixed-step RK4 integration of the closed loop from state x0.

    Divergence (state norm above 1e8) truncates the run with a ``diverged``
    verdict.  Otherwise the trailing half of the trajectory decides between
    ``sustained_oscillation`` (with measured amplitude and frequency) and
    ``converged_to_origin``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 100.0 * dt:
        raise ValueError("horizon too short: need T >= 100*dt")
    A, B, C_loop = loop_matrices(plant)
    n = len(B)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"initial state must have shape ({n},)")

    # unpack to plain floats: the stepper dominates runtime at desk scale
    A_rows = [tuple(row) for row in A]
    Bv = tuple(B)
    Cv = tuple(C_loop)
    evaluate = nl.evaluate

    def rhs(state):
        u = evaluate(sum(c * s for c, s in zip(Cv, state)))
        return [
            sum(a * s for a, s in zip(row, state)) + b * u
            for row, b in zip(A_rows, Bv)
        ]

    steps = int(round(T / dt))
    traj = np.empty((steps + 1, n))
    state = [float(v) for v in x0]
    traj[0] = state
    diverged_at = None
    h = dt
    for k in range(steps):
        k1 = rhs(state)
        k2 = rhs([s + 0.5 * h * v for s, v in zip(state, k1)])
        k3 = rhs([s + 0.5 * h * v for s, v in zip(state, k2)])
        k4 = rhs([s + h * v for s, v in zip(state, k3)])
        state = [
            s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        traj[k + 1] = state
        if max(abs(v) for v in state) > DIVERGENCE_NORM:
            diverged_at = k + 1
            break

    if diverged_at is not None:
        traj = traj[: diverged_at + 1]
    t = np.arange(len(traj)) * dt
    x = traj @ np.asarray(C_loop)

    if diverged_at is not None:
        return SimResult(t, traj, x, DIVERGED)

    measured = measure_oscillation(t, x)
    if measured is None:
        return SimResult(t, traj, x, CONVERGED)
    amp, freq = measured
    return SimResult(t, traj, x, SUSTAINED, amplitude=amp, frequency=freq)


def measure_oscillation(t: np.ndarray, x: np.ndarray) -> tuple[float, float] | None:
    """Amplitude and angular frequency of a sustained oscillation, or None.

    The first half of the record is discarded as transient; the second half
    is the analysis window.  Zero crossings are located by linear
    interpolation; the mean rising-to-rising gap gives the period.
    Returns None when there are too few crossings or the half peak-to-peak
    amplitude drifts more than ``DRIFT_TOL`` between the two halves of the
    window.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if len(t) < 8:
        return None
    start = t[0] + 0.5 * (t[-1] - t[0])
    sel = t >= start
    if np.count_nonzero(sel) < 8:
        return None
    tw, xw = t[sel], x[sel]

    sign = np.sign(xw)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(flips) < MIN_CROSSINGS:
        return None
    # linear interpolation of each crossing instant
    tc = tw[flips] - xw[flips] * (tw[flips + 1] - tw[flips]) / (
        xw[flips + 1] - xw[flips]
    )
    rising = tc[xw[flips] < 0]
    if len(rising) < 2:
        return None
    period = float(np.mean(np.diff(rising)))
    if period <= 0:
        return None

    def half_ptp(a):
        return 0.5 * (float(np.max(a)) - float(np.min(a)))

    mid = len(xw) // 2
    a1, a2 = half_ptp(xw[:mid]), half_ptp(xw[mid:])
    amp = half_ptp(xw)
    if amp == 0.0:
        return None
    if abs(a2 - a1) > DRIFT_TOL * max(a1, a2):
        return None
    return amp, 2.0 * math.pi / period
