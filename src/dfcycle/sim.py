"""Closed-loop time simulation of the autonomous feedback system.

The loop realizes x -> y(x) -> -G(s) -> x with fixed-step classical
Runge-Kutta.  The verdict distinguishes trajectories that blow up, settle,
or lock onto a sustained oscillation, whose amplitude and frequency are
measured from zero crossings of the loop signal.

The loop is linear apart from u = y(x), so one RK4 step folds into matrices
built once per run: stage i reads x_i = R_i s + sum_{j<i} Cm_ij u_j, feeds
u_i = y(x_i), and the step ends at s' = Phi s + G u.  On a linear piece
y = m x + b the four stage inputs solve a unit lower-triangular system, so
the step is an affine map of s.  A run of steps whose stages all stay on one
piece is advanced by one product with that map's precomputed powers; only a
step whose stages straddle a breakpoint is taken stage by stage through
``nl.evaluate``.  Both are the same RK4 step, up to rounding.

The pieces are the nonlinearity's signed line table ``nl.lines``, one entry
per signed piece: its line and the half-open interval ``lo <= x < hi`` of the
floats that lie on it.  A batch finds the piece of C s by one bisection of
the table's starts and makes one test of its product against the piece's
stacked bound vectors: ``lo <= x < hi`` on each stage abscissa and
``|s_i| <= DIVERGENCE_NORM`` on each state.  Each step's abscissae come
before its state, so the first element off its bounds alone ends the batch:
at a step that straddles a breakpoint, or at a state that diverges after
an accepted step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .linsys import LinearPlant
from .piecewise import PiecewiseNonlinearity

CONVERGED = "converged_to_origin"
SUSTAINED = "sustained_oscillation"
DIVERGED = "diverged"

DIVERGENCE_NORM = 1e8
# Most steps one product advances on a linear piece of y.
RUN_STEPS = 48
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
    full_steps: int  # steps taken stage by stage through nl.evaluate
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

    Every step is the classical RK4 step, folded into the matrices of
    ``_folded_step``.  Each batch looks up the piece of y holding C s in the
    signed line table ``nl.lines`` (one bisection of its starts),
    computes up to ``RUN_STEPS`` steps on that piece with one product, and
    tests it once against the piece's bound vectors from ``_run_map``.  A
    step with a stage abscissa below the piece's ``lo`` or at or above its
    ``hi`` straddles a breakpoint: the batch ends before it, and it is taken
    stage by stage through ``nl.evaluate`` and counted in ``full_steps``.

    Divergence (a state component of magnitude above 1e8) truncates the run
    with a ``diverged`` verdict; the same bound test finds it in a batch.
    Otherwise the trailing half of the trajectory decides between
    ``sustained_oscillation`` (with measured amplitude and frequency) and
    ``converged_to_origin``.  ``ValueError`` rejects a non-finite x0, T or
    dt, a dt <= 0 and a T < 100 dt.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(T):
        raise ValueError(f"horizon must be finite, got {T}")
    if T < 100.0 * dt:
        raise ValueError("horizon too short: need T >= 100*dt")
    A, B, C_loop = loop_matrices(plant)
    n = len(B)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"initial state must have shape ({n},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"initial state must be finite, got {x0}")

    R, Cm, Phi, G = _folded_step(A, B, C_loop, dt)
    R_Phi = np.vstack([R, Phi])
    lines, starts = nl.lines, nl.line_starts
    piece_maps: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    _, (c10, *_), (c20, c21, *_), (c30, c31, c32, _) = Cm.tolist()
    evaluate = nl.evaluate

    def full_step(s):
        r = R_Phi @ s
        r0, r1, r2, r3 = r[:4].tolist()
        u0 = evaluate(r0)
        u1 = evaluate(r1 + c10 * u0)
        u2 = evaluate(r2 + (c20 * u0 + c21 * u1))
        u3 = evaluate(r3 + (c30 * u0 + c31 * u1 + c32 * u2))
        return r[4:] + G @ np.array([u0, u1, u2, u3])

    steps = int(round(T / dt))
    traj = np.empty((steps + 1, n))
    traj[0] = x0
    s = x0
    affine = np.ones(n + 1)  # [s, 1]
    k = 0
    full_steps = 0
    diverged_at = None
    while k < steps:
        piece = bisect_right(starts, float(C_loop @ s)) - 1
        if piece not in piece_maps:
            piece_maps[piece] = _run_map(R, Cm, Phi, G, lines[piece])
        run_map, low, high = piece_maps[piece]
        todo = min(RUN_STEPS, steps - k)
        size = todo * (n + 4)
        affine[:n] = s
        out = run_map[:size] @ affine
        # the first stage abscissa off [lo, hi) or state past the norm
        bad = out < low[:size]
        bad |= out >= high[:size]
        first = int(bad.argmax())
        run, row = divmod(first, n + 4)
        if not bad.item(first):
            run = todo
        elif row >= 4:  # step run + 1 stays on the piece, and its state diverges
            run += 1
            diverged_at = k + run
        if run:
            traj[k + 1 : k + 1 + run] = out.reshape(todo, n + 4)[:run, 4:]
            if diverged_at is not None:
                break
            k += run
            s = traj[k]
        if run < todo:
            s = full_step(s)
            full_steps += 1
            k += 1
            traj[k] = s
            if any(abs(v) > DIVERGENCE_NORM for v in s.tolist()):
                diverged_at = k
                break

    if diverged_at is not None:
        traj = traj[: diverged_at + 1]
    t = np.arange(len(traj)) * dt
    x = traj @ np.asarray(C_loop)

    if diverged_at is not None:
        return SimResult(t, traj, x, DIVERGED, full_steps)

    measured = measure_oscillation(t, x)
    if measured is None:
        return SimResult(t, traj, x, CONVERGED, full_steps)
    amp, freq = measured
    return SimResult(
        t, traj, x, SUSTAINED, full_steps, amplitude=amp, frequency=freq
    )


def _folded_step(
    A: np.ndarray, B: np.ndarray, C_loop: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(R, Cm, Phi, G): one RK4 step of ds/dt = A s + B y(C_loop s), folded.

    Stage i feeds u_i = y(x_i) at the abscissa
    ``x_i = R[i] @ s + Cm[i, :i] @ u[:i]`` (Cm is strictly lower triangular),
    and the step ends at ``Phi @ s + G @ u``.  The tableau is run once on
    coefficient matrices: each stage state is carried as its n x (n+4)
    coefficients on (s, u_1..u_4).
    """
    n = len(B)
    unit = np.hstack([np.eye(n), np.zeros((n, 4))])
    stages, slopes = [], []
    slope = np.zeros_like(unit)
    for i, c in enumerate((0.0, 0.5 * h, 0.5 * h, h)):
        stages.append(unit + c * slope)
        slope = A @ stages[-1]
        slope[:, n + i] += B
        slopes.append(slope)
    end = unit + (h / 6.0) * (slopes[0] + 2.0 * slopes[1] + 2.0 * slopes[2] + slopes[3])
    x = np.array([C_loop @ stage for stage in stages])
    return x[:, :n], x[:, n:], end[:, :n], end[:, n:]


def _run_map(
    R, Cm, Phi, G, line: tuple[float, float, float, float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(map, low, high): 1..RUN_STEPS steps on the piece ``line`` of ``nl.lines``.

    On the piece y = m x + b the stage inputs solve ``(I - m Cm) u = m R s + b``,
    a unit lower-triangular system, so u = U s + v and one step is the affine
    map ``s' = (Phi + G U) s + G v``.  Row block k of ``map`` (of n + 4 rows),
    applied to [s, 1], gives the four stage abscissae of step k + 1 and then
    the state after it.  ``low <= map @ [s, 1] < high`` row by row holds where
    each stage abscissa lies within the piece's [lo, hi) and each state within
    ``DIVERGENCE_NORM``.
    """
    lo, hi, x0, y0, m = line
    b = y0 - m * x0
    n = Phi.shape[0]
    U = np.empty((4, n))
    v = np.empty(4)
    for i in range(4):
        U[i] = m * (R[i] + Cm[i, :i] @ U[:i])
        v[i] = b + m * (Cm[i, :i] @ v[:i])
    step = np.eye(n + 1)
    step[:n, :n] = Phi + G @ U
    step[:n, n] = G @ v
    stages = np.hstack([R + Cm @ U, (Cm @ v)[:, None]])
    powers = np.empty((RUN_STEPS + 1, n + 1, n + 1))
    powers[0] = np.eye(n + 1)
    for k in range(RUN_STEPS):
        np.matmul(step, powers[k], out=powers[k + 1])
    blocks = np.empty((RUN_STEPS, n + 4, n + 1))
    np.matmul(stages, powers[:-1], out=blocks[:, :4])
    blocks[:, 4:] = powers[1:, :n]
    low = np.tile([lo] * 4 + [-DIVERGENCE_NORM] * n, RUN_STEPS)
    high = np.tile([hi] * 4 + [np.nextafter(DIVERGENCE_NORM, math.inf)] * n, RUN_STEPS)
    return blocks.reshape(-1, n + 1), low, high


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
