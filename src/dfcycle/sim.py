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
step whose stages straddle a breakpoint is taken stage by stage.  Both are
the same RK4 step, up to rounding.

The pieces are the nonlinearity's signed line table ``nl.lines``, one entry
per signed piece: its line and the half-open interval ``lo <= x < hi`` of the
floats that lie on it.  A batch costs a fixed handful of NumPy calls,
whatever its length: ``C s`` and one bisection of the table's starts find
the piece; one matrix-vector product with the piece's run map writes the
stage abscissae and states of up to ``RUN_STEPS`` steps straight into the
trajectory's record; two comparisons with the piece's stacked bound vectors,
an or and an argmax find the first element off its bounds: ``lo <= x < hi``
on each stage abscissa, ``|s_i| <= DIVERGENCE_NORM`` on each state.  Each
step's abscissae come before its state, so that element alone ends the
batch: at a step that straddles a breakpoint, or at a state that diverges
after an accepted step.  A straddling step costs one product with
``[R; Phi]``, four bisections of the table in Python floats, and one product
with G.
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
    full_steps: int  # steps that straddle a breakpoint, taken stage by stage
    batches: int  # run-map products, each of up to RUN_STEPS steps on one piece
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
    signed line table ``nl.lines`` (one bisection of its starts), writes up
    to ``RUN_STEPS`` steps on that piece into the trajectory with one product
    by the piece's run map from ``_run_map`` (built the first time the piece
    is visited), and tests them once against the map's bound vectors.  Only
    the short last batch slices the map.  A step with a stage abscissa below
    the piece's ``lo`` or at or above its ``hi`` straddles a breakpoint: the
    batch ends before it, and it is taken stage by stage, each stage's line
    looked up in ``nl.lines`` as ``nl.evaluate`` does, and counted in
    ``full_steps``.  ``batches`` counts the products.

    Divergence (a state component of magnitude above 1e8) truncates the run
    with a ``diverged`` verdict; the same bound test finds it in a batch.  A
    NaN state passes every bound test, so one check after the loop ends a
    run whose last state is not finite ``diverged`` at its first such state.
    Otherwise the trailing half of the trajectory decides between
    ``sustained_oscillation`` (with measured amplitude and frequency) and
    ``converged_to_origin``.  ``ValueError`` rejects a non-finite x0, T or
    dt, a dt <= 0, a T < 100 dt and an x0 that is not of shape (order,),
    naming the values it got.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(T):
        raise ValueError(f"horizon must be finite, got {T}")
    if T < 100.0 * dt:
        raise ValueError(f"horizon too short: need T >= 100*dt, got T = {T}, dt = {dt}")
    A, B, C_loop = loop_matrices(plant)
    n = len(B)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"initial state must have shape ({n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"initial state must be finite, got {x0}")

    R, Cm, Phi, G = _folded_step(A, B, C_loop, dt)
    R_Phi = np.vstack([R, Phi])
    lines, starts = nl.lines, nl.line_starts
    piece_maps: list = [None] * len(lines)
    _, (c10, *_), (c20, c21, *_), (c30, c31, c32, _) = Cm.tolist()

    steps = int(round(T / dt))
    width = n + 4
    # row k: the four stage abscissae of step k, then the state after it;
    # a batch's product is written here, so its accepted states stay in place
    rows = np.empty((steps + 1, width))
    flat, traj = rows.reshape(-1), rows[:, 4:]
    traj[0] = x0
    affine = np.ones(n + 1)  # [s, 1]
    s = affine[:n]
    off_all = np.empty(RUN_STEPS * width, dtype=bool)
    above_all = np.empty_like(off_all)
    r = np.empty(width)  # a straddling step's [R; Phi] s
    r_stages, r_state = r[:4], r[4:]
    u = np.empty(4)
    Gu = np.empty(n)
    k = 0
    full_steps = batches = 0
    diverged = False
    while k < steps:
        s[:] = traj[k]
        piece = bisect_right(starts, float(C_loop.dot(s))) - 1
        maps = piece_maps[piece]
        if maps is None:
            maps = piece_maps[piece] = _run_map(R, Cm, Phi, G, lines[piece])
        run_map, low, high = maps
        todo = steps - k
        if todo >= RUN_STEPS:
            todo, off, above = RUN_STEPS, off_all, above_all
        else:  # the short last batch
            size = todo * width
            run_map, low, high = run_map[:size], low[:size], high[:size]
            off, above = off_all[:size], above_all[:size]
        out = flat[(k + 1) * width : (k + 1 + todo) * width]
        run_map.dot(affine, out)
        batches += 1
        # the first stage abscissa off [lo, hi) or state past the norm
        np.less(out, low, off)
        np.greater_equal(out, high, above)
        off |= above
        first = int(off.argmax())
        run, row = divmod(first, width)
        if not off.item(first):
            run = todo
        elif row >= 4:  # step run + 1 stays on the piece, and its state diverges
            k += run + 1
            diverged = True
            break
        k += run
        if run < todo:
            # step k + 1 straddles a breakpoint: stage by stage, each stage's
            # line looked up in nl.lines as nl.evaluate does
            R_Phi.dot(traj[k], r)
            r0, r1, r2, r3 = r_stages.tolist()
            _, _, a, b, m = lines[bisect_right(starts, r0) - 1]
            u0 = b + m * (r0 - a)
            x = r1 + c10 * u0
            _, _, a, b, m = lines[bisect_right(starts, x) - 1]
            u1 = b + m * (x - a)
            x = r2 + (c20 * u0 + c21 * u1)
            _, _, a, b, m = lines[bisect_right(starts, x) - 1]
            u2 = b + m * (x - a)
            x = r3 + (c30 * u0 + c31 * u1 + c32 * u2)
            _, _, a, b, m = lines[bisect_right(starts, x) - 1]
            u3 = b + m * (x - a)
            u[:] = u0, u1, u2, u3
            full_steps += 1
            k += 1
            state = traj[k]
            np.add(r_state, G.dot(u, Gu), state)
            if any(abs(v) > DIVERGENCE_NORM for v in state.tolist()):
                diverged = True
                break
    if not np.isfinite(traj[k]).all():
        # a NaN passes the bound tests, and every state after it is NaN
        k = int(np.flatnonzero(~np.isfinite(traj[: k + 1]).all(axis=1))[0])
        diverged = True

    traj = np.ascontiguousarray(traj[: k + 1])  # the result keeps no stage columns
    t = np.arange(len(traj)) * dt
    x = traj.dot(C_loop)

    if diverged:
        return SimResult(t, traj, x, DIVERGED, full_steps, batches)

    measured = measure_oscillation(t, x)
    if measured is None:
        return SimResult(t, traj, x, CONVERGED, full_steps, batches)
    amp, freq = measured
    return SimResult(
        t, traj, x, SUSTAINED, full_steps, batches, amplitude=amp, frequency=freq
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
        U[i] = m * (R[i] + Cm[i, :i].dot(U[:i]))
        v[i] = b + m * Cm[i, :i].dot(v[:i])
    step = np.eye(n + 1)
    step[:n, :n] = Phi + G.dot(U)
    step[:n, n] = G.dot(v)
    stages = np.hstack([R + Cm.dot(U), Cm.dot(v)[:, None]])
    powers = np.empty((RUN_STEPS + 1, n + 1, n + 1))
    powers[0] = np.eye(n + 1)
    chain = list(powers)
    for power, following in zip(chain, chain[1:]):
        step.dot(power, following)
    blocks = np.empty((RUN_STEPS, n + 4, n + 1))
    np.matmul(stages, powers[:-1], out=blocks[:, :4])
    blocks[:, 4:] = powers[1:, :n]
    above = math.nextafter(DIVERGENCE_NORM, math.inf)
    bounds = np.empty((2, RUN_STEPS, n + 4))
    bounds[:] = np.array([[lo] * 4 + [-DIVERGENCE_NORM] * n, [hi] * 4 + [above] * n])[:, None]
    low, high = bounds.reshape(2, -1)
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
