"""Closed-loop time simulation of the autonomous feedback system.

The loop realizes x -> y(x) -> -G(s) -> x with fixed-step classical
Runge-Kutta.  The verdict distinguishes trajectories that blow up, settle,
or lock onto a sustained oscillation, whose amplitude and frequency are
measured from zero crossings of the loop signal.

The loop is linear apart from u = y(x), so one RK4 step folds into matrices
built once per (plant, nl, dt): stage i reads
x_i = R_i s + sum_{j<i} Cm_ij u_j, feeds u_i = y(x_i), and the step ends at
s' = Phi s + G u.  When stage i lies on a linear piece y = m_i x + b_i, the
four stage inputs solve a unit lower-triangular system, so the step is an
affine map of s for each pattern of pieces its stages lie on.  A run of steps whose stages all stay on one
piece is advanced by one product with that map's precomputed powers; a step
whose stages straddle a breakpoint is taken through its own pattern's map,
in the same product as the run after it.  All are the same RK4 step, up to
rounding.

The pieces are the nonlinearity's signed line table ``nl.lines``, one entry
per signed piece: its line and the half-open interval ``lo <= x < hi`` of the
floats that lie on it.  A product costs a fixed handful of NumPy calls,
whatever its length: one matrix-vector product with a stacked map writes
the stage abscissae and states of up to ``RUN_STEPS`` steps straight into
the trajectory's record, reading [s, 1] from the record's row before them;
two comparisons with the map's stacked bound vectors, an or and an argmax
find the first element off its bounds: ``lo <= x < hi`` on each stage
abscissa, ``|s_i| <= DIVERGENCE_NORM`` on each state.  Each step's
abscissae come before its state, so that element alone ends the product: at
a step that straddles a breakpoint, or at a state that diverges after an
accepted step.

At a straddling step the product has already computed the abscissa of its
first stage off the piece, exactly, since the stages before it lie on the
piece; one bisection of the table gives that stage's piece q, and the guess
is that the later stages lie on q too.  The crossing map of a stage
pattern, four indices into ``nl.lines``, stacks that pattern's step, each
stage row bounded by its own piece, in front of its last piece's run map
times that step, so the next product takes the straddling step and the run
after it, and its bound test checks the guess.  Where the guess misses in
that first block, at stage r on piece q, the next product takes the
pattern that keeps the stages before r and guesses q for the rest: their
rows keep their bits, so stage r's abscissa comes out the same and lies on
q, and each retry fixes one more stage.

The folded step, the run maps and the crossing maps are kept for the last
(plant, nl, dt) simulated, each map built at its first use, so calls in a
row on one loop, as a cycle's two runs are, share them; a call takes the
same products whatever ran before it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

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
    full_steps: int  # steps that straddle a breakpoint, each through its pattern's map
    batches: int  # products with a run map or a crossing map
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
    ``_folded_step`` and taken as the module docstring says.  The first
    product starts on the piece holding C x0 (one bisection of
    ``nl.line_starts``) and takes up to ``RUN_STEPS`` steps on it by the
    piece's run map from ``_run_map``.
    Each product after it goes on with the piece it ended on; where its
    first step starts off that piece, it stops there, and the next product
    takes the piece of that step's first stage abscissa, C s: not a
    straddle.  A step that straddles a breakpoint ends the product, and the
    next product is the crossing map from ``_crossing_map`` for the stage
    pattern guessed; one whose guess misses in its first block is followed
    by the refined pattern's.  The folded step and the maps come from
    ``_loop``, kept across calls on one (plant, nl, dt), each map built at
    its first use.  Only the short last product slices its map.
    ``full_steps`` counts the straddling steps and ``batches`` the products.

    Divergence (a state component of magnitude above 1e8) truncates the run
    with a ``diverged`` verdict; the same bound test finds it in a product.
    A NaN state passes every bound test, so one check after the loop ends a
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

    bits = np.concatenate([A.ravel(), B, C_loop, np.ravel(nl.lines)]).tobytes()
    run_maps, crossings = _loop(n, dt, bits)
    starts = nl.line_starts

    steps = int(round(T / dt))
    width = n + 5
    # row k: the four stage abscissae of step k, the state after it and 1; a
    # product reads [s, 1] from a row and writes its steps, each with its 1,
    # into the rows after it, so their accepted states stay in place
    rows = np.empty((steps + 1, width))
    rows[0, -1] = 1.0
    flat, traj = rows.reshape(-1), rows[:, 4:-1]
    traj[0] = x0

    # the stage pattern whose crossing map the next product takes, or None
    # for the run map of the piece
    pattern = None
    piece = bisect_right(starts, float(C_loop.dot(x0))) - 1
    k = 0
    full_steps = batches = 0
    diverged = False
    while k < steps:
        lead = pattern is not None  # the first block is a straddling step
        matrix, low, high = crossings[pattern] if lead else run_maps[piece]
        size = len(low)
        out = flat[(k + 1) * width : (k + 1) * width + size]
        if len(out) < size:  # the short last product
            size = len(out)
            matrix, low, high = matrix[:size], low[:size], high[:size]
        matrix.dot(flat[k * width + 4 : (k + 1) * width], out)
        batches += 1
        # the first stage abscissa off its piece or state past the norm
        off = out < low
        off |= out >= high
        first = int(off.argmax())
        if not off.item(first):
            k += size // width
            pattern = None
            continue
        run, row = divmod(first, width)
        if row >= 4:  # step run + 1 stays on its pieces, and its state diverges
            k += run + 1
            diverged = True
            break
        k += run
        q = bisect_right(starts, out.item(first)) - 1
        if row == 0 and run == lead:
            # the run after the lead starts on another piece: not a straddle
            pattern = None
        elif run or not lead:
            # step k + 1 straddles a breakpoint; the stages before `row` lie
            # on the piece, so this is the stage's abscissa: guess that it
            # and the stages after it lie on its piece q
            full_steps += 1
            pattern = (piece,) * row + (q,) * (4 - row)
        else:
            # the guess missed in the lead at stage `row`: keep the stages
            # before it, whose rows give that stage's abscissa again, on q
            pattern = pattern[:row] + (q,) * (4 - row)
        piece = q
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


@lru_cache(maxsize=1)
def _loop(n: int, dt: float, bits: bytes) -> tuple:
    """(run_maps, crossings) of the loop of order ``n`` and step ``dt`` whose
    A, B, C_loop and ``nl.lines`` have these floats' bits, in that order.

    ``run_maps[piece]`` is ``_run_map`` on ``nl.lines[piece]`` and
    ``crossings[pattern]`` is ``_crossing_map`` with stage i on
    ``nl.lines[pattern[i]]`` and the run after it on the last of them; each
    is built from ``_folded_step``'s matrices at its first lookup and kept.
    Their arrays are read-only, since every call on the loop reads them.
    The key is the bits, as in ``linsys._gain_free``, since the sign of a
    zero can reach a map.  One entry: the calls that share a loop, a
    cycle's two runs, come in a row, and the next cycle has another dt.
    """
    floats = np.frombuffer(bits)
    A = floats[: n * n].reshape(n, n)
    B, C_loop = floats[n * n : n * n + n], floats[n * n + n : n * n + 2 * n]
    lines = tuple(map(tuple, floats[n * n + 2 * n :].reshape(-1, 5).tolist()))
    folded = _folded_step(A, B, C_loop, dt)
    run_maps = _Kept(lambda piece: _run_map(*folded, lines[piece]))
    crossings = _Kept(lambda pattern: _crossing_map(
        *folded, tuple(lines[i] for i in pattern), run_maps[pattern[3]]
    ))
    return run_maps, crossings


class _Kept(dict):
    """A dict whose missing entry is built by ``build(key)`` and kept."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


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


def _step(R, Cm, Phi, G, pattern: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(stages, step): one RK4 step whose stage i lies on the line ``pattern[i]``.

    ``pattern`` holds four entries of ``nl.lines``.  On the lines
    y = m_i x + b_i the stage inputs solve
    ``(I - diag(m) Cm) u = diag(m) R s + b``, a unit lower-triangular system,
    so u = U s + v and the step is the affine map ``s' = (Phi + G U) s + G v``.
    ``step`` is that map on [s, 1], and ``stages``, applied to [s, 1], gives
    the four stage abscissae.
    """
    n = Phi.shape[0]
    U = np.empty((4, n))
    v = np.empty(4)
    for i, (_, _, x0, y0, m) in enumerate(pattern):
        c = Cm[i, :i]
        U[i] = m * (R[i] + c.dot(U[:i]))
        v[i] = (y0 - m * x0) + m * c.dot(v[:i])
    step = np.zeros((n + 1, n + 1))
    np.add(Phi, G.dot(U), step[:n, :n])
    step[:n, n] = G.dot(v)
    step[n, n] = 1.0
    stages = np.empty((4, n + 1))
    np.add(R, Cm.dot(U), stages[:, :n])
    stages[:, n] = Cm.dot(v)
    return stages, step


def _bounds(pattern: tuple, n: int) -> np.ndarray:
    """[low, high] of one step's block: its stages on their pieces of ``pattern``.

    ``low <= block @ [s, 1] < high`` row by row holds where stage i's
    abscissa lies within ``pattern[i]``'s [lo, hi) and each state component,
    and the 1 after them, within ``DIVERGENCE_NORM``.  The top piece's high
    is NaN, since x >= NaN holds for no x: +inf then lies on that piece, as
    the bisection of ``nl.line_starts`` puts it.
    """
    above = math.nextafter(DIVERGENCE_NORM, math.inf)
    return np.array([
        [line[0] for line in pattern] + [-DIVERGENCE_NORM] * (n + 1),
        [line[1] if line[1] < math.inf else math.nan for line in pattern]
        + [above] * (n + 1),
    ])


def _run_map(
    R, Cm, Phi, G, line: tuple[float, float, float, float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(map, low, high): 1..RUN_STEPS steps on the piece ``line`` of ``nl.lines``.

    Row block k of ``map`` (of n + 5 rows), applied to [s, 1], gives the four
    stage abscissae of step k + 1, then the state after it and 1: the
    powers of ``_step``'s map with every stage on ``line``.  ``low`` and
    ``high`` repeat ``_bounds`` for each block.  ``map`` is column-major.
    """
    stages, step = _step(R, Cm, Phi, G, (line,) * 4)
    n1 = len(step)
    powers = np.empty((RUN_STEPS + 1, n1, n1))
    powers[0] = np.eye(n1)
    chain = list(powers)
    for power, following in zip(chain, chain[1:]):
        step.dot(power, following)
    blocks = np.empty((RUN_STEPS, n1 + 4, n1))
    np.matmul(stages, powers[:-1], out=blocks[:, :4])
    blocks[:, 4:] = powers[1:]
    low, high = np.tile(_bounds((line,) * 4, n1 - 1), RUN_STEPS)
    # column-major: applied to [s, 1], a tall map of n + 1 columns is then
    # BLAS's gemv without transpose, which streams each column once, about
    # twice as fast as the transposed kernel a row-major map calls
    maps = np.asfortranarray(blocks.reshape(-1, n1)), low, high
    for a in maps:
        a.flags.writeable = False  # calls on one loop share it (``_loop``)
    return maps


def _crossing_map(
    R, Cm, Phi, G, pattern: tuple, tail: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(map, low, high): a straddling step, then the run ``tail`` after it.

    Block 0 is ``_step``'s map for ``pattern``, each stage row bounded by its
    own piece; the blocks after it are those of the run map ``tail`` (from
    ``_run_map``) times that step.  So one product from [s, 1] takes the
    straddling step and up to ``RUN_STEPS`` steps after it, in
    ``RUN_STEPS + 1`` blocks.
    """
    stages, step = _step(R, Cm, Phi, G, pattern)
    run_map, low, high = tail
    n1 = len(step)
    matrix = np.empty((n1 + 4 + len(run_map), n1), order="F")  # as ``_run_map``'s
    matrix[:4] = stages
    matrix[4 : n1 + 4] = step
    np.matmul(run_map, step, out=matrix[n1 + 4 :])
    first_low, first_high = _bounds(pattern, n1 - 1)
    maps = matrix, np.concatenate([first_low, low]), np.concatenate([first_high, high])
    for a in maps:
        a.flags.writeable = False
    return maps


def measure_oscillation(t: np.ndarray, x: np.ndarray) -> tuple[float, float] | None:
    """Amplitude and angular frequency of a sustained oscillation, or None.

    The first half of the record is discarded as transient; the second half
    is the analysis window.  A zero crossing is a change of sign bit between
    two samples, so a sample of 0.0 counts as positive and one of -0.0 as
    negative; its instant is located by linear interpolation, and the mean
    rising-to-rising gap gives the period.
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

    negative = np.signbit(xw)
    flips = np.nonzero(negative[:-1] != negative[1:])[0]
    if len(flips) < MIN_CROSSINGS:
        return None
    # linear interpolation of each crossing instant; from -0.0 to 0.0 it is
    # the first sample's
    x0, x1 = xw[flips], xw[flips + 1]
    shift = np.divide(x0 * (tw[flips + 1] - tw[flips]), x1 - x0,
                      out=np.zeros(len(flips)), where=x1 != x0)
    tc = tw[flips] - shift
    rising = tc[negative[flips]]
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
