"""Limit cycle estimation: solve F(X) G(jw) = -1 and classify the solutions.

Each negative-real-axis crossing of G (``linsys._crossings``) contributes a
gain margin K; amplitudes solving F(X) = K are candidate limit cycles.  F on
the scan's amplitude grid depends on the nonlinearity alone: its table is
built and checked once per map (the array kernel ``descfun._df``) and kept
on it with the index of the runs on which F is monotone.  So each K costs a
bisection in each run, which gives its brackets and exact zeros, and the
refinement of each bracket on its own, whose trial points take F one
amplitude at a time in Python floats (``descfun._df_at``, with ``_df``'s
bits).  Stability is decided by probing whether -1/F just beyond the
candidate amplitude leaves the closed Nyquist contour while -1/F just below
stays enclosed.  Both probes lie on the negative real axis, so each
enclosure is a sum over the contour's signed crossings of that axis
(``linsys.nyquist_contour``), taken as a list.  ``analyze`` takes F at
both probes and the amplitude from ``_df_at``, and ``classify`` at both
probes; both read the verdict off those values in ``_verdict``.  The
steady-state orbit in state space is estimated as an ellipse spanned by two
basis vectors, Y1 times the imaginary and the real parts of the state
resolvent h(j omega) (``_ellipse``), which depends on the plant's
denominator and omega alone and is kept with the crossovers
(``linsys._gain_free``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import neg

import numpy as np

from .descfun import _df, _df_at
from .linsys import LinearPlant, _contour, h_of_jw, log_grid
from .piecewise import PiecewiseNonlinearity

STABLE = "stable"
UNSTABLE = "unstable"

# Log-grid points of the F(X) = K scan, the |F - K| that ends the refinement
# of a root, and the cap on refinement steps per bracket.
N_GRID = 4096
VALUE_TOL = 1e-10
MAX_ITER = 200
# Relative offsets of the run of points above a jump: 4^-k, from a quarter
# of the log grid's step (0.39 %) down to 2e-13.
RUN = 4.0 ** -np.arange(5, 22)
# Relative offset of the two stability probes from the cycle amplitude.
DELTA = 1e-3


class IntersectionError(ValueError):
    """F(X) = K has no isolated roots: F is not finite, or equals K on a plateau."""


class NonFiniteCycleError(ValueError):
    """A predicted cycle's first harmonic Y1 or its state ellipse is not finite."""


class AmbiguousStabilityError(RuntimeError):
    """Both amplitude probes gave the same enclosure verdict, or ``probe``
    names the amplitude and the F <= 0 there, where -1/F is not on the
    negative real axis (both enclosures are then None)."""

    def __init__(self, X, omega, enclosed_below, enclosed_above, *, probe=None):
        if probe is None:
            reason = f"probe below enclosed={enclosed_below}, above enclosed={enclosed_above}"
        else:
            reason = (f"F = {probe[1]} <= 0 at the probe X = {probe[0]}, "
                      f"so -1/F is not on the negative real axis")
        super().__init__(
            f"cannot classify the stability of the cycle at X = {X}, omega = {omega}: "
            + reason
        )
        self.X = X
        self.omega = omega
        self.enclosed_below = enclosed_below
        self.enclosed_above = enclosed_above
        self.probe = probe


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


@dataclass(frozen=True)
class CrossoverAnalysis:
    """Everything derived from one phase crossover of the plant."""

    omega: float
    gain_margin: float
    cycles: tuple[LimitCycleEstimate, ...]


def _scan_table(
    nl: PiecewiseNonlinearity, x_max: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, tuple[tuple[int, int, bool], ...]]:
    """The F = K scan's amplitudes and F on them, which no K changes, checked.

    The amplitudes ``Xr`` are a log grid up to ``x_max`` (default 100x the
    last breakpoint), with the marks that end the brackets inserted; returns
    ``Xr``, F on it (the unchecked ``descfun._df``), the positions of the log
    grid's points in ``Xr``, the least F on them, and the run index: the
    maximal runs ``(start, stop, rising)`` of positions on which F is
    nondecreasing (``rising``) or nonincreasing and not NaN, in order.
    Neighbouring runs share the position where F turns, unless a NaN (at a
    mark, where F is not checked) lies between them; every pair of
    neighbouring positions without a NaN lies in one run.  Raises
    ``IntersectionError`` when the grid is not finite or positive, or F on
    the log grid is not finite.
    """
    if x_max is None:
        ref = nl.max_breakpoint
        x_max = 100.0 * ref if ref > 0 else 100.0
    if not math.isfinite(x_max):
        raise IntersectionError(f"the amplitude grid is not finite: it ends at {x_max}")
    lo = x_max * 1e-7
    if not lo > 0:
        raise IntersectionError(f"the amplitude grid is not positive: it starts at {lo}")
    X = log_grid(lo, x_max, N_GRID)
    # F kinks at each breakpoint and rises as a square root just above a
    # jump, where false position crawls: the brackets also end at each
    # breakpoint and at a geometric run of points above each jump
    jumps = [x1 for x1, relay, _ in nl.terms if relay]
    marks = np.concatenate([nl.breakpoints, np.outer(jumps, 1.0 + RUN).ravel()])
    marks = np.sort(marks[(marks > lo) & (marks < x_max)])
    at = np.searchsorted(X, marks)
    Xr = np.insert(X, at, marks)
    with np.errstate(over="ignore", invalid="ignore"):
        Fr = _df(nl, Xr)
    on_grid = np.delete(np.arange(len(Xr)), at + np.arange(len(marks)))
    F = Fr[on_grid]
    overflow = ~np.isfinite(F)
    if overflow.any():
        raise IntersectionError(f"F is not finite at X = {X[overflow][0]}")
    for a in (Xr, Fr, on_grid):
        a.flags.writeable = False
    return Xr, Fr, on_grid, float(F.min()), _runs(Fr)


def _runs(F: np.ndarray) -> tuple[tuple[int, int, bool], ...]:
    """``_scan_table``'s run index of F, by array code."""
    nan = np.isnan(F)
    # each step's direction: +1 up, -1 down, 0 flat, 2 to or from a NaN
    step = (F[1:] > F[:-1]).astype(np.int8) - (F[1:] < F[:-1])
    step[nan[1:] | nan[:-1]] = 2
    # the first steps of the stretches of equal steps that are not flat
    heads = np.flatnonzero(np.concatenate([[True], step[1:] != step[:-1]]))
    moves = heads[step[heads] != 0]
    way = step[moves]
    # a run starts where a stretch without NaN starts, and where a step
    # opposes the last step before it that is not flat, which only the
    # first of equal steps can
    first = ~nan & np.concatenate([[True], nan[:-1]])
    first[moves[1:][way[1:] == -way[:-1]]] = True
    firsts = np.flatnonzero(first)
    stops = np.flatnonzero(~nan & np.concatenate([nan[1:], [True]])) + 1
    # a run stops past the next run's first position or at its stretch's stop
    ends = np.minimum(np.append(firsts[1:] + 1, len(F)),
                      stops[np.searchsorted(stops, firsts, side="right")])
    # it falls where its last step that is not flat falls; flat, it rises
    last = np.searchsorted(moves, ends - 1) - 1
    rising = np.append(way, 1)[last] != -1
    return tuple(zip(firsts.tolist(), ends.tolist(), rising.tolist()))


def _refine_bracket(f, a, b, fa, fb, tol):
    """The last trial point in the bracket [a, b] of floats, a < b, with the
    values ``fa = f(a) != 0`` and ``fb = f(b)``, fa fb <= 0, refined by the
    Illinois variant of false position (Dowell & Jarratt, *BIT* 11, 1971):
    the secant point through the ends' stored values, an end's stored value
    halved when it is kept twice in a row, or the midpoint where that point
    is not strictly inside (a 0 value at an end, an overflow, a NaN, equal
    stored values).  The side kept comes from the unscaled value ``sa``, as
    halving can underflow to 0.  The refinement stops at the first point
    whose value v = f(t) has ``|v| <= tol``, or after ``MAX_ITER`` steps.
    """
    sa, kept = fa, 0  # kept is +1 where a was kept on the last step, -1 where b was
    for _ in range(MAX_ITER):
        d = fb - fa
        t = b - fb * (b - a) / d if d != 0.0 else math.nan
        if not a < t < b:
            t = 0.5 * a + 0.5 * b  # a + b can overflow
        s = f(t)
        if abs(s) <= tol:
            break
        if (s > 0) == (sa > 0):  # t replaces a, b is kept
            a, sa, fa, fb, kept = t, s, s, 0.5 * fb if kept == -1 else fb, -1
        else:
            b, fa, fb, kept = t, 0.5 * fa if kept == 1 else fa, s, 1
    return t


def find_intersections(
    nl: PiecewiseNonlinearity,
    gain_margin: float,
    *,
    x_max: float | None = None,
) -> list[float]:
    """All amplitudes with F(X) = gain_margin, ascending.

    v = F - K is taken on ``_scan_table``'s amplitudes, a dense log grid up
    to ``x_max`` (default 100x the last breakpoint) with marks inserted.
    The default grid's table is kept on ``nl`` (``nl._f_scan``), so one map
    builds and checks it once for every K; the scan runs the unchecked array
    kernel ``descfun._df``.  A bracket opens wherever ``v_i != 0`` and
    ``v_i * v_i+1 <= 0``, and a sample of the log grid with v = 0 is a root.
    F is monotone on each run of the table's run index, so each run holds
    at most one bracket and one range of zeros, found by bisection in Python
    floats; no K touches the rest of the table.  Each bracket, split at the
    breakpoints and above each jump at ``RUN``, is refined by
    ``_refine_bracket`` down to ``|F - K| <= VALUE_TOL``, F at each trial
    point from the unchecked one-amplitude ``descfun._df_at``.
    Raises ``ValueError`` unless 0 < K < inf, and ``IntersectionError`` when
    the grid is not finite or positive, F - K on its log grid is not finite,
    or v = 0 at two consecutive samples of it.
    """
    if not 0 < gain_margin < math.inf:
        raise ValueError(f"gain margin must be positive and finite, got {gain_margin}")
    Xr, Fr, on_grid, F_min, runs = nl._f_scan if x_max is None else _scan_table(nl, x_max)
    if F_min - gain_margin == -math.inf:  # F - K overflows on the log grid
        with np.errstate(over="ignore"):
            at = on_grid[Fr[on_grid] - gain_margin == -math.inf][0]
        raise IntersectionError(f"F is not finite at X = {Xr[at]}")
    K, X, F = gain_margin, memoryview(Xr), memoryview(Fr)
    roots, zeros = [], []
    for start, stop, rising in runs:
        # F, or -F where F falls, ascends on the run
        key, k = (None, K) if rising else (neg, -K)
        i = bisect_left(F, k, start, stop, key=key)  # the first F >= K, or F <= K
        if start < i < stop:
            roots.append(_refine_bracket(lambda t: _df_at(nl, t) - K, X[i - 1], X[i],
                                         F[i - 1] - K, F[i] - K, VALUE_TOL))
        if i < stop and F[i] == K:
            zeros += range(i, bisect_right(F, k, i, stop, key=key))

    at_zero = []
    if zeros:  # rare: F equals K at a position of the table
        zero = np.zeros(len(Xr), bool)
        zero[zeros] = True
        zero = zero[on_grid]
        at_zero = Xr[on_grid[zero]]
        if (zero[:-1] & zero[1:]).any():
            raise IntersectionError(
                f"F(X) = K = {gain_margin} on a plateau: F - K is exactly 0 at "
                f"consecutive amplitudes in X = [{at_zero[0]}, {at_zero[-1]}]"
            )
        at_zero = at_zero.tolist()
    dedup: list[float] = []
    for r in sorted(roots + at_zero):
        if not dedup or abs(r - dedup[-1]) > 1e-6 * max(abs(r), 1e-300):
            dedup.append(r)
    return dedup


def classify(
    plant: LinearPlant,
    nl: PiecewiseNonlinearity,
    X: float,
    omega: float,
    *,
    contour: np.ndarray,
) -> str:
    """Stable/unstable verdict for a candidate cycle amplitude.

    Probes p = -1/F at X*(1 +/- DELTA), F from ``_df_at`` with the bits of
    ``df_value``: the cycle is stable when the outward probe escapes the
    closed Nyquist contour while the inward probe remains enclosed, and
    unstable in the mirrored case.  ``contour`` is the crossing table of
    ``nyquist_contour``; the contour winds about p by the signed count of its
    crossings left of p.  Raises ``ValueError`` as ``df_value`` does on the
    probes, where X < 0 or is NaN, or X = 0 and ``nl`` jumps at the origin,
    and ``AmbiguousStabilityError`` when F <= 0 at a probe or both probes
    give the same verdict.
    """
    probes = (X * (1.0 - DELTA), X * (1.0 + DELTA))
    if not all(x >= 0 for x in probes):  # NaN fails too
        raise ValueError("amplitudes must be >= 0")
    if 0.0 in probes and nl.has_origin_jump:
        raise ValueError("X = 0 is singular for a nonlinearity jumping at the origin")
    below, above = (_df_at(nl, x) if x > 0 else nl.initial_slope for x in probes)
    return _verdict(X, omega, below, above, contour=contour.tolist())


def _verdict(X: float, omega: float, F_below: float, F_above: float, *, contour) -> str:
    """``classify``'s verdict from F at its two probes X*(1 -/+ DELTA);
    ``contour`` is the crossing table as a list of rows.  The counts are
    small integers, so their sum is exact in any order."""
    enclosed = []
    for xs, F in ((X * (1.0 - DELTA), F_below), (X * (1.0 + DELTA), F_above)):
        if F <= 0:
            raise AmbiguousStabilityError(X, omega, None, None, probe=(xs, F))
        p = -1.0 / F
        enclosed.append(sum(n for x, n in contour if x < p) != 0)
    below, above = enclosed
    if below and not above:
        return STABLE
    if above and not below:
        return UNSTABLE
    raise AmbiguousStabilityError(X, omega, below, above)


def ellipse_estimate(
    plant: LinearPlant, omega: float, Y1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Basis vectors x(0) and x(pi/2w) of the steady-state state ellipse.

    Componentwise the steady state is ``Im(Y1 H(jw) exp(j w t))``, H the
    state resolvent ``h_of_jw``; the two returned vectors, at t = 0 and a
    quarter period later, are ``Y1 Im H`` and ``Y1 Re H`` (``_ellipse``).
    """
    x0, xq = np.array(_ellipse(Y1, h_of_jw(plant, omega).tolist()), dtype=float)
    return x0, xq


def _ellipse(Y1: float, h) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``ellipse_estimate``'s vectors ``Y1 Im h`` and ``Y1 Re h`` from the
    resolvent ``h`` as complex numbers, in Python floats: a float product is
    correctly rounded, so they have the bits of the array products."""
    return tuple(Y1 * v.imag for v in h), tuple(Y1 * v.real for v in h)


def analyze(plant: LinearPlant, nl: PiecewiseNonlinearity) -> list[CrossoverAnalysis]:
    """Full limit-cycle estimation for every phase crossover of the plant.

    One crossover search gives both the crossovers and the contour's
    crossing table that classifies their cycles.  Three ``_df_at`` calls per
    cycle, at X*(1 - DELTA), X and X*(1 + DELTA), give both stability probes
    and Y1 = F(X) X, with the bits of ``classify`` and ``df_value(nl, X) * X``:
    F at an amplitude does not depend on the others in an array call, as the
    power-of-two scale that ``_psi`` reads off the first one is exact.  The
    ellipse is ``ellipse_estimate``'s (``_ellipse``) from the state
    resolvent that ``_contour`` hands over with each crossover.
    """
    results = []
    crossovers, table, hs = _contour(plant)
    for (omega, K, _), h in zip(crossovers, hs):
        cycles = []
        for X in find_intersections(nl, K):
            probes = (X * (1.0 - DELTA), X, X * (1.0 + DELTA))
            below, F, above = (_df_at(nl, x) for x in probes)
            stability = _verdict(X, omega, below, above, contour=table)
            Y1 = F * X
            x0, xq = _ellipse(Y1, h)
            if not all(map(math.isfinite, (Y1, *x0, *xq))):
                raise NonFiniteCycleError(
                    f"the first harmonic Y1 = {Y1} or the state ellipse of the "
                    f"cycle at omega = {omega}, X = {X} is not finite"
                )
            cycles.append(
                LimitCycleEstimate(
                    omega=omega,
                    X=X,
                    stability=stability,
                    gain_margin=K,
                    Y1=Y1,
                    ellipse_x0=x0,
                    ellipse_xq=xq,
                )
            )
        results.append(CrossoverAnalysis(omega=omega, gain_margin=K, cycles=tuple(cycles)))
    return results
