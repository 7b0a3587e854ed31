"""Limit cycle estimation: solve F(X) G(jw) = -1 and classify the solutions.

Each negative-real-axis crossing of G (``linsys._crossings``) contributes a
gain margin K; amplitudes solving F(X) = K are candidate limit cycles.  F on
the scan's amplitude grid depends on the nonlinearity alone: its table is
built and checked once per map (the array kernel ``descfun._df``) and kept
on it, so each K costs a subtraction and the refinement of its brackets,
whose trial points take F one amplitude at a time in Python floats
(``descfun._df_at``, with ``_df``'s bits).  Stability is decided by probing
whether -1/F just beyond the candidate amplitude leaves the closed Nyquist
contour while -1/F just below stays enclosed.  Both probes lie on the
negative real axis, so each enclosure is a sum over the contour's signed
crossings of that axis (``linsys.nyquist_contour``).  ``analyze`` takes F
at both probes and the amplitude from ``_df_at``, and ``classify`` at both
probes; both read the verdict off those values in ``_verdict``.  The
steady-state orbit in state space is estimated as an ellipse spanned by two
basis vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The F = K scan's amplitudes and F on them, which no K changes, checked.

    The amplitudes ``Xr`` are a log grid up to ``x_max`` (default 100x the
    last breakpoint), with the marks that end the brackets inserted; returns
    ``Xr``, F on it (the unchecked ``descfun._df``), the positions of the log
    grid's points in ``Xr`` and the least F on them.  Raises
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
    return Xr, Fr, on_grid, float(F.min())


def _refine_sign_changes(f, grid, vals, tol):
    """The last trial points, in grid order, of every bracket of the sign
    changes of ``vals = f(grid)``, refined at once by the Illinois variant of
    false position (Dowell & Jarratt, *BIT* 11, 1971): the secant point
    through the ends' stored values, an end's stored value halved when it is
    kept twice in a row, or the midpoint where that point is not strictly
    inside (a 0 value at an end, an overflow, a NaN, equal stored values).
    The side kept comes from the unscaled value ``sa``, as halving can
    underflow to 0.  A bracket freezes at the first point whose value v has
    ``|v| <= tol``, or after ``MAX_ITER`` steps.  A step makes one call of
    ``f``, from the list of the live brackets' trial points to the list of
    their values; the bookkeeping in Python floats has the bits of an
    elementwise array form, whose division by 0 takes the midpoint.
    """
    # the brackets' left ends: v_i != 0 and v_i v_i+1 <= 0, in signs, whose
    # product cannot overflow or underflow to 0
    v = np.sign(vals)
    i = np.nonzero((v[:-1] != 0.0) & (v[:-1] * v[1:] <= 0.0))[0]
    x = grid[i].tolist()  # each bracket takes a step
    # [index, a, b, sa, fa, fb, kept]: a < b throughout; kept is +1 where a
    # was kept on the last step, -1 where b was
    live = [
        [j, a, b, sa, sa, fb, 0.0]
        for j, (a, b, sa, fb) in enumerate(
            zip(grid[i].tolist(), grid[i + 1].tolist(), vals[i].tolist(), vals[i + 1].tolist())
        )
    ]
    for _ in range(MAX_ITER):
        if not live:
            break
        t = []
        for _, a, b, _, fa, fb, _ in live:
            d = fb - fa
            tk = b - fb * (b - a) / d if d != 0.0 else math.nan
            t.append(tk if a < tk < b else 0.5 * a + 0.5 * b)  # a + b can overflow
        following = []
        for bracket, tk, s in zip(live, t, f(t)):
            j, a, b, sa, fa, fb, kept = bracket
            x[j] = tk
            if abs(s) <= tol:
                continue
            if (s > 0) == (sa > 0):  # t replaces a, b is kept
                bracket[1:] = tk, b, s, s, 0.5 * fb if kept == -1.0 else fb, -1.0
            else:
                bracket[2:] = tk, sa, 0.5 * fa if kept == 1.0 else fa, s, 1.0
            following.append(bracket)
        live = following
    return x


def find_intersections(
    nl: PiecewiseNonlinearity,
    gain_margin: float,
    *,
    x_max: float | None = None,
) -> list[float]:
    """All amplitudes with F(X) = gain_margin, ascending.

    v = F - K is sampled on ``_scan_table``'s amplitudes, a dense log grid up
    to ``x_max`` (default 100x the last breakpoint) with marks inserted.
    The default grid's table is kept on ``nl`` (``nl._f_scan``), so one map
    builds and checks it once for every K; the scan runs the unchecked array
    kernel ``descfun._df``.  A bracket opens wherever ``v_i != 0`` and
    ``v_i * v_i+1 <= 0``, and a sample with v = 0 is a root; the brackets,
    split at the breakpoints and above each jump at ``RUN``, are refined
    together by ``_refine_sign_changes`` down to ``|F - K| <= VALUE_TOL``,
    F at each trial point from the unchecked one-amplitude ``descfun._df_at``.
    Raises ``ValueError`` unless 0 < K < inf, and ``IntersectionError`` when
    the grid is not finite or positive, F - K on its log grid is not finite,
    or v = 0 at two consecutive samples of it.
    """
    if not 0 < gain_margin < math.inf:
        raise ValueError(f"gain margin must be positive and finite, got {gain_margin}")
    Xr, Fr, on_grid, F_min = nl._f_scan if x_max is None else _scan_table(nl, x_max)
    with np.errstate(over="ignore"):
        v = Fr - gain_margin
    if F_min - gain_margin == -math.inf:  # F - K overflows on the log grid
        at = on_grid[v[on_grid] == -math.inf][0]
        raise IntersectionError(f"F is not finite at X = {Xr[at]}")
    roots = _refine_sign_changes(
        lambda ts: [_df_at(nl, t) - gain_margin for t in ts], Xr, v, VALUE_TOL
    )

    zero = v[on_grid] == 0.0
    at_zero = Xr[on_grid[zero]]
    if (zero[:-1] & zero[1:]).any():
        raise IntersectionError(
            f"F(X) = K = {gain_margin} on a plateau: F - K is exactly 0 at "
            f"consecutive amplitudes in X = [{at_zero[0]}, {at_zero[-1]}]"
        )
    dedup: list[float] = []
    for r in sorted(roots + at_zero.tolist()):
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
    return _verdict(X, omega, below, above, contour=contour)


def _verdict(X: float, omega: float, F_below: float, F_above: float, *, contour) -> str:
    """``classify``'s verdict from F at its two probes X*(1 -/+ DELTA)."""
    enclosed = []
    for xs, F in ((X * (1.0 - DELTA), F_below), (X * (1.0 + DELTA), F_above)):
        if F <= 0:
            raise AmbiguousStabilityError(X, omega, None, None, probe=(xs, F))
        enclosed.append(bool(contour[contour[:, 0] < -1.0 / F, 1].sum() != 0))
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

    Componentwise the steady state is ``A(w) sin(wt + ph)`` with amplitude
    ``A = Y1 |H(jw)|`` and phase ``ph = arg H(jw)``; the two returned
    vectors are ``A sin(ph)`` and ``A cos(ph)``.
    """
    h = h_of_jw(plant, omega)
    amp = Y1 * np.abs(h)
    ph = np.angle(h)
    return amp * np.sin(ph), amp * np.cos(ph)


def analyze(plant: LinearPlant, nl: PiecewiseNonlinearity) -> list[CrossoverAnalysis]:
    """Full limit-cycle estimation for every phase crossover of the plant.

    One crossover search gives both the crossovers and the contour's
    crossing table that classifies their cycles.  Three ``_df_at`` calls per
    cycle, at X*(1 - DELTA), X and X*(1 + DELTA), give both stability probes
    and Y1 = F(X) X, with the bits of ``classify`` and ``df_value(nl, X) * X``:
    F at an amplitude does not depend on the others in an array call, as the
    power-of-two scale that ``_psi`` reads off the first one is exact.
    """
    results = []
    crossovers, contour = _contour(plant)
    for omega, K, _ in crossovers:
        cycles = []
        for X in find_intersections(nl, K):
            probes = (X * (1.0 - DELTA), X, X * (1.0 + DELTA))
            below, F, above = (_df_at(nl, x) for x in probes)
            stability = _verdict(X, omega, below, above, contour=contour)
            Y1 = F * X
            with np.errstate(over="ignore", invalid="ignore"):
                x0, xq = ellipse_estimate(plant, omega, Y1)
            if not np.isfinite([Y1, *x0, *xq]).all():
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
                    ellipse_x0=tuple(float(v) for v in x0),
                    ellipse_xq=tuple(float(v) for v in xq),
                )
            )
        results.append(CrossoverAnalysis(omega=omega, gain_margin=K, cycles=tuple(cycles)))
    return results
