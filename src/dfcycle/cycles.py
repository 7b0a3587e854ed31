"""Limit cycle estimation: solve F(X) G(jw) = -1 and classify the solutions.

Each negative-real-axis crossing of G (``linsys._crossings``) contributes a
gain margin K; amplitudes solving F(X) = K are candidate limit cycles.  F'
in closed form splits the amplitudes into runs on which F rises or falls,
kept on the map with F on a few knots of each (``_run_table``).  A run holds
a root exactly where K lies between F at its ends, found by a bisection of
its knots and refined in Python floats (``descfun._df_at``, with
``descfun._df``'s bits).  A cycle is stable where the closed Nyquist contour
encloses -1/F just below its amplitude and not just above it.  Both points
lie on the negative real axis, so each enclosure is a sum over the contour's
signed crossings of that axis (``linsys.nyquist_contour``): ``analyze``
takes both sums at the crossover's own row, -1/K, and the side of -1/K each
point is on from F's run; ``classify``, the independent check, probes F at
X (1 -/+ ``DELTA``).  The steady-state orbit is the ellipse spanned by Y1
times the imaginary and real parts of the resolvent h(j omega) (``_ellipse``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import neg

import numpy as np

from .descfun import _df, _df_at
from .linsys import LinearPlant, _contour, h_of_jw
from .piecewise import PiecewiseNonlinearity

STABLE = "stable"
UNSTABLE = "unstable"

# The |F - K| that ends the refinement of a root, and the cap on refinement
# steps per bracket.
VALUE_TOL = 1e-10
MAX_ITER = 200
# ``_run_table``'s log-spaced knots per octave up to KNOT_SPAN times the last
# breakpoint, move of F across a cell below which it is not split (relative),
# and relative offsets of the knots above each breakpoint.
KNOTS_PER_OCTAVE = 4
KNOT_SPAN = 100.0
CELL_TOL = 2.0 ** -36
MARKS = 2.0 ** -np.arange(2, 19, 2)
# Relative offset of classify's two stability probes from the cycle amplitude.
DELTA = 1e-3


class IntersectionError(ValueError):
    """F(X) = K has no isolated roots: F is not finite, or equals K on a plateau."""


class NonFiniteCycleError(ValueError):
    """A predicted cycle's first harmonic Y1 or its state ellipse is not finite."""


class AmbiguousStabilityError(RuntimeError):
    """The contour encloses -1/F just below and just above the cycle alike (as
    where F turns at K), or ``probe`` names ``classify``'s probe and the F <= 0
    there, where -1/F is not on the negative real axis (enclosures None)."""

    def __init__(self, X, omega, enclosed_below, enclosed_above, *, probe=None):
        if probe is None:
            reason = f"-1/F enclosed just below={enclosed_below}, just above={enclosed_above}"
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


def _slope_terms(terms, x: float) -> tuple[float, float]:
    """The sums of the rising and of the falling terms of X^2 F' (scaled as in
    ``_run_table``) at x >= their thresholds, a relay +-inf at its own."""
    rising = falling = 0.0
    for a, c, relay, up in terms:
        u = a / x
        w = 1.0 - u * u
        if not relay:
            v = c * math.sqrt(w)
        else:
            v = c * (1.0 - 2.0 * w) / math.sqrt(w) if w > 0.0 else math.copysign(math.inf, c)
        if up:
            rising += v
        else:
            falling += v
    return rising, falling


def _run_table(nl: PiecewiseNonlinearity) -> tuple[tuple, tuple, tuple]:
    """The knots ``X`` of F, F on them (``descfun._df``), and F's runs.

    With u = a/X, (pi/4) X^2 F'(X) = sum_dead dm a sqrt(1 - u^2)
    + sum_relay Y (2u^2 - 1)/sqrt(1 - u^2) over the terms with a < X.  Each
    term is monotone on a cell [L, R] with no breakpoint inside, so with P, Q
    the sums of the rising and the falling terms (``_slope_terms``), F is
    monotone where [P(L) + Q(R), P(R) + Q(L)] has 0 at most at an end.  Other
    cells are split at their geometric midpoint (2L where R = inf, up to the
    largest float) until F moves across one by at most ``CELL_TOL`` of the
    terms' size over L, by (4/pi) max |X^2 F'| (1/L - 1/R); that one takes
    the sign of X^2 F' at L plus at R.  The
    knots are the cells' left ends, which close in on each turn of F,
    ``KNOTS_PER_OCTAVE`` log-spaced amplitudes up to ``KNOT_SPAN`` times the
    last breakpoint, and ``MARKS`` above each breakpoint (up to the largest
    float), where false position would crawl from a wide bracket; then inf, and first 0 where y
    jumps there.  A run ``(start, stop, rising)`` spans ``X[start:stop]``.
    Raises ``IntersectionError`` where F is not finite at a knot.
    """
    terms = nl.terms
    if not terms:
        return (), (), ()
    # scaled by 2^-e, maps scaled by powers of two, subnormal ones too, get the same cells
    e = math.frexp(terms[-1][0] or terms[0][2])[1]
    s1, s2 = 2.0 ** (-e // 2), 2.0 ** (-e - (-e // 2))  # 2^-e in two factors; a jump
    thresholds = [a * s1 * s2 for a, _, _ in terms]  # too tall for the scale is inf
    params = [(t, m * s1 * s2 if relay else m * t, relay, (m > 0) != relay)
              for t, (_, relay, m) in zip(thresholds, terms)]
    size, far = CELL_TOL * sum(abs(c) for _, c, _, _ in params), min(2.0 ** 1000, 1e308 * s1 * s2)
    # only a relay has a threshold of 0; alone, its jump sets the scale
    starts = sorted({t for t in thresholds if t > 0.0}) or [0.5]
    stack, cells = [], []
    for L, R in reversed(list(zip(starts, starts[1:] + [math.inf]))):
        active = params[:bisect_right(thresholds, L)]
        stack.append((L, R, active, *_slope_terms(active, L), *_slope_terms(active, R)))
    while stack:
        L, R, active, PL, QL, PR, QR = stack.pop()
        lo, hi = PL + QR, PR + QL
        M = 2.0 * L if R == math.inf else math.sqrt(L) * math.sqrt(R)
        monotone = not (lo < 0.0 < hi or lo == 0.0 == hi)  # NaN from a term too tall, too
        if monotone or max(-lo, hi) * (1.0 - L / R) <= size or not L < M < min(R, far):
            g = hi if monotone else PL + QL + PR + QR  # 0 where X^2 F' -> 0: F goes on
            cells.append((L, g > 0.0 if g or monotone else not cells or cells[-1][1]))
        else:
            PM, QM = _slope_terms(active, M)
            stack += ((M, R, active, PM, QM, PR, QR), (L, M, active, PL, QL, PM, QM))
    lefts, rising = np.ldexp([L for L, _ in cells], e), np.array([r for _, r in cells])
    bps = np.ldexp(starts, e).tolist()
    top = min(KNOT_SPAN * bps[-1], sys.float_info.max)
    n = int((math.log2(top) - math.log2(bps[0])) * KNOTS_PER_OCTAVE)
    octaves = np.arange(n + 1) / KNOTS_PER_OCTAVE
    # 2^octaves overflows past 1023 octaves (breakpoints as far apart as 1e-300
    # and 1e12): those knots are counted from the 1000th octave
    past = octaves > 1000.0
    knots = [np.exp2(octaves[~past]) * bps[0],
             np.exp2(octaves[past] - 1000.0) * (bps[0] * 2.0**1000)]
    with np.errstate(over="ignore"):  # marks past the largest float are left out
        marks = np.outer(bps, 1.0 + MARKS).ravel()
    X = np.sort(np.concatenate([*knots, lefts, marks[marks < math.inf]]))
    X = X[np.append(True, X[1:] > X[:-1])]  # distinct; np.unique would import numpy.ma
    with np.errstate(over="ignore", invalid="ignore"):
        F = _df(nl, X)
    if not np.isfinite(F).all():
        raise IntersectionError(f"F is not finite at X = {X[~np.isfinite(F)][0]}")
    up = rising[np.searchsorted(lefts, X, side="right") - 1]
    X, F, Y = [*X.tolist(), math.inf], [*F.tolist(), nl.last_slope], terms[0][2]
    if thresholds[0] == 0.0:  # F(0+) = +-inf
        X, F, up = [0.0, *X], [math.copysign(math.inf, Y), *F], np.append(Y < 0.0, up)
    ends = (np.flatnonzero(up[1:] != up[:-1]) + 1).tolist()
    runs = zip([0, *ends], [i + 1 for i in ends] + [len(X)], up[[0, *ends]].tolist())
    return tuple(X), tuple(F), tuple(runs)


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


def _roots(nl: PiecewiseNonlinearity, gain_margin: float) -> list[tuple[float, bool, bool]]:
    """The roots X of F(X) = K = gain_margin, ascending, as ``(X, below,
    above)``: whether F < K just below X, and just above it.  A run of
    ``nl._f_runs`` holds one where K lies between F at its first knot,
    excluded, and at its last, bracketed by a bisection of its knots.
    Raises ``ValueError`` unless 0 < K < inf, and ``IntersectionError`` where
    F is not finite at a knot or F = K on (0, x1], below the first breakpoint.
    """
    K = gain_margin
    if not 0 < K < math.inf:
        raise ValueError(f"gain margin must be positive and finite, got {K}")
    X, F, runs = nl._f_runs
    if K == nl.initial_slope and not nl.has_origin_jump:
        raise IntersectionError(
            f"F(X) = K = {K} on a plateau: F = K for every X in (0, {X[0] if X else math.inf}]"
        )
    roots = []
    for start, stop, rising in runs:
        if F[start] == K or (F[start] < K) != rising:
            continue
        key, k = (None, K) if rising else (neg, -K)  # F, or -F where F falls, ascends
        i = bisect_left(F, k, start + 1, stop, key=key)  # the first F >= K, or F <= K
        if i == stop:
            continue
        if F[i] == K:  # where F turns at the knot, F < K on both sides or on neither
            x, above = X[i], rising if i == stop - 1 else not rising
        else:
            f = lambda t: _df_at(nl, t) - K  # noqa: E731
            x, above = _bracket_root(f, X[i - 1], X[i], F[i - 1] - K, F[i] - K), not rising
        if x is not None and x < math.inf:
            roots.append((x, rising, above))
    return roots


def _bracket_root(f, a, b, fa, fb):
    """``_refine_bracket``'s root of f in [a, b], fa fb < 0, once an end at 0 or
    inf is moved in by halving b or doubling a; None where that reaches 0 or inf."""
    while a == 0.0 or b == math.inf:
        t = 0.5 * b if a == 0.0 else 2.0 * a
        v = f(t) if 0.0 < t < math.inf else math.nan  # NaN: no float, or no finite F, left
        if v == 0.0 or v != v:
            return t if v == 0.0 else None
        if (v > 0) == (fa > 0):
            a, fa = t, v
        else:
            b, fb = t, v
    return _refine_bracket(f, a, b, fa, fb, VALUE_TOL)


def find_intersections(nl: PiecewiseNonlinearity, gain_margin: float, *,
                       x_max: float | None = None) -> list[float]:
    """All amplitudes with F(X) = gain_margin, ascending, up to ``x_max`` if
    given: ``_roots``, from the run table kept on the map (``nl._f_runs``)."""
    return [X for X, _, _ in _roots(nl, gain_margin) if x_max is None or X <= x_max]


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
    return _label(X, omega, *enclosed)


def _label(X: float, omega: float, enclosed_below: bool, enclosed_above: bool) -> str:
    """Stable where the contour encloses -1/F just below the cycle amplitude
    only, unstable where just above it only; else ``AmbiguousStabilityError``."""
    if enclosed_below != enclosed_above:
        return STABLE if enclosed_below else UNSTABLE
    raise AmbiguousStabilityError(X, omega, enclosed_below, enclosed_above)


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

    Near a root of F = K, -1/F lies left of the crossover's own row of the
    contour's table, at -1/K, where F < K and right of it where F > K, so
    the contour encloses it as it encloses the axis just left of that row
    (rows with x < -1/K) or just right (x <= -1/K); ``_roots`` says where
    F < K.  One ``_df_at`` call per cycle gives Y1 = F(X) X, with the bits
    of ``df_value(nl, X) * X``, and the ellipse is ``ellipse_estimate``'s.
    """
    results = []
    crossovers, table, hs = _contour(plant)
    for (omega, K, _), h in zip(crossovers, hs):
        cycles, p = [], -1.0 / K  # the abscissa of the crossover's own row
        # the counts are small integers, so their sums are exact in any order
        left = sum(n for x, n in table if x < p) != 0
        right = sum(n for x, n in table if x <= p) != 0
        for X, below, above in _roots(nl, K):
            stability = _label(X, omega, left if below else right, left if above else right)
            Y1 = _df_at(nl, X) * X
            x0, xq = _ellipse(Y1, h)
            if not all(map(math.isfinite, (Y1, *x0, *xq))):
                raise NonFiniteCycleError(
                    f"the first harmonic Y1 = {Y1} or the state ellipse of the "
                    f"cycle at omega = {omega}, X = {X} is not finite"
                )
            cycles.append(LimitCycleEstimate(omega=omega, X=X, stability=stability,
                                             gain_margin=K, Y1=Y1, ellipse_x0=x0, ellipse_xq=xq))
        results.append(CrossoverAnalysis(omega=omega, gain_margin=K, cycles=tuple(cycles)))
    return results
