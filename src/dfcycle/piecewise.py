"""Odd piecewise-linear nonlinearities with jumps, and their dead-zone and relay terms.

A nonlinearity is described by the breakpoints of its graph on x >= 0 and is
interpreted as odd, y(-x) = -y(x).  A repeated abscissa encodes a vertical
jump.  Every such map is the sum of an initial linear gain, dead-zone terms
(one per slope change) and relay terms (one per jump);
:attr:`PiecewiseNonlinearity.terms` lists those terms.

``pieces`` is the one table of y on x >= 0 (vertices and slopes), which the
checks, the slopes, the terms and the breakpoints all read; ``lines`` is the
one signed table over the real line (right limit at a jump, odd extension) in
which evaluation, the simulator, the quadrature oracle and the qualitative
curve look x up.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property


class NonlinearityError(ValueError):
    """Raised when breakpoint data does not describe a valid nonlinearity."""


@dataclass(frozen=True)
class PiecewiseNonlinearity:
    """Odd piecewise-linear map defined by breakpoints on x >= 0.

    ``x`` is nondecreasing; a value repeated twice marks a jump.  The graph
    starts at the origin (prepended implicitly when absent), passes through
    the given points, and extends beyond the last point with ``final_slope``
    (default: the slope of the last recorded segment, or 0 when there is
    none).  A leading point at x=0 with y != 0 encodes a jump at the origin
    (ideal relay).  Evaluation at a jump abscissa returns the right limit.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    final_slope: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if self.final_slope is not None:
            object.__setattr__(self, "final_slope", float(self.final_slope))
        self._validate()

    def _validate(self) -> None:
        if len(self.x) != len(self.y) or len(self.x) < 1:
            raise NonlinearityError("x and y must have equal length >= 1")
        if not all(math.isfinite(v) for v in self.x + self.y):
            raise NonlinearityError("breakpoints must be finite")
        if self.x[0] < 0:
            raise NonlinearityError("abscissae must be >= 0")
        if any(b < a for a, b in zip(self.x, self.x[1:])):
            raise NonlinearityError("abscissae must be nondecreasing")
        xs, _, slopes = self.pieces
        for v, w in zip(xs, xs[2:]):
            if v == w:
                raise NonlinearityError(
                    f"abscissa {v} repeated more than twice (merge coincident jumps)"
                )
        for a, b, ya, yb in zip(self.x, self.x[1:], self.y, self.y[1:]):
            if a == b and ya == yb:
                raise NonlinearityError(f"repeated abscissa {a} with no jump")
        if self.final_slope is not None and not math.isfinite(self.final_slope):
            raise NonlinearityError("final_slope must be finite")
        for x0, x1, m in zip(xs, xs[1:], slopes):  # a jump's slope is 0.0
            if not math.isfinite(m):
                raise NonlinearityError(
                    f"slope of the segment from {x0} to {x1} is not finite"
                )

    # -- derived geometry -------------------------------------------------

    @cached_property
    def pieces(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """The linear pieces of y on x >= 0 as (xs, ys, slopes).

        (xs, ys) are the vertices: the given points, after the origin when they
        do not start there.  Piece i is ``ys[i] + slopes[i] * (x - xs[i])`` on
        ``[xs[i], xs[i+1])``: a segment where xs[i+1] > xs[i], else a jump of
        ``ys[i+1] - ys[i]`` with slope 0.0, and ``last_slope`` beyond the last
        vertex.  Every other fact of y on x >= 0 derives from this table.
        """
        xs, ys = self.x, self.y
        if (xs[0], ys[0]) != (0.0, 0.0):
            xs, ys = (0.0, *xs), (0.0, *ys)
        slopes, last = [], 0.0  # last: the slope of the last segment so far
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            m = (y1 - y0) / (x1 - x0) if x1 > x0 else 0.0
            slopes.append(m)
            last = m if x1 > x0 else last
        if self.final_slope is not None:
            last = self.final_slope
        return xs, ys, (*slopes, last)

    @cached_property
    def lines(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """The linear pieces of y over the whole real line, as (lo, hi, x0, y0, m).

        Entry k is ``y0 + m * (x - x0)`` on the floats ``lo <= x < hi``, with
        the right limit at a jump and the odd extension, so -x lies on the
        line of x mirrored.  Its anchor (x0, y0) is the vertex (xs[i], ys[i])
        of a piece [a, b) of ``pieces``, or (-xs[i], -ys[i]) on the negative
        side, which holds the floats of (-b, -a]: [nextafter(-b, +inf),
        nextafter(-a, +inf)).  At a = 0 (a jump at the origin) that side ends
        at 0.0, so -0.0 stays on [0, b).  Without a jump at the origin the two
        central pieces are one line and one entry.  Pieces of zero width (a
        jump) get no entry.  The first entry starts at -inf and the last ends
        at +inf.
        """
        xs, ys, slopes = self.pieces
        ends = (*xs[1:], math.inf)
        right = [
            (lo, hi, lo, y, m) for lo, hi, y, m in zip(xs, ends, ys, slopes) if lo < hi
        ]
        left = [
            (
                -math.inf if hi == math.inf else math.nextafter(-hi, math.inf),
                math.nextafter(-lo, math.inf) if lo > 0.0 else 0.0,
                -x0,
                -y0,
                m,
            )
            for lo, hi, x0, y0, m in reversed(right)
        ]
        if self.has_origin_jump:
            return (*left, *right)
        # one central entry (-xs[1], xs[1]) through the origin
        return (*left[:-1], (left[-1][0], *right[0][1:]), *right[1:])

    @cached_property
    def line_starts(self) -> tuple[float, ...]:
        """The ``lo`` of every entry of ``lines``, for a bisection."""
        return tuple(lo for lo, *_ in self.lines)

    @cached_property
    def initial_slope(self) -> float:
        """Slope m0 of the first segment of ``pieces``, else ``last_slope``."""
        xs, _, slopes = self.pieces
        return next(m for x0, x1, m in zip(xs, (*xs[1:], math.inf), slopes) if x1 > x0)

    @cached_property
    def last_slope(self) -> float:
        """Slope beyond the last vertex (m_r): final_slope, else the last segment's."""
        return self.pieces[2][-1]

    @cached_property
    def terms(self) -> tuple[tuple[float, bool, float], ...]:
        """The dead-zone and relay terms of y as (threshold, relay, magnitude).

        A dead zone (relay False) is added per slope change, with magnitude
        the change of slope m: ``m * sign(x) * max(|x| - threshold, 0)``.  A
        relay (relay True) is added per jump, with magnitude the jump Y1:
        ``Y1 * sign(x)`` where ``|x| >= threshold``, else 0.  Away from the
        jumps, ``y(x) = initial_slope * x`` plus the sum of the
        terms.  Sorted by threshold, a dead zone before a relay at a shared
        one.
        """
        xs, ys, slopes = self.pieces
        # the segments and the last piece, as (start, slope)
        segs = [(x0, m) for x0, x1, m in zip(xs, (*xs[1:], math.inf), slopes) if x1 > x0]
        changes = zip(segs, segs[1:])
        dead = [(xb, False, m1 - m0) for (_, m0), (xb, m1) in changes if m1 != m0]
        pairs = zip(xs, xs[1:], ys, ys[1:])
        relays = [(x0, True, y1 - y0) for x0, x1, y0, y1 in pairs if x1 == x0]
        # no two terms share (threshold, relay), so magnitude never decides
        return tuple(sorted(dead + relays))

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        """Distinct abscissae where the slope changes or the graph jumps."""
        return tuple(sorted({xb for xb, _, _ in self.terms}))

    @cached_property
    def _f_runs(self):
        """``cycles.find_intersections``' run table of F: its knots, F on
        them and the runs on which F is monotone (``cycles._run_table``),
        which no gain margin changes: kept on the map, built on first use,
        and rebuilt (raising again) while the build fails."""
        from .cycles import _run_table

        return _run_table(self)

    @cached_property
    def _oracle_table(self):
        """``descfun.df_oracle``'s per-map facts (``descfun._oracle_table``):
        ``lines`` as a read-only array and the bound of ``descfun._shift``,
        kept on the map and built on first use."""
        from .descfun import _oracle_table

        return _oracle_table(self)

    @property
    def max_breakpoint(self) -> float:
        """Largest vertex abscissa (0 when only the origin is recorded)."""
        return self.x[-1]

    @property
    def has_origin_jump(self) -> bool:
        """Whether y jumps at x = 0: ``pieces`` then starts with a zero-width piece."""
        return self.pieces[0][1:2] == (0.0,)

    # -- evaluation -------------------------------------------------------

    def line_at(self, x: float) -> tuple[float, float, float, float, float]:
        """The entry of ``lines`` whose floats ``lo <= x < hi`` hold x."""
        return self.lines[bisect_right(self.line_starts, x) - 1]

    def evaluate(self, x: float) -> float:
        """Value y(x) on its entry of ``lines`` (odd extension, right limit at jumps).

        The lookup is ``line_at``'s, written out: the extra call would cost
        about half as much again.
        """
        _, _, x0, y0, m = self.lines[bisect_right(self.line_starts, x) - 1]
        return y0 + m * (x - x0)

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseNonlinearity":
        try:
            x = data["x"]
            y = data["y"]
        except (KeyError, TypeError) as exc:
            raise NonlinearityError(
                "nonlinearity descriptor must be an object with 'x' and 'y' arrays"
            ) from exc
        if not isinstance(x, (list, tuple)) or not isinstance(y, (list, tuple)):
            raise NonlinearityError("'x' and 'y' must be arrays of numbers")
        final_slope = data.get("final_slope")
        # float() takes a string of digits and a bool, which are not JSON numbers
        for v in (*x, *y, final_slope):
            if isinstance(v, (str, bool)):
                raise NonlinearityError(
                    f"'x', 'y' and 'final_slope' must be numbers, not {v!r}"
                )
        return cls(tuple(x), tuple(y), final_slope)

    def to_dict(self) -> dict:
        out = {"x": list(self.x), "y": list(self.y)}
        if self.final_slope is not None:
            out["final_slope"] = self.final_slope
        return out
