"""Validation, evaluation, and the dead-zone and relay terms of the nonlinearity."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import NonlinearityError, PiecewiseNonlinearity

from conftest import random_nonlinearity

NL_A = PiecewiseNonlinearity(x=(2, 7, 20, 20, 25), y=(0, 4.5, 7.21, 4.21, 5.25))
NL_B = PiecewiseNonlinearity(x=(3, 6, 10, 19), y=(3, 3, 10, 10))
RELAY = PiecewiseNonlinearity(x=(0.0, 0.0), y=(0.0, 1.0), final_slope=0.0)
LINEAR = PiecewiseNonlinearity(x=(0.0,), y=(0.0,), final_slope=0.7)


class TestValidation:
    def test_rejects_length_mismatch(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(1.0, 2.0), y=(1.0,))

    def test_rejects_empty(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(), y=())

    def test_rejects_decreasing_abscissae(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(2.0, 1.0), y=(1.0, 2.0))

    def test_rejects_negative_abscissa(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(-1.0, 2.0), y=(1.0, 2.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(1.0, float("nan")), y=(1.0, 2.0))

    def test_rejects_repeated_abscissa_without_jump(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(1.0, 1.0), y=(2.0, 2.0))

    def test_rejects_triple_abscissa(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity(x=(1.0, 1.0, 1.0), y=(1.0, 2.0, 3.0))

    def test_rejects_overflowing_slope(self):
        with pytest.raises(NonlinearityError, match="from 0.0 to 1e-300 is not finite"):
            PiecewiseNonlinearity(x=(1e-300, 1.0), y=(1e300, 1.0))

    def test_pure_gain_via_final_slope(self):
        nl = PiecewiseNonlinearity(x=(0.0,), y=(0.0,), final_slope=3.0)
        assert nl.evaluate(2.0) == pytest.approx(6.0)
        assert (nl.initial_slope, nl.terms) == (3.0, ())


class TestEvaluate:
    def test_linear_interpolation_between_vertices(self):
        nl = PiecewiseNonlinearity(x=(2.0, 4.0), y=(2.0, 6.0))
        assert nl.evaluate(3.0) == pytest.approx(4.0)

    def test_right_limit_at_jump(self):
        nl = PiecewiseNonlinearity(x=(1.0, 1.0, 2.0), y=(1.0, 3.0, 4.0))
        assert nl.evaluate(1.0) == pytest.approx(3.0)

    def test_tail_uses_final_slope(self):
        nl = PiecewiseNonlinearity(x=(1.0,), y=(2.0,), final_slope=0.5)
        assert nl.evaluate(3.0) == pytest.approx(3.0)

    def test_odd_extension(self):
        nl = PiecewiseNonlinearity(x=(1.0, 1.0, 2.0), y=(1.0, 3.0, 4.0))
        for x in (0.3, 0.99, 1.5, 5.0):
            assert nl.evaluate(-x) == pytest.approx(-nl.evaluate(x))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_odd_symmetry_random(self, seed):
        rng = random.Random(seed)
        nl = random_nonlinearity(rng)
        xs = [rng.uniform(0.01, 20.0) for _ in range(16)]
        for x in xs:
            assert nl.evaluate(-x) == pytest.approx(-nl.evaluate(x), abs=1e-12)


def line_of(nl, x):
    """The one entry of ``nl.lines`` whose interval holds x, by a linear scan."""
    (entry,) = [e for e in nl.lines if e[0] <= x < e[1]]
    return entry


def vertex_map(nl):
    """y(x) from the vertex list alone, with the right limit at a jump and the
    odd extension, as ``(k, negative, m, y)``: the vertex k that anchors x's
    line, whether x lies on the mirrored side of it, the line's slope and y(x).
    """
    pts = list(zip(nl.x, nl.y))
    if pts[0] != (0.0, 0.0):
        pts.insert(0, (0.0, 0.0))
    finite = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:]) if x1 > x0]
    tail = nl.final_slope if nl.final_slope is not None else (finite or [0.0])[-1]

    def y(x):
        a = abs(x)
        k = max(j for j, (xv, _) in enumerate(pts) if xv <= a)
        (x0, y0), nxt = pts[k], pts[k + 1 : k + 2]
        m = (nxt[0][1] - y0) / (nxt[0][0] - x0) if nxt else tail
        value = y0 + m * (a - x0)
        # without a jump at the origin the line of vertex 0 is one line
        return k, x < 0 and k > 0, m, -value if x < 0 else value

    return y


def check_lines(nl):
    """Every entry of ``nl.lines`` against ``vertex_map``, exactly."""
    table = nl.lines
    assert nl.line_starts == tuple(lo for lo, *_ in table)
    assert table[0][0] == -math.inf and table[-1][1] == math.inf
    assert all(lo < hi for lo, hi, *_ in table)
    assert all(hi == lo for (_, hi, *_), (lo, *_) in zip(table, table[1:]))
    # vertices and midpoints on both sides, signed zeros, beyond the last
    # vertex, and each bound with its neighbouring floats
    xs, ys, _ = nl.pieces
    at = sorted({*xs, 1.0, 2.0 * nl.max_breakpoint + 50.0})
    probes = at + [0.5 * (a + b) for a, b in zip(at, at[1:])]
    probes += [-x for x in probes] + [0.0, -0.0]
    for v in nl.line_starts[1:]:
        probes += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    y = vertex_map(nl)
    holders: dict[int, set] = {}
    for x in probes:
        k, negative, m_ref, y_ref = y(x)
        label = table.index(line_of(nl, x))
        assert nl.line_at(x) == table[label]
        _, _, x0, y0, m = table[label]
        xv, yv = xs[k], ys[k]
        assert (x0, y0, m) == ((-xv, -yv, m_ref) if negative else (xv, yv, m_ref))
        assert y0 + m * (x - x0) == y_ref == nl.evaluate(x)
        holders.setdefault(label, set()).add((k, negative))
    # every entry is hit and holds exactly one signed piece, a different one
    # for each entry: entries and signed pieces are one-to-one
    assert sorted(holders) == list(range(len(table)))
    assert all(len(pieces) == 1 for pieces in holders.values())
    assert len(set.union(*holders.values())) == len(table)


class TestPieceTable:
    def test_right_limit_at_jump(self, nl_a):
        lo, hi, x0, y0, _ = line_of(nl_a, 20.0)
        assert (lo, x0, y0) == (20.0, 20.0, 4.21)
        _, hi, x0, y0, _ = line_of(nl_a, math.nextafter(20.0, 0.0))
        assert (hi, x0, y0) == (20.0, 7.0, 4.5)

    def test_odd_symmetric(self, nl_a):
        for x in np.linspace(0.25, 40.0, 80).tolist():
            lo, hi, x0, y0, m = line_of(nl_a, x)
            nlo, nhi, nx0, ny0, nm = line_of(nl_a, -x)
            assert (nx0, ny0, nm) == (-x0, -y0, m)
            if lo > 0.0:  # the central entry holds both sides
                assert nhi == math.nextafter(-lo, math.inf)
                assert nlo == (math.nextafter(-hi, math.inf) if hi < math.inf else -math.inf)

    def test_jump_at_origin(self):
        relay = PiecewiseNonlinearity(x=(0.0, 0.0), y=(0.0, 1.0), final_slope=0.0)
        xs, ys, slopes = relay.pieces
        assert (xs, ys, slopes) == ((0.0, 0.0), (0.0, 1.0), (0.0, 0.0))
        assert relay.lines == ((-math.inf, 0.0, -0.0, -1.0, 0.0), (0.0, math.inf, 0.0, 1.0, 0.0))
        assert [line_of(relay, x) for x in (-2.0, -1e-300, -0.0, 0.0, 3.0)] == [
            relay.lines[0], relay.lines[0], relay.lines[1], relay.lines[1], relay.lines[1]
        ]

    def test_last_piece_beyond_last_vertex(self, nl_b):
        assert line_of(nl_b, 19.0) == line_of(nl_b, 1e9) == nl_b.lines[-1]
        assert nl_b.lines[-1] == (19.0, math.inf, 19.0, 10.0, 0.0)
        assert line_of(nl_b, -1e9) == nl_b.lines[0]
        assert nl_b.lines[0] == (-math.inf, math.nextafter(-19.0, 0.0), -19.0, -10.0, 0.0)
        assert nl_b.pieces[2][-1] == nl_b.last_slope == 0.0

    @pytest.mark.parametrize("nl", [NL_A, NL_B, RELAY, LINEAR])
    def test_lines_match_the_vertex_map(self, nl):
        check_lines(nl)

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_lines_match_the_vertex_map(self, seed, origin_jump):
        nl = random_nonlinearity(random.Random(seed))
        if origin_jump:
            nl = PiecewiseNonlinearity((0.0, *nl.x), (0.5, *nl.y), nl.final_slope)
        check_lines(nl)

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lines_through_the_vertices(self, seed, keep_final_slope):
        rng = random.Random(seed)
        nl = random_nonlinearity(rng)
        if not keep_final_slope:
            nl = PiecewiseNonlinearity(nl.x, nl.y)
        pts = list(zip(nl.x, nl.y))
        if pts[0] != (0.0, 0.0):
            pts.insert(0, (0.0, 0.0))
        xs, ys, slopes = nl.pieces
        assert list(zip(xs, ys)) == pts
        assert len(slopes) == len(pts)
        segment_slopes = []
        for (x0, y0), (x1, y1), m in zip(pts, pts[1:], slopes):
            if x1 == x0:
                assert m == 0.0
                continue
            segment_slopes.append((y1 - y0) / (x1 - x0))
            assert m == pytest.approx(segment_slopes[-1], rel=1e-12)
            assert y0 + m * (x1 - x0) == pytest.approx(y1, rel=1e-12, abs=1e-12)
        expected = nl.final_slope if keep_final_slope else segment_slopes[-1]
        assert slopes[-1] == pytest.approx(expected, rel=1e-12)


def term_value(term, x):
    """Time-domain value of one (threshold, relay, magnitude) term at x.

    Odd, with the right limit at the threshold: a dead zone is
    ``m * sign(x) * max(|x| - X1, 0)``, a relay ``Y1 * sign(x)`` for |x| >= X1.
    """
    threshold, relay, magnitude = term
    s = math.copysign(1.0, x) if x != 0 else 0.0
    a = abs(x)
    if not relay:
        return magnitude * s * max(a - threshold, 0.0)
    return magnitude * s if a >= threshold and a > 0 else 0.0


class TestDecompose:
    """The split of y into initial_slope and ``terms``."""

    def test_case_study_components(self, nl_b):
        assert nl_b.initial_slope == pytest.approx(1.0)
        assert list(nl_b.terms) == [
            (3.0, False, pytest.approx(-1.0)),
            (6.0, False, pytest.approx(1.75)),
            (10.0, False, pytest.approx(-1.75)),
        ]

    def test_jump_yields_relay(self, nl_a):
        relays = [t for t in nl_a.terms if t[1]]
        assert len(relays) == 1
        assert relays[0][0] == pytest.approx(20.0)
        assert relays[0][2] == pytest.approx(-3.0)

    def test_dead_zone_before_relay_at_a_shared_threshold(self, nl_a):
        assert [(x1, relay) for x1, relay, _ in nl_a.terms] == [
            (2.0, False),
            (7.0, False),
            (20.0, False),
            (20.0, True),
        ]
        assert nl_a.breakpoints == (2.0, 7.0, 20.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_superposition_reconstructs_function(self, seed):
        # the terms must sum back to y(x) away from the jump points
        rng = random.Random(seed)
        nl = random_nonlinearity(rng)
        jump_xs = {xj for xj, relay, _ in nl.terms if relay}
        for _ in range(24):
            x = rng.uniform(-20.0, 20.0)
            if any(abs(abs(x) - xj) < 1e-9 for xj in jump_xs):
                continue
            total = nl.initial_slope * x + sum(term_value(t, x) for t in nl.terms)
            assert total == pytest.approx(nl.evaluate(x), abs=1e-9)


class TestSerialization:
    def test_round_trip(self, nl_a):
        again = PiecewiseNonlinearity.from_dict(json.loads(json.dumps(nl_a.to_dict())))
        assert again == nl_a

    def test_from_dict_rejects_unknown_shape(self):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity.from_dict({"x": [1.0]})

    @pytest.mark.parametrize(
        "data",
        [
            {"x": "3", "y": "3"},
            {"x": [3.0], "y": b"\x03"},
            {"x": [3.0], "y": [3.0], "final_slope": True},
            {"x": [3.0], "y": [3.0], "final_slope": "0"},
            {"x": [3.0, 6.0], "y": [3.0, "3"]},
            {"x": [True], "y": [1.0]},
        ],
    )
    def test_from_dict_rejects_strings_and_booleans(self, data):
        with pytest.raises(NonlinearityError):
            PiecewiseNonlinearity.from_dict(data)

    def test_from_dict_rejects_garbage(self):
        # JSON values that are not an object; the CLI refuses text that is not JSON
        for data in ([1, 2], "not json", 3.0, None):
            with pytest.raises(NonlinearityError):
                PiecewiseNonlinearity.from_dict(data)
