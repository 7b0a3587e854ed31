"""``simulate``'s batches against the label loop.

``simulate`` finds the piece of C s by bisecting the signed line table
``nl.lines`` and accepts a batch's steps up to the first state past
``DIVERGENCE_NORM`` or stage abscissa outside its piece's interval, in one
test against the piece's bound vectors.  The reference below is the loop it
replaced: it labels C s and every stage abscissa by its own search of |x| in
the vertex abscissae of ``nl.pieces`` and the sign, checks divergence
separately on the accepted states, builds each run map by its own chain of
products, and takes a straddling step through a generic stage loop, then
starts a batch from the state after it.  ``simulate`` takes a straddling
step through its stage pattern's map in front of the next batch, and
applies its maps column-major, so the two round differently.  The reference
runs from x0 on its own: verdicts, step counts and straddling-step counts
must be equal, states equal within ``STATE_TOL``.  Where a stage lands on a
jump and the two round it to either side, the runs part; there the
reference runs along ``simulate``'s states, each batch from the state
``simulate`` reached.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import LinearPlant, PiecewiseNonlinearity, sim
from dfcycle.sim import (
    CONVERGED,
    DIVERGED,
    DIVERGENCE_NORM,
    RUN_STEPS,
    SUSTAINED,
    _folded_step,
    default_horizon,
    loop_matrices,
    measure_oscillation,
    simulate,
)

from conftest import plant_a, plant_b, random_nonlinearity
from test_sim import NL_A, NL_B, RELAY, cycle_start, line_changes, linear_gain

# Largest state difference from the labelling loop, relative to the largest
# state component: a straddling step through its pattern's map, and the run
# after it through the product of two maps, round differently from the stage
# loop and the run map applied in turn; and a column-major map's product sums
# each row in another order than the reference's row-major one.
STATE_TOL = 1e-11


def reference_pieces(nl):
    xs, ys, slopes = nl.pieces
    ends = np.array(xs[1:])

    def piece_of(x):
        # the number of piece ends at or left of |x|, since xs[0] = 0 <= |x|:
        # the right limit at a jump, and -x on the piece of x
        i = ends.searchsorted(np.abs(x), side="right")
        # piece 0 is [0, first vertex): one line through the origin on both
        # sides (with a jump at the origin i is never 0)
        return 2 * i + ((x < 0) & (i > 0))

    def line(label: int) -> tuple[float, float]:
        i, negative = divmod(label, 2)
        m = slopes[i]
        b = ys[i] - m * xs[i]
        return m, -b if negative else b

    return piece_of, line


def reference_run_map(R, Cm, Phi, G, m, b):
    """Stacked affine maps of 1..RUN_STEPS steps on y = m x + b, one product a step.

    Row block k (of n + 4 rows), applied to [s, 1], gives the state after
    k + 1 steps and then the four stage abscissae of step k + 1.
    """
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
    power = np.eye(n + 1)
    blocks = []
    for _ in range(RUN_STEPS):
        abscissae = stages @ power
        power = step @ power
        blocks += [power[:n], abscissae]
    return np.vstack(blocks)


def reference_full_step(R, Cm, Phi, G, nl, s):
    """(state, abscissae): one folded RK4 step from s, each stage through ``nl.evaluate``."""
    u: list[float] = []
    abscissae: list[float] = []
    for x, c in zip((R @ s).tolist(), Cm.tolist()):
        abscissae.append(x + sum(a * v for a, v in zip(c, u)))
        u.append(nl.evaluate(abscissae[-1]))
    return Phi @ s + G @ np.array(u), abscissae


def reference_simulate(plant, nl, x0, T, dt, along=None):
    """(states, verdict, full_steps) of the labelling loop from x0.

    With ``along``, the states of another run from x0, each batch and each
    straddling step starts from along's state at its step, while along has
    one, and from the loop's own after that, so the loop's decisions and
    states are checked a batch at a time along that run.  On a loop parked
    at a jump, a rounding difference can grow by a factor of e in 100 steps,
    so two runs that round apart from their first straddle on may part.
    """
    A, B, C_loop = loop_matrices(plant)
    n = len(B)

    R, Cm, Phi, G = _folded_step(A, B, C_loop, dt)
    piece_of, line = reference_pieces(nl)
    piece_maps: dict[int, np.ndarray] = {}

    steps = int(round(T / dt))
    traj = np.empty((steps + 1, n))
    traj[0] = x0
    if along is None:
        along = traj[:1]

    def start(k):
        return along[k] if k < len(along) else traj[k]

    affine = np.ones(n + 1)  # [s, 1]
    k = 0
    full_steps = 0
    diverged_at = None
    while k < steps:
        s = start(k)
        piece = int(piece_of(C_loop @ s))
        if piece not in piece_maps:
            piece_maps[piece] = reference_run_map(R, Cm, Phi, G, *line(piece))
        todo = min(RUN_STEPS, steps - k)
        affine[:n] = s
        out = (piece_maps[piece][: todo * (n + 4)] @ affine).reshape(todo, n + 4)
        # accept the steps before the first one with a stage off the piece
        off = (piece_of(out[:, n:]) != piece).any(axis=1)
        run = int(off.argmax()) if off.any() else todo
        if run:
            traj[k + 1 : k + 1 + run] = out[:run, :n]
            big = np.abs(out[:run, :n]).max(axis=1) > DIVERGENCE_NORM
            if big.any():
                diverged_at = k + 1 + int(big.argmax())
                break
            k += run
        if run < todo:
            s, _ = reference_full_step(R, Cm, Phi, G, nl, start(k))
            full_steps += 1
            k += 1
            traj[k] = s
            if np.abs(s).max() > DIVERGENCE_NORM:
                diverged_at = k
                break

    if diverged_at is not None:
        return traj[: diverged_at + 1], DIVERGED, full_steps
    t = np.arange(len(traj)) * dt
    measured = measure_oscillation(t, traj @ np.asarray(C_loop))
    return traj, CONVERGED if measured is None else SUSTAINED, full_steps


def assert_matches_reference(plant, nl, x0, T, dt, along=False):
    """``simulate``'s run against the labelling loop from x0, or along the run."""
    res = simulate(plant, nl, x0, T, dt)
    states, verdict, full_steps = reference_simulate(
        plant, nl, x0, T, dt, res.states if along else None
    )
    assert res.verdict == verdict
    assert len(res.t) == len(states)
    assert res.full_steps == full_steps
    assert np.max(np.abs(res.states - states)) <= STATE_TOL * np.max(np.abs(states))
    return res


# the case studies' predicted cycles, scaled, their periods and verdicts
PREDICTED_CYCLES = pytest.mark.parametrize(
    "plant, nl, scale, periods, verdict",
    [
        (plant_b(30.0), NL_B, 0.5, 20, SUSTAINED),
        (plant_b(30.0), NL_B, 1.5, 20, SUSTAINED),
        (plant_a(6.0), NL_A, 0.3, 40, CONVERGED),
        (plant_a(6.0), NL_A, 2.0, 40, DIVERGED),  # crosses the jump at 20
    ],
    ids=["b-inner", "b-outer", "a-inner", "a-outer"],
)


@PREDICTED_CYCLES
def test_predicted_cycles_match_reference(plant, nl, scale, periods, verdict):
    x0, T, dt = cycle_start(plant, nl, scale, periods)
    assert assert_matches_reference(plant, nl, x0, T, dt).verdict == verdict


@PREDICTED_CYCLES
def test_crossing_maps_take_the_labelled_full_step(
    monkeypatch, cold_sim_memo, plant, nl, scale, periods, verdict
):
    # every crossing map's first block, from the state before each step of
    # the run whose stages lie on the map's pattern, gives the labelling
    # loop's stage abscissae on the same pieces and its state
    built = []
    crossing_map = sim._crossing_map

    def recording(R, Cm, Phi, G, pattern, tail):
        maps = crossing_map(R, Cm, Phi, G, pattern, tail)
        built.append((pattern, maps[0][: plant.order + 5]))
        return maps

    monkeypatch.setattr(sim, "_crossing_map", recording)
    x0, T, dt = cycle_start(plant, nl, scale, periods)
    res = simulate(plant, nl, x0, T, dt)
    assert len(built) > 0 or res.full_steps == 0

    A, B, C_loop = loop_matrices(plant)
    R, Cm, Phi, G = _folded_step(A, B, C_loop, dt)

    def pattern_of(abscissae):
        return tuple(nl.lines[bisect_right(nl.line_starts, x) - 1] for x in abscissae)

    steps: dict = {}
    for s in res.states[:-1]:
        state, abscissae = reference_full_step(R, Cm, Phi, G, nl, s)
        steps.setdefault(pattern_of(abscissae), []).append((s, state))
    tol = STATE_TOL * np.max(np.abs(res.states))
    checked = 0
    # a map built on a guess that missed may match no step
    for pattern, block in built:
        for s, state in steps.get(pattern, []):
            out = block @ np.append(s, 1.0)
            assert pattern_of(out[:4]) == pattern
            assert np.max(np.abs(out[4:-1] - state)) <= tol
            checked += 1
    assert checked >= len(built)


@pytest.mark.parametrize(
    "plant, nl, scale, periods",
    [(plant_a(6.0), NL_A, 2.0, 40), (plant_b(30.0), NL_B, 0.5, 60)],
    ids=["a-outer", "b-inner"],
)
def test_missed_guesses_are_refined(
    monkeypatch, cold_sim_memo, bounded_lookups, plant, nl, scale, periods
):
    # a guess that misses in its crossing map's first block is refined: the
    # stages before the one that missed keep their lines, and it and the
    # stages after it take that stage's.  Such patterns, whose stages change
    # lines twice, occur on these runs, each pattern's map is built once,
    # and the run is the labelling loop's
    built = []
    crossing_map = sim._crossing_map

    def recording(R, Cm, Phi, G, pattern, tail):
        built.append(pattern)
        return crossing_map(R, Cm, Phi, G, pattern, tail)

    monkeypatch.setattr(sim, "_crossing_map", recording)
    x0, T, dt = cycle_start(plant, nl, scale, periods)
    assert_matches_reference(plant, nl, x0, T, dt)
    assert any(line_changes(pattern) > 1 for pattern in built)
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_relay_from_zero_loop_signal_matches_reference(first):
    # C s = 0 at the start lies on the right limit of the jump at the origin
    plant = plant_b(1.0)
    _, _, C_loop = loop_matrices(plant)
    x0 = np.array([first, 0.2, 0.1])
    assert C_loop @ x0 == 0.0
    T, dt = default_horizon(math.sqrt(3.0))
    res = assert_matches_reference(plant, RELAY, x0, T / 10.0, dt)
    assert res.full_steps > 0


def exact_rk4(plant, nl, x0, steps, h):
    """States of ``steps`` RK4 steps of the closed loop from x0, in rationals.

    y is evaluated on ``nl.pieces``: odd, and the right limit at a jump.
    """
    A, B, C_loop = (np.vectorize(Fraction)(a).tolist() for a in loop_matrices(plant))
    xs, ys, slopes = ([Fraction(v) for v in vs] for vs in nl.pieces)

    def y(x):
        i = sum(end <= abs(x) for end in xs[1:])
        v = ys[i] + slopes[i] * (abs(x) - xs[i])
        return -v if x < 0 else v

    def slope(s):
        u = y(sum(c * v for c, v in zip(C_loop, s)))
        return [sum(a * v for a, v in zip(row, s)) + b * u for row, b in zip(A, B)]

    h = Fraction(h)
    s = [Fraction(v) for v in x0]
    states = [s]
    for _ in range(steps):
        k1 = slope(s)
        k2 = slope([v + h / 2 * d for v, d in zip(s, k1)])
        k3 = slope([v + h / 2 * d for v, d in zip(s, k2)])
        k4 = slope([v + h * d for v, d in zip(s, k3)])
        s = [v + h / 6 * (a + 2 * b + 2 * c + d) for v, a, b, c, d in zip(s, k1, k2, k3, k4)]
        states.append(s)
    return np.array(states, dtype=float)


@pytest.mark.parametrize("start", [2.75, 3.0])
def test_stage_exactly_on_a_jump_matches_reference(start):
    # a double integrator in a dead zone moves C s by exactly h per step, so
    # from 2.75 the last stage of the first step lands on the jump at 3, and
    # from 3.0 the first stage starts on it.  From 2.75 the last stage of
    # step 41 is -3 in rationals, on the saturated piece: ``simulate`` rounds
    # it to -3.0000000000000004, the labelling loop to the dead zone's side,
    # so that loop runs along ``simulate``'s states, and RK4 in rationals
    # checks the run on its own
    plant = LinearPlant(num=(1.0,), den=(1.0, 0.0, 0.0))
    relay = PiecewiseNonlinearity(x=(3.0, 3.0), y=(0.0, 1.0), final_slope=0.0)
    x0 = [-start, -1.0]
    res = assert_matches_reference(plant, relay, x0, 25.0, 0.25, along=True)
    assert res.full_steps > 0
    exact = exact_rk4(plant, relay, x0, len(res.t) - 1, 0.25)
    assert np.max(np.abs(res.states - exact)) <= STATE_TOL * np.max(np.abs(exact))


@given(
    st.lists(st.floats(0.2, 5.0), min_size=1, max_size=3),
    st.floats(0.5, 40.0),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 30.0),
    st.sampled_from([None, 0.0, -0.0]),
)
@settings(max_examples=40, deadline=None)
def test_random_loops_match_reference(lags, k, seed, scale, zero):
    # integrator plus one to three lags: C_loop s is -k s[0]
    den = np.poly([0.0] + [-p for p in lags])
    plant = LinearPlant(num=(1.0,), den=tuple(den), k=k)
    nl = random_nonlinearity(random.Random(seed), max_breakpoints=6)
    x0 = scale * np.random.default_rng(seed).standard_normal(plant.order)
    if zero is not None:
        x0[0] = zero  # C s is zero
    assert_matches_reference(plant, nl, x0, 20.0, 0.01, along=True)


def unstable_loop():
    """ds/dt = s + y(x) with x = -s: on y = 0.5 x the state grows as e^(t/2)."""
    plant = LinearPlant(num=(1.0,), den=(1.0, -1.0))
    return plant, PiecewiseNonlinearity(x=(1.0,), y=(0.5,))


def test_divergence_on_the_first_step_of_a_batch_matches_reference():
    plant, nl = unstable_loop()
    res = assert_matches_reference(plant, nl, [DIVERGENCE_NORM], 10.0, 0.1)
    assert res.verdict == DIVERGED
    assert len(res.t) == 2 and res.full_steps == 0


def test_divergence_with_a_stage_off_its_piece_matches_reference():
    # a breakpoint between C s before and after the step that diverges: the
    # step's first state past the norm comes before its stage abscissae in
    # the batch, yet the step straddles the breakpoint, so it is taken
    # through its pattern's map and diverges there
    plant, nl = unstable_loop()
    x0, T, dt = [1.0], 50.0, 0.1
    plain = simulate(plant, nl, x0, T, dt)
    assert plain.verdict == DIVERGED and plain.full_steps == 0
    before, after = np.abs(plain.x[-2:])
    assert abs(plain.states[-2, 0]) <= DIVERGENCE_NORM < after
    corner = PiecewiseNonlinearity(x=(0.5 * (before + after),), y=(0.25 * (before + after),),
                                   final_slope=0.6)
    res = assert_matches_reference(plant, corner, x0, T, dt)
    assert res.verdict == DIVERGED
    assert res.full_steps == 1 and len(res.t) == len(plain.t)


@pytest.mark.parametrize(
    "steps", [100, 3 * RUN_STEPS - 1, 3 * RUN_STEPS, 3 * RUN_STEPS + 1, 4 * RUN_STEPS]
)
def test_horizon_at_a_batch_edge_matches_reference(steps):
    # horizons under 100 steps are refused, so the edges of RUN_STEPS and
    # 2 RUN_STEPS are taken at 3 and 4 RUN_STEPS: a last batch that is full,
    # or short by 1, or of 1 or 4 steps
    plant = plant_b(30.0)
    x0, _, dt = cycle_start(plant, NL_B, 1.0, 1)
    line = assert_matches_reference(plant, linear_gain(0.5), x0, steps * dt, dt)
    assert len(line.t) == steps + 1
    assert line.full_steps == 0 and line.batches == -(-steps // RUN_STEPS)
    res = assert_matches_reference(plant, NL_B, x0, steps * dt, dt)
    assert len(res.t) == steps + 1 and res.full_steps > 0


def test_straddle_on_the_last_step_matches_reference():
    # the double integrator of the jump test: C s moves by h a step from
    # -0.125, so the last stage of step 100 lands on the jump at 3; two full
    # products, one that stops at step 100, and a crossing map's first block
    plant = LinearPlant(num=(1.0,), den=(1.0, 0.0, 0.0))
    relay = PiecewiseNonlinearity(x=(3.0, 3.0), y=(0.0, 1.0), final_slope=0.0)
    dt = 2.0**-5
    res = assert_matches_reference(plant, relay, [0.125, -1.0], 100 * dt, dt)
    assert res.full_steps == 1 and res.batches == 4 and len(res.t) == 101
    assert np.all(res.x[:-1] < 3.0) and res.x[-2] + dt == 3.0


def test_step_across_two_breakpoints_matches_reference(bounded_lookups):
    # the double integrator of the straddle on the last step, with jumps at
    # 2.98 and 2.99, closer together than step 100's stages, which lie at
    # 2.96875, 2.984375 (twice) and 2.99951171875: in the dead zone, on the
    # middle piece and on the top one.  Three products reach step 100 and
    # guess its last three stages on the middle piece; the guess misses at
    # the last stage, and the retry takes the step: two of its at most four
    # products
    plant = LinearPlant(num=(1.0,), den=(1.0, 0.0, 0.0))
    stairs = PiecewiseNonlinearity(
        x=(2.98, 2.98, 2.99, 2.99), y=(0.0, 1.0, 1.0, 2.0), final_slope=0.0
    )
    x0, dt = [0.125, -1.0], 2.0**-5
    res = assert_matches_reference(plant, stairs, x0, 100 * dt, dt)
    A, B, C_loop = loop_matrices(plant)
    R, Cm, Phi, G = _folded_step(A, B, C_loop, dt)
    _, abscissae = reference_full_step(R, Cm, Phi, G, stairs, res.states[-2])
    assert len({stairs.line_at(x) for x in abscissae}) == 3
    assert res.full_steps == 1 and res.batches == 3 + 2 and len(res.t) == 101
    exact = exact_rk4(plant, stairs, x0, 100, dt)
    assert np.max(np.abs(res.states - exact)) <= STATE_TOL * np.max(np.abs(exact))


@pytest.mark.parametrize("last", [RUN_STEPS, 2 * RUN_STEPS])
def test_divergence_on_the_last_step_of_a_full_batch_matches_reference(last):
    # s grows by a factor g a step, so from 1e8 / g^(last - 1/2) the first
    # state past the norm is the last of a full batch
    plant, nl = unstable_loop()
    T, dt = 10.0, 0.1
    growth = simulate(plant, nl, [1.0], T, dt).states[:, 0]
    x0 = [DIVERGENCE_NORM / math.sqrt(growth[last - 1] * growth[last])]
    res = assert_matches_reference(plant, nl, x0, T, dt)
    assert res.verdict == DIVERGED and len(res.t) == last + 1
    assert res.full_steps == 0 and res.batches == last // RUN_STEPS
