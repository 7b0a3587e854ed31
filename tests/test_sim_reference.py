"""``simulate``'s batches against the label loop.

``simulate`` finds the piece of C s by bisecting the signed line table
``nl.lines`` and accepts a batch's steps up to the first state past
``DIVERGENCE_NORM`` or stage abscissa outside its piece's interval, in one
test against the piece's bound vectors.  The reference below is the loop it
replaced: it labels C s and every stage abscissa by its own search of |x| in
the vertex abscissae of ``nl.pieces`` and the sign, checks divergence
separately on the accepted states, builds each run map by its own chain of
products, and takes a straddling step through a generic stage loop.  Both
run the same folded matrices in the same order, so states, verdicts, step
counts and batch counts must be equal exactly.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcycle import LinearPlant, PiecewiseNonlinearity
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
from test_sim import NL_A, NL_B, RELAY, cycle_start, linear_gain


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


def reference_simulate(plant, nl, x0, T, dt):
    """(states, verdict, full_steps, batches) of the labelling loop."""
    A, B, C_loop = loop_matrices(plant)
    n = len(B)
    x0 = np.asarray(x0, dtype=float)

    R, Cm, Phi, G = _folded_step(A, B, C_loop, dt)
    piece_of, line = reference_pieces(nl)
    piece_maps: dict[int, np.ndarray] = {}
    Cm_rows = Cm.tolist()
    evaluate = nl.evaluate

    def full_step(s):
        u: list[float] = []
        for x, c in zip((R @ s).tolist(), Cm_rows):
            u.append(evaluate(x + sum(a * v for a, v in zip(c, u))))
        return Phi @ s + G @ np.array(u)

    steps = int(round(T / dt))
    traj = np.empty((steps + 1, n))
    traj[0] = x0
    s = x0
    affine = np.ones(n + 1)  # [s, 1]
    k = 0
    full_steps = batches = 0
    diverged_at = None
    while k < steps:
        batches += 1
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
            s = traj[k]
        if run < todo:
            s = full_step(s)
            full_steps += 1
            k += 1
            traj[k] = s
            if np.abs(s).max() > DIVERGENCE_NORM:
                diverged_at = k
                break

    if diverged_at is not None:
        return traj[: diverged_at + 1], DIVERGED, full_steps, batches
    t = np.arange(len(traj)) * dt
    measured = measure_oscillation(t, traj @ np.asarray(C_loop))
    return traj, CONVERGED if measured is None else SUSTAINED, full_steps, batches


def assert_matches_reference(plant, nl, x0, T, dt):
    states, verdict, full_steps, batches = reference_simulate(plant, nl, x0, T, dt)
    res = simulate(plant, nl, x0, T, dt)
    assert res.verdict == verdict
    assert len(res.t) == len(states)
    assert res.full_steps == full_steps
    assert res.batches == batches
    assert np.array_equal(res.states, states)
    return res


@pytest.mark.parametrize(
    "plant, nl, scale, periods, verdict",
    [
        (plant_b(30.0), NL_B, 0.5, 20, SUSTAINED),
        (plant_b(30.0), NL_B, 1.5, 20, SUSTAINED),
        (plant_a(6.0), NL_A, 0.3, 40, CONVERGED),
        (plant_a(6.0), NL_A, 2.0, 40, DIVERGED),  # crosses the jump at 20
    ],
    ids=["b-inner", "b-outer", "a-inner", "a-outer"],
)
def test_predicted_cycles_match_reference(plant, nl, scale, periods, verdict):
    x0, T, dt = cycle_start(plant, nl, scale, periods)
    assert assert_matches_reference(plant, nl, x0, T, dt).verdict == verdict


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


@pytest.mark.parametrize("start", [2.75, 3.0])
def test_stage_exactly_on_a_jump_matches_reference(start):
    # a double integrator in a dead zone moves C s by exactly h per step, so
    # from 2.75 the last stage of the first step lands on the jump at 3, and
    # from 3.0 the first stage starts on it
    plant = LinearPlant(num=(1.0,), den=(1.0, 0.0, 0.0))
    relay = PiecewiseNonlinearity(x=(3.0, 3.0), y=(0.0, 1.0), final_slope=0.0)
    res = assert_matches_reference(plant, relay, [-start, -1.0], 25.0, 0.25)
    assert res.full_steps > 0


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
    assert_matches_reference(plant, nl, x0, 20.0, 0.01)


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
    # the batch, yet the step straddles the breakpoint, so it is taken stage
    # by stage and diverges there
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
    # -0.125, so the last stage of step 100 lands on the jump at 3
    plant = LinearPlant(num=(1.0,), den=(1.0, 0.0, 0.0))
    relay = PiecewiseNonlinearity(x=(3.0, 3.0), y=(0.0, 1.0), final_slope=0.0)
    dt = 2.0**-5
    res = assert_matches_reference(plant, relay, [0.125, -1.0], 100 * dt, dt)
    assert res.full_steps == 1 and res.batches == 3 and len(res.t) == 101
    assert np.all(res.x[:-1] < 3.0) and res.x[-2] + dt == 3.0


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
