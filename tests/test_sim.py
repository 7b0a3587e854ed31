"""Closed-loop RK4 simulation and oscillation measurement."""

from __future__ import annotations

import math
import random
from bisect import bisect_right

import numpy as np
import pytest

from dfcycle import LinearPlant, PiecewiseNonlinearity, sim
from dfcycle.cycles import analyze
from dfcycle.sim import (
    CONVERGED,
    DIVERGED,
    DIVERGENCE_NORM,
    SUSTAINED,
    default_horizon,
    loop_matrices,
    measure_oscillation,
    simulate,
)

from conftest import plant_a, plant_b, random_nonlinearity

NL_A = PiecewiseNonlinearity(x=(2, 7, 20, 20, 25), y=(0, 4.5, 7.21, 4.21, 5.25))
NL_B = PiecewiseNonlinearity(x=(3, 6, 10, 19), y=(3, 3, 10, 10))
RELAY = PiecewiseNonlinearity(x=(0.0, 0.0), y=(0.0, 1.0), final_slope=0.0)


def linear_gain(m: float) -> PiecewiseNonlinearity:
    return PiecewiseNonlinearity(x=(0.0,), y=(0.0,), final_slope=m)


def reference_rk4(plant, nl, x0, T, dt):
    """Classical RK4 on plain lists, every stage through ``nl.evaluate``.

    Returns the states (truncated at the first one past the divergence
    norm) and the verdict read from them.
    """
    A, B, C = loop_matrices(plant)
    A, B, C = A.tolist(), B.tolist(), C.tolist()

    def rhs(s):
        u = nl.evaluate(sum(c * v for c, v in zip(C, s)))
        return [sum(a * v for a, v in zip(row, s)) + b * u for row, b in zip(A, B)]

    def shift(s, k, a):
        return [v + a * w for v, w in zip(s, k)]

    h = dt
    s = [float(v) for v in x0]
    traj = [s]
    for _ in range(int(round(T / dt))):
        k1 = rhs(s)
        k2 = rhs(shift(s, k1, 0.5 * h))
        k3 = rhs(shift(s, k2, 0.5 * h))
        k4 = rhs(shift(s, k3, h))
        s = [v + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
             for v, a, b, c, d in zip(s, k1, k2, k3, k4)]
        traj.append(s)
        if max(abs(v) for v in s) > DIVERGENCE_NORM:
            return np.array(traj), DIVERGED
    traj = np.array(traj)
    t = np.arange(len(traj)) * dt
    measured = measure_oscillation(t, traj @ np.array(C))
    return traj, CONVERGED if measured is None else SUSTAINED


def line_changes(pattern) -> int:
    """How often a step's stages change lines; a guessed pattern changes once at most,
    so one that changes twice is a refined guess."""
    return sum(a != b for a, b in zip(pattern, pattern[1:]))


def cycle_start(plant, nl, scale, periods):
    """(x0, T, dt): ``scale`` times the predicted cycle's x(0), over ``periods``."""
    (co,) = analyze(plant, nl)
    (cyc,) = co.cycles
    _, dt = default_horizon(cyc.omega)
    return scale * np.asarray(cyc.ellipse_x0), periods * 2.0 * math.pi / cyc.omega, dt


class TestLoopSetup:
    def test_matrices_shapes(self):
        A, B, C = loop_matrices(plant_b(15.0))
        assert A.shape == (3, 3) and B.shape == (3,) and C.shape == (3,)

    def test_default_horizon_scales_with_period(self):
        T, dt = default_horizon(2.0)
        period = math.pi
        assert T == pytest.approx(200.0 * period)
        assert dt == pytest.approx(period / 400.0)


class TestAgainstClosedForm:
    def test_linear_loop_matches_matrix_exponential(self):
        # with a pure gain nonlinearity the loop is linear:
        # xdot = (A - m B C) x, solvable by eigendecomposition
        p = LinearPlant(num=(1.0,), den=(1.0, 3.0, 2.0))
        m = 0.7
        A, B, C = loop_matrices(p)
        M = A - m * np.outer(B, -C)  # C here is already negated
        x0 = np.array([1.0, -0.5])
        T = 4.0
        vals, vecs = np.linalg.eig(M)
        exact = (vecs @ np.diag(np.exp(vals * T)) @ np.linalg.inv(vecs) @ x0).real

        res = simulate(p, linear_gain(m), x0, T, T / 4000.0)
        np.testing.assert_allclose(res.states[-1], exact, atol=1e-9)

    def test_rk4_is_fourth_order(self):
        p = LinearPlant(num=(1.0,), den=(1.0, 3.0, 2.0))
        m = 0.7
        A, B, C = loop_matrices(p)
        M = A - m * np.outer(B, -C)
        x0 = np.array([1.0, -0.5])
        T = 2.0
        vals, vecs = np.linalg.eig(M)
        exact = (vecs @ np.diag(np.exp(vals * T)) @ np.linalg.inv(vecs) @ x0).real

        errs = []
        steps = [100, 200, 400, 800]
        for n in steps:
            res = simulate(p, linear_gain(m), x0, T, T / n)
            errs.append(np.max(np.abs(res.states[-1] - exact)))
        orders = [
            math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)
        ]
        assert min(orders) >= 3.5


class TestVerdicts:
    def test_stable_linear_loop_converges(self):
        p = LinearPlant(num=(1.0,), den=(1.0, 3.0, 2.0))
        res = simulate(p, linear_gain(0.5), np.array([1.0, 1.0]), 40.0, 0.01)
        assert res.verdict == CONVERGED
        assert res.amplitude is None

    def test_unstable_linear_loop_diverges(self):
        p = LinearPlant(num=(1.0,), den=(1.0, 3.0, 2.0))
        res = simulate(p, linear_gain(-10.0), np.array([1.0, 0.0]), 400.0, 0.01)
        assert res.verdict == DIVERGED
        assert res.t[-1] < 400.0  # truncated at the divergence threshold

    def test_nan_states_end_the_run_diverged(self):
        # the run map's powers overflow, so every state after x0 is NaN, and a
        # NaN passes every bound test of the loop
        p = LinearPlant(num=(1.0, 1.0), den=(1.0, 3.0, 2.0), k=1e200)
        nl = PiecewiseNonlinearity(x=(1,), y=(1,), final_slope=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            res = simulate(p, nl, [1.0, 0.0], 3.0, 0.01)
        assert res.verdict == DIVERGED
        assert res.states.shape == (2, 2)
        assert np.array_equal(res.states[0], [1.0, 0.0])
        assert not np.isfinite(res.states[1]).any()
        assert np.array_equal(res.t, [0.0, 0.01])

    def test_relay_loop_sustains(self, nl_b):
        p = plant_b(30.0)
        T, dt = default_horizon(math.sqrt(3.0))
        res = simulate(p, nl_b, np.array([1.0, 1.0, 0.0]), T, dt)
        assert res.verdict == SUSTAINED
        assert res.frequency == pytest.approx(math.sqrt(3.0), rel=0.05)

    def test_requires_enough_steps(self, nl_b):
        with pytest.raises(ValueError) as err:
            simulate(plant_b(30.0), nl_b, np.zeros(3), 1.0, 0.5)
        assert str(err.value) == "horizon too short: need T >= 100*dt, got T = 1.0, dt = 0.5"

    @pytest.mark.parametrize("x0, shape", [([1.0, 0.0], "(2,)"), ([[1.0, 0.0, 0.0]], "(1, 3)")])
    def test_rejects_a_state_of_the_wrong_shape(self, nl_b, x0, shape):
        with pytest.raises(ValueError) as err:
            simulate(plant_b(30.0), nl_b, x0, 60.0, 0.01)
        assert str(err.value) == f"initial state must have shape (3,), got {shape}"

    def test_rejects_nonfinite_inputs(self, nl_b):
        # a NaN state would run to a false "converged" verdict, and T = inf
        # would size the trajectory from int(round(inf))
        p, ok = plant_b(15.0), np.array([1.0, 0.0, 0.0])
        for x0, T, dt in (
            ([math.nan, 0.0, 0.0], 60.0, 0.01),
            ([0.0, math.inf, 0.0], 60.0, 0.01),
            (ok, math.inf, 0.01),
            (ok, math.nan, 0.01),
            (ok, 60.0, math.nan),
            (ok, 60.0, math.inf),
        ):
            with pytest.raises(ValueError, match="finite"):
                simulate(p, nl_b, np.array(x0), T, dt)


class TestAgainstReference:
    """The folded, piece-affine stepper against a plain-list RK4."""

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
    def test_predicted_cycles(self, plant, nl, scale, periods, verdict):
        x0, T, dt = cycle_start(plant, nl, scale, periods)
        self.check(plant, nl, x0, T, dt, verdict)

    def test_relay_jump_at_origin(self):
        T, dt = default_horizon(math.sqrt(3.0))
        res = self.check(plant_b(1.0), RELAY, [0.1, 0.2, 0.0], T / 10.0, dt, SUSTAINED)
        assert res.full_steps > 0

    def test_linear_gain_takes_no_full_step(self):
        p = LinearPlant(num=(1.0,), den=(1.0, 3.0, 2.0))
        res = self.check(p, linear_gain(0.5), [1.0, 1.0], 40.0, 0.01, CONVERGED)
        assert res.full_steps == 0

    def test_full_steps_only_near_breakpoints(self):
        x0, T, dt = cycle_start(plant_b(30.0), NL_B, 0.5, 20)
        res = simulate(plant_b(30.0), NL_B, x0, T, dt)
        assert 0 < res.full_steps < 0.1 * (len(res.t) - 1)

    @staticmethod
    def check(plant, nl, x0, T, dt, verdict):
        ref, ref_verdict = reference_rk4(plant, nl, x0, T, dt)
        res = simulate(plant, nl, x0, T, dt)
        assert ref_verdict == res.verdict == verdict
        assert len(res.t) == len(ref)
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(res.states - ref) / scale) <= 1e-9
        return res


class TestLoopMemo:
    """``simulate`` builds its folded step and maps once per (plant, nl, dt)."""

    @pytest.mark.parametrize(
        "plant, nl, first, second, first_refines",
        [
            (plant_b(30.0), NL_B, (0.5, 60), (1.5, 20), True),
            (plant_b(30.0), NL_B, (1.5, 20), (0.5, 60), False),
            (plant_a(6.0), NL_A, (2.0, 40), (0.3, 40), True),  # diverges
            (plant_a(6.0), NL_A, (0.3, 40), (2.0, 40), False),
            (plant_a(6.0), NL_A, (2.0, 40), (2.0, 40), True),
        ],
        ids=["b-inner-outer", "b-outer-inner", "a-outer-inner", "a-inner-outer",
             "a-outer-twice"],
    )
    def test_a_run_after_another_on_its_loop_keeps_its_bits(
        self, monkeypatch, cold_sim_memo, bounded_lookups, plant, nl, first, second,
        first_refines,
    ):
        # (scale, periods) of two runs on one cycle, so on one loop; a
        # pattern the first run built, refined ones too, is not built again
        # in the second
        def run(scale, periods):
            x0, T, dt = cycle_start(plant, nl, scale, periods)
            return simulate(plant, nl, x0, T, dt)

        cold = run(*second)
        cold_sim_memo()
        built = []
        crossing_map = sim._crossing_map

        def recording(R, Cm, Phi, G, pattern, tail):
            built.append(pattern)
            return crossing_map(R, Cm, Phi, G, pattern, tail)

        monkeypatch.setattr(sim, "_crossing_map", recording)
        run(*first)
        assert any(line_changes(pattern) > 1 for pattern in built) == first_refines
        warm = run(*second)
        assert len(set(built)) == len(built)
        assert sim._loop.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert warm.verdict == cold.verdict and len(warm.t) == len(cold.t)
        assert np.array_equal(warm.states, cold.states)
        assert (warm.full_steps, warm.batches) == (cold.full_steps, cold.batches)
        assert (warm.amplitude, warm.frequency) == (cold.amplitude, cold.frequency)

    def test_another_loop_is_built_anew(self, cold_sim_memo):
        # another dt, another plant's bits or other lines rebuild the loop; an
        # equal nonlinearity, another object, does not
        plant, nl = plant_b(30.0), NL_B
        x0, T, dt = cycle_start(plant, nl, 0.5, 2)
        again = PiecewiseNonlinearity(x=nl.x, y=nl.y)  # the same lines
        moved = PiecewiseNonlinearity(x=(3, 6, 10, math.nextafter(19, 20)), y=nl.y)
        runs = [
            (plant, nl, dt),
            (plant, again, dt),
            (plant, nl, math.nextafter(dt, 1.0)),
            (plant_b(math.nextafter(30.0, 31.0)), nl, dt),
            (plant, moved, dt),
            (plant, nl, dt),
        ]
        misses = []
        for p, n, h in runs:
            simulate(p, n, x0, T, h)
            misses.append(sim._loop.cache_info().misses)
            assert sim._loop.cache_info().currsize == 1
        # one loop is kept: the first one's maps are built again at the last
        assert misses == [1, 1, 2, 3, 4, 5]
        assert sim._loop.cache_info().maxsize == 1


def test_bound_tests_agree_with_the_line_lookup():
    # a float passes the bound test of the line the bisection of
    # ``line_starts`` puts it on, and no other's: ±0, ±inf, the least
    # subnormals, and every lo and hi with its two neighbours
    rng = random.Random(2)
    maps = [RELAY, NL_A, NL_B] + [random_nonlinearity(rng) for _ in range(300)]
    for nl in maps:
        low, high = np.array([sim._bounds((line,) * 4, 0)[:, 0] for line in nl.lines]).T
        xs = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324]  # a list keeps -0.0
        for v in (end for line in nl.lines for end in line[:2]):
            xs += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
        for x in xs:
            on = ~((x < low) | (x >= high))
            assert np.flatnonzero(on).tolist() == [bisect_right(nl.line_starts, x) - 1]


class TestMeasurement:
    def test_clean_sine(self):
        w = 1.7
        t = np.linspace(0.0, 80.0, 20_001)
        x = 3.2 * np.sin(w * t)
        amp, freq = measure_oscillation(t, x)
        assert amp == pytest.approx(3.2, rel=1e-3)
        assert freq == pytest.approx(w, rel=1e-3)

    def test_decaying_signal_rejected(self):
        t = np.linspace(0.0, 80.0, 20_001)
        x = np.exp(-0.1 * t) * np.sin(1.7 * t)
        assert measure_oscillation(t, x) is None

    def test_flat_signal_rejected(self):
        t = np.linspace(0.0, 10.0, 1001)
        assert measure_oscillation(t, np.full_like(t, 1e-12)) is None

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_crossings_on_a_sample_are_counted(self, zero):
        # 0, 1, 2, 1, 0, -1, -2, -1 at step 0.1: every crossing lands on a sample
        x = np.tile([zero, 1.0, 2.0, 1.0, zero, -1.0, -2.0, -1.0], 40)
        t = np.arange(len(x)) * 0.1
        amp, freq = measure_oscillation(t, x)
        shifted = measure_oscillation(t, x + 1e-9)
        assert amp == 2.0 and freq == pytest.approx(2.0 * math.pi / 0.8, rel=1e-12)
        assert freq == pytest.approx(shifted[1], rel=1e-12)

    def test_crossing_from_minus_zero_to_zero(self):
        # each period rises once, from -0.0 to 0.0, at the first of the two
        x = np.tile([-1.0, -0.0, 0.0, 1.0, 2.0, 1.0, 0.0, -1.0], 40)
        t = np.arange(len(x)) * 0.1
        amp, freq = measure_oscillation(t, x)
        assert amp == 1.5 and freq == pytest.approx(2.0 * math.pi / 0.8, rel=1e-12)
