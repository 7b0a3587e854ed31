"""Shared fixtures: case-study inputs and a random-nonlinearity generator."""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right

import pytest

from dfcycle import LinearPlant, PiecewiseNonlinearity, linsys, sim


def random_nonlinearity(
    rng: random.Random,
    *,
    max_breakpoints: int = 6,
    max_jumps: int = 2,
) -> PiecewiseNonlinearity:
    """A valid odd piecewise-linear nonlinearity with bounded complexity.

    Breakpoint abscissae are kept well separated and slopes/jumps bounded so
    the generated shapes exercise the code without degenerate geometry.
    """
    n = rng.randint(1, max_breakpoints)
    xs = sorted(rng.uniform(0.3, 12.0) for _ in range(n))
    # enforce separation so quadrature split points stay distinct
    for i in range(1, n):
        xs[i] = max(xs[i], xs[i - 1] + 0.25)

    n_jumps = rng.randint(0, min(max_jumps, n))
    jump_at = set(rng.sample(range(n), n_jumps))

    x: list[float] = []
    y: list[float] = []
    value = 0.0
    prev = 0.0
    slope = rng.uniform(-1.5, 1.5)
    for i, xi in enumerate(xs):
        value += slope * (xi - prev)
        x.append(xi)
        y.append(value)
        if i in jump_at:
            value += rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.5)
            x.append(xi)
            y.append(value)
        new_slope = rng.uniform(-1.5, 1.5)
        # forbid a silent duplicate vertex: no jump means the slope must change
        if i not in jump_at and abs(new_slope - slope) < 1e-3:
            new_slope += 0.5
        slope = new_slope
        prev = xi
    return PiecewiseNonlinearity(x=tuple(x), y=tuple(y), final_slope=slope)


# ``linsys._crossings`` forms G = k (N / D) and |G| = hypot(Re G, Im G).
# Against G = (k N) / D and |G| = np.abs(G) on NumPy arrays, the gain
# margins, the arc's radius and the crossovers' abscissae differed by at most
# 4 ulps of themselves, and Re G at a range's end by at most 4 ulps of |G|
# there (its own digits can cancel), over about 60 000 random plants, every
# plant of this suite and the benchmark's ops.  The bound is twice that.
ULPS = 8


def within_ulps(got: float, want: float, scale: float | None = None) -> bool:
    """Whether ``got`` is within ``ULPS`` ulps of ``scale`` (default
    ``want``) of ``want``."""
    return got == want or abs(got - want) <= ULPS * math.ulp(want if scale is None else scale)


@pytest.fixture
def cold_crossing_memo():
    """Empties both memos of the gain-free crossover data (``linsys._gain_free``
    and ``linsys._axis_poles``) before and after the test; the value empties
    them again when called."""

    def clear():
        linsys._gain_free.cache_clear()
        linsys._axis_poles.cache_clear()

    clear()
    yield clear
    clear()


@pytest.fixture
def cold_sim_memo():
    """Empties ``sim._loop``, the memo of a loop's run maps and crossing maps,
    before and after the test; the value empties it again when called."""
    clear = sim._loop.cache_clear
    clear()
    yield clear
    clear()


@pytest.fixture
def bounded_lookups(monkeypatch):
    """Makes ``sim.simulate``'s line lookups raise past 100 000 in the test.

    A run looks up one line per product that stops early, some thousands at
    most; a straddling step whose retries never settle would take products
    without end, and fails here instead."""
    calls = itertools.count(1)

    def counted(starts, x):
        assert next(calls) <= 100_000, "a straddling step takes products without end"
        return bisect_right(starts, x)

    monkeypatch.setattr(sim, "bisect_right", counted)


@pytest.fixture
def nl_a() -> PiecewiseNonlinearity:
    """First case-study nonlinearity: rise, shallower rise, drop, shallow rise."""
    return PiecewiseNonlinearity(x=(2, 7, 20, 20, 25), y=(0, 4.5, 7.21, 4.21, 5.25))


@pytest.fixture
def nl_b() -> PiecewiseNonlinearity:
    """Second case-study nonlinearity: slope 1, plateau, slope 1.75, plateau."""
    return PiecewiseNonlinearity(x=(3, 6, 10, 19), y=(3, 3, 10, 10))


def plant_a(k: float) -> LinearPlant:
    """k (2 - s) / (s (s + 1)): integrator plus lag with a right-half-plane zero."""
    return LinearPlant(num=(-1.0, 2.0), den=(1.0, 1.0, 0.0), k=k)


def plant_b(k: float) -> LinearPlant:
    """k / (s (s + 1) (s + 3)): integrator plus two lags."""
    return LinearPlant(num=(1.0,), den=(1.0, 4.0, 3.0, 0.0), k=k)

