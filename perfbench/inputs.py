"""Seeded input generators for the three workloads.

Every generator draws from a ``random.Random`` seeded by the command line, so
one seed always yields the same op list.  The library only ever sees the
``PiecewiseNonlinearity`` and ``LinearPlant`` objects built here.

Ops come in rounds of fixed composition and the benchmark always finishes the
round it is in, so every run measures the same mix of op classes and only the
continuous parameters inside each class depend on the seed.  That keeps the
end-to-end figures comparable across seeds.

Input properties each generator varies, and why:

- plant order (1-3 lags after the integrator): ``phase_crossovers`` and
  ``nyquist_contour`` evaluate the plant polynomials thousands of times, so
  their cost grows with the order; the RK4 stepper's cost grows with it too.
- right-half-plane zero: a non-minimum-phase plant crosses the negative real
  axis by a different phase budget and exercises the contour enclosure test
  on a second geometry (the paper's first case study has one).
- crossover presence: a plant without a phase crossover skips the whole
  cycle search, so ``linsys`` is all of its cost.
- cycle count (0-3 per crossover): set by where the gain margin falls on the
  describing-function curve; each cycle costs one root bisection, one
  enclosure classification and one ellipse, and in ``verify`` two
  simulations.
- breakpoint count (1-6) and jumps (0-2): the closed form sums one term per
  slope change and jump, and the quadrature oracle splits its domain at every
  breakpoint, so both scale with them.
- reuse of plant shapes: ``gain_sweep`` sweeps a handful of shapes over many
  gains, so crossover frequencies (independent of the gain) repeat across
  ops; ``verify`` and ``df_curves`` draw a fresh plant and nonlinearity for
  every op, so nothing repeats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from dfcycle import LinearPlant, PiecewiseNonlinearity

# The paper's two case studies, verbatim.
NL_A = PiecewiseNonlinearity(x=(2, 7, 20, 20, 25), y=(0, 4.5, 7.21, 4.21, 5.25))
NL_B = PiecewiseNonlinearity(x=(3, 6, 10, 19), y=(3, 3, 10, 10))


def plant_a(k: float) -> LinearPlant:
    """k (2 - s) / (s (s + 1)): integrator, one lag, right-half-plane zero."""
    return LinearPlant(num=(-1.0, 2.0), den=(1.0, 1.0, 0.0), k=k)


def plant_b(k: float) -> LinearPlant:
    """k / (s (s + 1) (s + 3)): integrator plus two lags."""
    return LinearPlant(num=(1.0,), den=(1.0, 4.0, 3.0, 0.0), k=k)


CASE_STUDIES = (
    ("plant_a", 1.0),
    ("plant_a", 2.5),
    ("plant_a", 6.0),
    ("plant_b", 5.0),
    ("plant_b", 15.0),
    ("plant_b", 30.0),
)

# Generated plant shapes for the gain sweep: (name, lags after the
# integrator, right-half-plane zero).  The integrator plus one lag alone never
# reaches -180 degrees, so that shape has no phase crossover.
SHAPES = (
    ("int_lag1", 1, False),
    ("int_lag2", 2, False),
    ("int_lag3", 3, False),
    ("int_lag1_rhpz", 1, True),
    ("int_lag2_rhpz", 2, True),
)
GAINS_PER_SHAPE = 8
NL_POOL_RANDOM = 2

# df_curves sizes: on the dense grid per-point cost (about 0.1 us) dominates
# per-call cost (about 50 us).
DENSE_POINTS = 20_000
ORACLE_AMPLITUDES = 8
MAX_BREAKPOINTS = 6
MAX_JUMPS = 2

# The frequency range ``cycles.analyze`` searches for phase crossovers.
OMEGA_RANGE = (1e-3, 1e3)

# verify: every simulation runs this many periods of the predicted cycle.
VERIFY_PERIODS = 60


def random_nonlinearity(
    rng: random.Random, *, n_breakpoints: int | None = None
) -> PiecewiseNonlinearity:
    """Odd piecewise-linear map with bounded complexity.

    Same shape rules as the test suite's random generator: separated
    abscissae in [0.3, 12], slopes in [-1.5, 1.5], jumps of 0.3-2.5 either
    way, and a forced slope change wherever there is no jump.
    ``n_breakpoints`` fixes the count instead of drawing it.
    """
    n = n_breakpoints if n_breakpoints is not None else rng.randint(1, MAX_BREAKPOINTS)
    xs = sorted(rng.uniform(0.3, 12.0) for _ in range(n))
    for i in range(1, n):
        xs[i] = max(xs[i], xs[i - 1] + 0.25)

    n_jumps = rng.randint(0, min(MAX_JUMPS, n))
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
        if i not in jump_at and abs(new_slope - slope) < 1e-3:
            new_slope += 0.5
        slope = new_slope
        prev = xi
    return PiecewiseNonlinearity(x=tuple(x), y=tuple(y), final_slope=slope)


def _den(poles) -> tuple[float, ...]:
    """s * prod(s + p), descending coefficients; the constant term is exactly 0."""
    den = np.array([1.0, 0.0])
    for p in poles:
        den = np.polymul(den, [1.0, p])
    return tuple(float(c) for c in den)


def reference_crossovers(plant: LinearPlant) -> list[float]:
    """Phase crossover frequencies from the roots of Im N(jw) conj(D(jw)).

    Independent of the library's scan-and-bisect search: G(jw) is real
    exactly where the imaginary part of N(jw) * conj(D(jw)), a real
    polynomial in w, vanishes.  Only roots in ``OMEGA_RANGE`` with Re G < 0
    are crossovers.
    """

    def in_w(coeffs):
        deg = len(coeffs) - 1
        return np.array([c * 1j ** (deg - i) for i, c in enumerate(coeffs)])

    num_w, den_w = in_w(plant.num), in_w(plant.den)
    im = np.polymul(num_w, np.conj(den_w)).imag
    nz = np.flatnonzero(np.abs(im) > 1e-300)
    if len(nz) == 0:
        return []
    roots = np.roots(im[nz[0]:])
    lo, hi = OMEGA_RANGE
    out = []
    for r in roots:
        w = float(r.real)
        if abs(r.imag) > 1e-9 * max(abs(r), 1.0) or not lo < w < hi:
            continue
        g = plant.k * np.polyval(plant.num, 1j * w) / np.polyval(plant.den, 1j * w)
        if g.real < 0:
            out.append(w)
    return sorted(out)


def _margin_at_unit_gain(num, den) -> float:
    (w,) = reference_crossovers(LinearPlant(num, den, 1.0))
    return 1.0 / abs(np.polyval(num, 1j * w) / np.polyval(den, 1j * w))


# -- gain_sweep -------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisOp:
    """One ``analyze`` call; ``case`` names a case study, ``shape`` a generated shape."""

    plant: LinearPlant
    nl: PiecewiseNonlinearity
    shape: str
    case: tuple[str, float] | None = None


def _case_study_op(index: int) -> AnalysisOp:
    name, k = CASE_STUDIES[index % len(CASE_STUDIES)]
    if name == "plant_a":
        return AnalysisOp(plant_a(k), NL_A, name, (name, k))
    return AnalysisOp(plant_b(k), NL_B, name, (name, k))


def _shape_sweep(rng: random.Random, lags: int, rhp_zero: bool):
    """(num, den, gains) for one generated shape.

    Poles in [0.5, 5]; the zero, when present, in [1, 4].  Gains place the
    gain margin log-uniformly in [0.12, 2.5], which spans zero to three
    describing-function intersections for the nonlinearity pool; the shape
    without a crossover gets gains log-uniform in [0.5, 20].
    """
    poles = sorted(rng.uniform(0.5, 5.0) for _ in range(lags))
    num = (-1.0, rng.uniform(1.0, 4.0)) if rhp_zero else (1.0,)
    den = _den(poles)
    if lags == 1 and not rhp_zero:
        gains = [math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
                 for _ in range(GAINS_PER_SHAPE)]
    else:
        k0 = _margin_at_unit_gain(num, den)
        gains = [k0 / math.exp(rng.uniform(math.log(0.12), math.log(2.5)))
                 for _ in range(GAINS_PER_SHAPE)]
    return num, den, gains


def gain_sweep_rounds(seed: int) -> Iterator[list[AnalysisOp]]:
    """Rounds of one case-study op plus one op per generated shape.

    The six case studies recur every six rounds; each generated shape steps
    through its gain list, paired with a nonlinearity pool of NL_A, NL_B and
    two random shapes.
    """
    rng = random.Random(seed)
    sweeps = [(name, *_shape_sweep(rng, lags, rhpz)) for name, lags, rhpz in SHAPES]
    pool = [NL_A, NL_B] + [random_nonlinearity(rng) for _ in range(NL_POOL_RANDOM)]
    r = 0
    while True:
        ops = [_case_study_op(r)]
        for i, (name, num, den, gains) in enumerate(sweeps):
            k = gains[r % len(gains)]
            nl = pool[(r + i) % len(pool)]
            ops.append(AnalysisOp(LinearPlant(num, den, k), nl, name))
        yield ops
        r += 1


def gain_sweep_warmup() -> AnalysisOp:
    """The three-cycle case study: exercises every step of ``analyze``."""
    return _case_study_op(4)


# -- verify -----------------------------------------------------------------


@dataclass(frozen=True)
class VerifyOp:
    plant: LinearPlant
    nl: PiecewiseNonlinearity
    family: str  # "sustained" | "dichotomy"


def _scaled(rng: random.Random, v: float, spread: float) -> float:
    return v * rng.uniform(1.0 - spread, 1.0 + spread)


def sustained_op(rng: random.Random) -> VerifyOp:
    """NL_B-like saturation in loop with k / (s (s + a) (s + b)).

    Breakpoints and plateaus within 10 % of NL_B, poles near 1 and 3, and a
    gain margin in [0.25, 0.4] below the curve's interior dip, so the only
    cycle is a stable one on the decaying tail: both simulations sustain.
    """
    x1, x2, x3, x4 = (_scaled(rng, v, 0.1) for v in (3.0, 6.0, 10.0, 19.0))
    y1, y3 = _scaled(rng, 3.0, 0.1), _scaled(rng, 10.0, 0.1)
    nl = PiecewiseNonlinearity(x=(x1, x2, x3, x4), y=(y1, y1, y3, y3))
    a, b = rng.uniform(0.8, 1.25), rng.uniform(2.5, 3.5)
    margin = rng.uniform(0.25, 0.4)
    return VerifyOp(LinearPlant((1.0,), _den((a, b)), a * b * (a + b) / margin), nl,
                    "sustained")


def dichotomy_op(rng: random.Random) -> VerifyOp:
    """NL_A-like dead zone in loop with k (z - s) / (s (s + a)).

    Abscissae, values and final slope within 5 % of NL_A (dead zone, two
    rising slopes, a downward jump), zero near 2, lag near 1 and a gain
    margin a/k in [0.12, 0.15] below the curve's tail: one unstable cycle,
    inside which the loop converges and outside which it diverges, ending
    the run early.
    """
    x1, x2, x3, x5 = (_scaled(rng, v, 0.05) for v in (2.0, 7.0, 20.0, 25.0))
    y2, y3 = _scaled(rng, 4.5, 0.05), _scaled(rng, 7.21, 0.05)
    y4 = y3 - _scaled(rng, 3.0, 0.05)
    # the final slope sets the curve's tail; keep it within 5 % of NL_A's
    y5 = y4 + _scaled(rng, 0.208, 0.05) * (x5 - x3)
    nl = PiecewiseNonlinearity(x=(x1, x2, x3, x3, x5), y=(0.0, y2, y3, y4, y5))
    z, a = rng.uniform(1.8, 2.2), rng.uniform(0.9, 1.1)
    margin = rng.uniform(0.12, 0.15)
    return VerifyOp(LinearPlant((-1.0, z), _den((a,)), a / margin), nl, "dichotomy")


def verify_rounds(seed: int) -> Iterator[list[VerifyOp]]:
    """Rounds of two sustained ops and one dichotomy op, all fresh."""
    rng = random.Random(seed)
    while True:
        yield [sustained_op(rng), sustained_op(rng), dichotomy_op(rng)]


def verify_warmup() -> VerifyOp:
    """The paper's sustained case study, plant_b at k = 30 with NL_B."""
    return VerifyOp(plant_b(30.0), NL_B, "sustained")


# -- df_curves --------------------------------------------------------------


@dataclass(frozen=True)
class CurvesOp:
    """One df command run; the oracle runs at ``dense[oracle_at]``."""

    nl: PiecewiseNonlinearity
    dense: np.ndarray
    plot_grid: np.ndarray
    oracle_at: np.ndarray


def plot_grid(nl: PiecewiseNonlinearity) -> np.ndarray:
    """The df command's default grid: step Xr/100 from 0 up to 3 Xr."""
    return (max(nl.max_breakpoint, 1.0) / 100.0) * np.arange(0, 301)


def curves_op(nl: PiecewiseNonlinearity) -> CurvesOp:
    top = max(nl.max_breakpoint, 1.0)
    dense = np.linspace(top / 1000.0, 3.0 * top, DENSE_POINTS)
    oracle_at = np.linspace(0, DENSE_POINTS - 1, ORACLE_AMPLITUDES).astype(int)
    return CurvesOp(nl, dense, plot_grid(nl), oracle_at)


def curves_rounds(seed: int) -> Iterator[list[CurvesOp]]:
    """Rounds of one fresh nonlinearity per breakpoint count 1..6."""
    rng = random.Random(seed)
    while True:
        yield [curves_op(random_nonlinearity(rng, n_breakpoints=n))
               for n in range(1, MAX_BREAKPOINTS + 1)]


def curves_warmup() -> CurvesOp:
    """The paper's first case-study nonlinearity (dead zone, slopes, a jump)."""
    return curves_op(NL_A)
