"""``_contour`` against the grid scan it replaced, kept as an independent check.

``_contour`` takes the phase crossovers as the real roots of the polynomial
P(omega) = Im N(j omega) conj(D(j omega)) (``linsys._crossings``).
``reference_contour`` below is the search it replaced: ``np.roots`` for
poles on the imaginary axis, G sampled on a 4 000-point log grid over
``OMEGA_RANGE``, and each sign change of Im G refined by false position
(``test_scan_reference.array_refine_sign_changes``, the array form of the
F = K scan's refinement).  It refines until |Im G| <= 1e-15 |G| or for
``MAX_ITER`` steps, tighter than the 1e-12 the library's scan stopped
at, so that its roots are good to the tolerance ``REL`` wherever G can be
evaluated that well (``omega_condition``).

On random coefficient sets of order 1-6, each at gains of both signs from
1e-300 to 1e300, ``_contour`` and ``analyze`` must give the same crossing
counts and directions as the reference wherever no two crossings share a
grid cell, the same cycle counts and labels, and omega, gain margins and the
crossovers' table abscissae within those tolerances.  The reference keeps
the trigonometric arc and interpolated chord that the closed forms replaced:
the table's other rows must have its counts and, within 1e-10 relative (or
2^-1022 absolute, for subnormals), its abscissae.  Where the reference
raises, ``_contour`` must raise an error of the same type, or succeed where
the grid sampled a pole, or a G or a denominator that overflows, away from
the points it evaluates; where ``np.roots`` overflows on the denominator, it
raises ``PoleOnAxisError`` instead of a RuntimeWarning.  Neither takes a
zero of num on the imaginary axis, where G passes through 0, for a crossing:
the reference drops a refined omega where |num(j omega)| is at most the
library's ``NUM_ZERO`` of the sum of its terms' sizes (its refinement, which
cannot meet its tolerance on Im G / |G| there, runs to neighbouring floats
about the zero), so both drop the same band.  The plant
1/(s^5 + s^4 + 2 s^3 + 3 s^2 + (1 + eps) s + 1) shows what the grid missed:
two crossings 1e-4 apart, inside one grid cell.

``array_g_crossings`` is ``linsys._crossings`` with G = k N / D formed on
NumPy arrays at ``_gain_free``'s points and |G| taken by ``np.abs``, as it
was before G was formed as k times the kept G1 = N / D.  With it in
``_crossings``' place, ``nyquist_contour`` and ``phase_crossovers`` must give
the same omega bits, row counts, directions and errors on random plants with
0-2 poles at the origin and gains of both signs, and gain margins and
abscissae within ``conftest.ULPS`` ulps (of |G| at a range's end for Re G
there).
"""

from __future__ import annotations

import math
import random
import re
import sys
import warnings

import numpy as np
import pytest

from dfcycle import LinearPlant, cycles, linsys
from dfcycle.cycles import analyze
from dfcycle.linsys import (
    NUM_ZERO,
    OMEGA_RANGE,
    PoleOnAxisError,
    _bits,
    _contour,
    _gain_free,
    _roots,
    freq_response,
    h_of_jw,
    log_grid,
    nyquist_contour,
    phase_crossovers,
)

from conftest import plant_b, within_ulps
from test_scan_reference import array_refine_sign_changes

# Relative tolerance on omega, fixed before the polynomial search was
# compared with the grid scan; the gain margin and the table's abscissae get
# omega's tolerance times their condition in omega (``margin_condition``).
REL = 1e-12
GAINS = (1.0, -1.0, 1e-300, -1e300, 1e300)
GRID = log_grid(*OMEGA_RANGE, 4000)


def reference_contour(plant):
    """The crossing rows and contour table from the grid scan."""
    r = np.roots(plant.den)
    on_axis = r.imag[(r.imag > 0) & (np.abs(r.real) <= 1e-9 * np.abs(r))]
    if on_axis.size:
        raise PoleOnAxisError(f"pole at s = {on_axis.min():.7g}j")
    g_grid = freq_response(plant, GRID)
    with np.errstate(over="ignore", invalid="ignore"):
        omegas, g, im_left = array_refine_sign_changes(
            lambda w: plant.transfer(1j * w),
            GRID,
            g_grid,
            np.imag,
            lambda g: np.abs(g.imag) <= 1e-15 * np.abs(g),
        )
    # a zero of num on the axis, where G passes through 0, is no crossing
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.polyval(np.abs(plant.num), omegas)
        through_zero = np.abs(np.polyval(plant.num, 1j * omegas)) <= NUM_ZERO * size
    keep = ~(through_zero & (size < math.inf))
    omegas, g, im_left = omegas[keep], g[keep], im_left[keep]
    overflow = ~np.isfinite(g)
    if overflow.any():
        raise PoleOnAxisError(f"G(j omega) is not finite at omega = {omegas[overflow][0]}")
    neg = g.real < 0
    omegas = omegas[neg]
    with np.errstate(over="ignore", divide="ignore"):
        margins = 1.0 / np.abs(g[neg])
    bad = ~(np.isfinite(margins) & (margins > 0.0))
    if bad.any():
        raise PoleOnAxisError(
            f"the gain margin 1/|G| is {margins[bad][0]} at omega = {omegas[bad][0]}"
        )
    rows = []
    for w, km, d in zip(omegas.tolist(), margins.tolist(), np.sign(im_left[neg]).tolist()):
        if rows and abs(w - rows[-1][0]) <= 1e-9 * w:
            rows[-1][2] += d
        else:
            rows.append([w, km, d])
    g_lo, g_hi = g_grid[0], g_grid[-1]
    table = [(-1.0 / km, 2.0 * d) for _, km, d in rows]
    end, q = np.conj(g_lo), plant.origin_poles
    if q > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            radius = 10.0 * abs(g_lo)
            theta0 = np.angle(end)
            start = radius * np.exp(1j * theta0)
        if not np.isfinite(start):
            raise PoleOnAxisError(f"the Nyquist contour is not finite: it reaches {start}")
        table.append((-radius, -float((q + (g_lo.imag > 0)) // 2)))
        end = radius * np.exp(1j * (theta0 - q * math.pi))
    for a, b in ((g_hi, np.conj(g_hi)), (end, g_lo)):
        if (a.imag > 0) != (b.imag > 0):
            t = 0.5 * a.imag / (0.5 * a.imag - 0.5 * b.imag)
            table.append(((1.0 - t) * a.real + t * b.real, 1.0 if a.imag > 0 else -1.0))
    table = np.array(table, dtype=float).reshape(-1, 2)
    table = table[(table[:, 0] < 0.0) & (table[:, 1] != 0.0)]
    return rows, table[np.argsort(table[:, 0], kind="stable")]


def reference_analyze(plant, nl):
    def contour(plant):
        # the table as a list, with the resolvent at each crossover, as
        # ``_contour`` hands them to ``analyze``
        rows, table = reference_contour(plant)
        with np.errstate(over="ignore", invalid="ignore"):
            return rows, table.tolist(), [h_of_jw(plant, w).tolist() for w, _, _ in rows]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "_contour", contour)
        return analyze(plant, nl)


def outcome(f, *args):
    """The result, or the error (a RuntimeWarning is raised as an error)."""
    try:
        return f(*args)
    except Exception as exc:
        return exc


# Errors of the grid scan that the polynomial search need not raise: it
# evaluates G only at the range's ends and at the crossings.
SAMPLED = (r"^G\(j omega\) is not finite at omega = ", r"^pole at s = ",
           r"^the denominator overflows at s = ")


def assert_close_to_reference(plant, nl) -> str:
    """Compares ``_contour``, ``nyquist_contour`` and ``analyze`` with the
    reference; returns how: "error", "sampled", "shared cell" or "rows"."""
    want, got = outcome(reference_contour, plant), outcome(_contour, plant)
    if isinstance(want, RuntimeWarning):  # np.roots overflowed on den
        assert str(got) == "the roots of the denominator are not finite", (plant, got)
        return "error"
    if isinstance(want, Exception):
        if not isinstance(got, Exception):
            assert isinstance(want, PoleOnAxisError), (plant, want)
            if str(want).startswith("the gain margin 1/|G| is inf at omega = "):
                # a crossing of the grid's Im G where G is subnormal, whose
                # sign the underflow lost
                w = float(str(want).rsplit(" ", 1)[1])
                assert abs(plant.transfer(1j * w)) < sys.float_info.min, (plant, want)
            else:
                assert any(re.match(pat, str(want)) for pat in SAMPLED), (plant, want)
            return "sampled"
        assert type(got) is type(want), (plant, got, want)
        assert type(outcome(nyquist_contour, plant)) is type(want), plant
        return "error"
    assert not isinstance(got, Exception), (plant, got, want)
    (rows, rows_table, _), (ref_rows, ref_table) = got, want
    table = nyquist_contour(plant)
    assert table.tolist() == [list(row) for row in rows_table], plant
    cells = np.searchsorted(GRID, [w for w, _, _ in rows])
    if len(set(cells.tolist())) < len(cells):
        return "shared cell"
    assert [d for _, _, d in rows] == [d for _, _, d in ref_rows], (plant, rows, ref_rows)
    assert sorted(table[:, 1].tolist()) == sorted(ref_table[:, 1].tolist()), (plant, table)
    for (w, km, _), (w_ref, km_ref, _) in zip(rows, ref_rows):
        tol_w = max(REL, 2.0**-48 * omega_condition(plant, w))
        assert w == pytest.approx(w_ref, rel=tol_w, abs=0.0), (plant, rows, ref_rows)
        tol = tol_w * margin_condition(plant, w)
        assert km == pytest.approx(km_ref, rel=tol, abs=0.0), (plant, rows, ref_rows)
        for x in (-1.0 / km, -1.0 / km_ref):  # the crossing's row in both tables
            assert np.any(np.abs(table[:, 0] - x) <= tol * abs(x)), (plant, table)
            assert np.any(np.abs(ref_table[:, 0] - x) <= tol * abs(x)), (plant, ref_table)
    others = ~np.isin(table[:, 0], [-1.0 / km for _, km, _ in rows])
    ref_others = ~np.isin(ref_table[:, 0], [-1.0 / km for _, km, _ in ref_rows])
    # the arc and the straight segments: the same counts, abscissae within
    # the rounding of the reference's trigonometry (or a subnormal's bits)
    got, want = table[others], ref_table[ref_others]
    assert got[:, 1].tolist() == want[:, 1].tolist(), (plant, table, ref_table)
    x = want[:, 0]
    close = np.abs(got[:, 0] - x) <= 1e-10 * np.abs(x) + 2.0**-1022
    assert close.all(), (plant, table, ref_table)

    result, ref_result = outcome(analyze, plant, nl), outcome(reference_analyze, plant, nl)
    if isinstance(ref_result, Exception):
        assert type(result) is type(ref_result), (plant, result, ref_result)
        return "rows"
    assert [(co.omega, co.gain_margin) for co in result] == [(w, km) for w, km, _ in rows]
    labels = [[c.stability for c in co.cycles] for co in result]
    assert labels == [[c.stability for c in co.cycles] for co in ref_result], plant
    return "rows"


def omega_condition(plant, w) -> float:
    """How much the reference's rounding moves its root at w, relative to
    the rounding: the cancellation in num and den at j w (the sum of their
    terms' sizes over their size) over the rate at which Im G / |G| turns
    with ln omega.  The reference's root is good to 32 units of rounding (2^-48)
    times this, which exceeds ``REL`` on a few plants with poles in
    near-symmetric pairs."""
    s = 1j * w * np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6])
    with np.errstate(all="ignore"):
        g = plant.transfer(s)
        turn = abs(g[2].imag / abs(g[2]) - g[0].imag / abs(g[0])) / 2e-6
        cancel = sum(
            np.polyval(np.abs(c), w) / abs(np.polyval(c, s[1])) for c in (plant.num, plant.den)
        )
    return cancel / turn


def margin_condition(plant, w) -> float:
    """|d ln |G| / d ln omega| at w, at least 1: a relative error e in
    omega moves the gain margin 1/|G| by about that times e."""
    with np.errstate(all="ignore"):
        lo, hi = np.abs(plant.transfer(1j * w * np.array([1.0 - 1e-6, 1.0 + 1e-6])))
    return max(1.0, abs(math.log(hi / lo)) / 2e-6)


def random_coefficients(rng: random.Random) -> tuple[tuple, tuple]:
    """num and den of order 1-6, with random zero coefficients, not both
    ending in 0 (a common factor s, which ``LinearPlant`` refuses).  One num
    in eight has its even or its odd powers all 0, so that num(j omega) is
    real or imaginary and may vanish on the axis."""
    order = rng.randint(1, 6)

    def coeff():
        if rng.random() < 0.15:
            return rng.choice((0.0, -0.0))
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)

    den = [coeff() or 1.0] + [coeff() for _ in range(order)]
    while True:
        num = [coeff() for _ in range(rng.randint(1, order + 1))]
        if rng.random() < 0.125:
            parity = rng.randint(0, 1)
            num = [0.0 if (len(num) - 1 - i) % 2 == parity else c for i, c in enumerate(num)]
        if num[-1] != 0.0 or den[-1] != 0.0:
            return tuple(num), tuple(den)


@pytest.mark.parametrize("seed", range(4))
def test_random_plants_match_the_reference(seed, nl_b):
    rng = random.Random(seed)
    seen = []
    for _ in range(20):
        num, den = random_coefficients(rng)
        gains = GAINS + tuple(
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2)
        )
        for k in gains:
            plant = LinearPlant(num, den, k)
            how = assert_close_to_reference(plant, nl_b)
            seen.append((how, len(_contour(plant)[0]) if how == "rows" else 0))
    # the comparison is not vacuous: most plants are compared row by row
    assert sum(1 for how, _ in seen if how == "rows") >= len(seen) // 3, seen
    assert sum(n for _, n in seen) >= 10, seen


def gap_plant(eps: float) -> LinearPlant:
    """1 / (s^5 + s^4 + 2 s^3 + 3 s^2 + (1 + eps) s + 1): Im G = 0 where
    (omega^2 - 1)^2 + eps = 0, and there G = 1 / (omega^4 - 3 omega^2 + 1)."""
    return LinearPlant((1.0,), (1.0, 1.0, 2.0, 3.0, 1.0 + eps, 1.0))


def test_two_crossings_in_one_grid_cell():
    plant = gap_plant(-1e-8)
    rows = _contour(plant)[0]
    assert [d for _, _, d in rows] == [-1.0, 1.0]
    for (w, km, _), x in zip(rows, (1.0 - 1e-4, 1.0 + 1e-4)):
        assert w == pytest.approx(math.sqrt(x), rel=1e-12)
        assert km == pytest.approx(abs(x * x - 3.0 * x + 1.0), rel=1e-12)  # 0.9999, 1.0001
    (w1, _, _), (w2, _, _) = rows
    assert np.searchsorted(GRID, w1) == np.searchsorted(GRID, w2)
    assert reference_contour(plant)[0] == []  # the grid scan saw neither
    # the two count in opposite directions: no net winding about -1
    table = nyquist_contour(plant)
    assert table[np.abs(table[:, 0] + 1.0) < 1e-3, 1].tolist() == [-2.0, 2.0]


def test_tangency_counts_nothing():
    # G touches the negative real axis at omega = 1
    plant = gap_plant(0.0)
    rows = _contour(plant)[0]
    table = nyquist_contour(plant)
    assert rows == [] or [d for _, _, d in rows] == [0.0]
    assert table[np.abs(table[:, 0] + 1.0) < 1e-3, 1].sum() == 0.0


@pytest.mark.parametrize("eps", [1e-13, 1e-15])
def test_near_real_root_pair_is_no_crossing(eps):
    # np.roots gives P a complex pair about 1.6e-7 or 1.6e-8 off the real axis
    plant = gap_plant(eps)
    assert _contour(plant)[0] == []
    assert phase_crossovers(plant) == []


NUM_ON_AXIS = (0.00296, 0.0, 0.122, 0.0, -3.80, 0.0, -30.75)


def test_zero_of_num_on_the_axis_is_no_crossing():
    # num(j omega) is real and vanishes at omega = 2.6152 and 7.7320, where P
    # does too and G passes through 0: the sign of Re G there is rounding,
    # and a crossover with a gain margin near 1e18 was kept or dropped by it
    zeros = (2.6152408805837255, 7.731977047217515)
    rng = random.Random(1)
    kept = 0
    for i in range(20):
        den = tuple(np.poly([-rng.uniform(0.1, 5.0) for _ in range(7)]).tolist())
        for k in (1.0, -1.0, 3.7, -0.2):
            plant = LinearPlant(NUM_ON_AXIS, den, k)
            rows = _contour(plant)[0]
            assert all(abs(w - z) > 1e-6 * z for w, _, _ in rows for z in zeros), (den, k)
            assert all(km < 1e6 for _, km, _ in rows), (den, k)
            kept += len(rows)
            if i < 4:  # the reference drops them too
                assert len(reference_contour(plant)[0]) == len(rows), (den, k)
    assert kept >= 20


@pytest.mark.parametrize(
    "zeta, kept", [(1e-9, True), (1e-10, True), (5e-11, False), (1e-11, False), (0.0, False)]
)
def test_zero_of_num_damped_about_num_zero(zeta, kept):
    # num = s^2 + 2 zeta s + 1, whose zeros are damped by zeta: at P's root
    # next to omega = 1, |num| is about 1.41 zeta of the sum of its terms'
    # sizes, so the crossing there stays above NUM_ZERO and goes below it,
    # in the library and in the reference alike
    num, den = (1.0, 2.0 * zeta, 1.0), (1.0, 3.0, 3.0, 1.0)
    found = 0  # Re G < 0 there at one sign of k
    for k in (1.0, -1.0):
        plant = LinearPlant(num, den, k)
        got, want = (
            [w for w, _, _ in rows if abs(w - 1.0) < 1e-6]
            for rows in (_contour(plant)[0], reference_contour(plant)[0])
        )
        assert len(got) == len(want), (k, got, want)
        for w in got:
            assert abs(np.polyval(num, 1j * w)) > NUM_ZERO * np.polyval(np.abs(num), w)
        found += len(got)
    assert found == kept


W = float(GRID[2100])
SAMPLED_DOUBLE_POLE = tuple(np.polymul([1.0, 0.0, W * W], [1.0, 0.0, W * W]).tolist())


@pytest.mark.parametrize(
    "num, den, message",
    [
        # np.roots puts the double pole off the axis; den(j W) is negligible
        ((1.0,), SAMPLED_DOUBLE_POLE, rf"^pole at s = {W!r}j$"),
        ((1.0,), (1.0, 0.0, 4.0), r"^pole at s = 2j$"),
        ((1.0,), (1.0, 1e306, 1e306, 0.0), r"^the denominator overflows at s = "),
        # G overflows at the gains 1e300 and -1e300 only
        ((1e10,), plant_b(1.0).den, r"^G\(j omega\) is not finite at omega = 0.001$"),
        # np.roots overflows on den / den[0]
        ((1.0,), (1e-300, 1e300), r"^overflow encountered in divide$"),
        # G overflows near omega = 1 at the gains 1e300 and -1e300 only
        ((1e7,), (1.0, 0.02, 1.0), r"^G\(j omega\) is not finite at omega = 0\.97"),
    ],
)
def test_errors_match_the_reference(num, den, message, nl_b):
    for k in GAINS:
        assert_close_to_reference(LinearPlant(num, den, k), nl_b)
    with pytest.raises((PoleOnAxisError, RuntimeWarning), match=message):
        reference_contour(LinearPlant(num, den, 1e300))


@pytest.mark.parametrize(
    "plant, message",
    [
        # |G| = 1e307 / |1 - omega^2 + 0.02 j omega| overflows near omega = 1
        (LinearPlant((1e7,), (1.0, 0.02, 1.0), 1e300),
         r"^G\(j omega\) is not finite at omega = 0\.97"),
    ],
)
def test_errors_only_the_grid_sampled(plant, message):
    # behaviour change: G is no longer evaluated between the range's ends
    # and the crossings, none of which is near these points
    with pytest.raises(PoleOnAxisError, match=message):
        reference_contour(plant)
    assert _contour(plant)[0] == []


@pytest.mark.parametrize(
    "num, den, k, message",
    [
        ((1.0,), (1.0, 0.0, 4.0), 1.0, r"^pole at s = 2j$"),
        ((1.0,), (1.0, 1e306, 1e306, 0.0), 1.0, r"^the denominator overflows at s = 1000j$"),
        ((1e10,), plant_b(1.0).den, 1e300, r"^G\(j omega\) is not finite at omega = 0\.001$"),
        # np.roots overflows on den / den[0]; it used to raise LinAlgError
        ((1.0,), (1e-300, 1e300), 1.0, r"^the roots of the denominator are not finite$"),
        ((1.0,), (5e-324, 1.0, 1.0), 1.0, r"^the roots of the denominator are not finite$"),
        # np.roots puts the double pole 1.2e-8 W off the axis; den(j W) is
        # negligible.  _contour used to return no rows and an empty table
        ((1.0,), SAMPLED_DOUBLE_POLE, 1.0, r"^pole at s = 1\.415102j$"),
    ],
)
def test_errors(num, den, k, message, nl_b):
    plant = LinearPlant(num, den, k)
    for f in (_contour, nyquist_contour, lambda p: analyze(p, nl_b)):
        with pytest.raises(PoleOnAxisError, match=message):
            f(plant)


@pytest.mark.parametrize("damping", [2e-9, 1e-8, 5e-8, 1e-7])
def test_lightly_damped_simple_pole_is_off_the_axis(damping):
    # within 1e-7 of the axis but simple: den(j Im r) is not negligible.
    # 1 / (s (s^2 + 2 damping W s + W^2)) crosses at omega = W, where
    # G = -1 / (2 damping W^3)
    p = complex(-damping * W, W)
    plant = LinearPlant((1.0,), tuple(np.poly([0.0, p, p.conjugate()]).real.tolist()))
    [(w, km, _)] = _contour(plant)[0]
    assert w == pytest.approx(W, rel=1e-9)
    assert km == pytest.approx(2.0 * damping * W**3, rel=1e-6)


def test_subnormal_response_at_the_range_ends():
    # Im G is -5e-324 at omega_min and -2.5e-323 at omega_max: the straight
    # segments' crossing halved both ends' Im to 0 and divided 0 by 0 (a
    # RuntimeWarning, and a NaN abscissa)
    plant = LinearPlant(
        (3.202069545373259e72,),
        (1.9422518020839135e148, 3.69976601961347e-34, -1.0485800513650513e101,
         -4.268472551601897e31, -1.2946244939109703e87, -4.000229760123883e126,
         0.06992343001098883, 5.013191393774831e148),
        -1.433488335415259e-226,
    )
    g_lo = complex(plant.transfer(1j * OMEGA_RANGE[0]))
    assert g_lo.imag == -5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows, table, _ = _contour(plant)
    # the chord from conj(G(j omega_min)) to G(j omega_min) crosses at its midpoint
    assert rows == [] and [n for _, n in table] == [1.0]
    assert within_ulps(table[0][0], g_lo.real, abs(g_lo))


def test_roots_have_the_bits_of_np_roots():
    # the same companion matrix and eigenvalue call, without np.roots'
    # conversions; np.roots appends a 0 for each trailing zero coefficient
    rng = random.Random(11)
    for _ in range(300):
        coeffs = list(random_coefficients(rng)[1])
        while coeffs[-1] == 0.0:
            coeffs.pop()
        want = np.roots(coeffs)
        got = np.array(_roots(coeffs, "den"), dtype=want.dtype)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), coeffs


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_roots_that_are_not_finite(monkeypatch, bad, cold_crossing_memo):
    # a warm memo would keep both roots from the eigenvalue call
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.append(eigvals(a), bad))
    with pytest.raises(PoleOnAxisError, match=r"^the roots of the denominator are not"):
        nyquist_contour(plant_b(15.0))
    with pytest.raises(PoleOnAxisError, match=r"^the roots of the crossover polynomial are"):
        phase_crossovers(plant_b(15.0))


@pytest.mark.parametrize(
    "num, den, crossings",
    [
        # P's leading coefficient is subnormal: left out of np.roots
        ((5e-324, 0.0, 0.0, 1.0), plant_b(1.0).den, [(math.sqrt(3.0), 12.0)]),
        ((5e-324, 1.0), (1.0, 1.0, 1.0), []),
        # products of these coefficients overflow unless num and den are
        # scaled first
        ((1e290,), (1e290, 4e290, 3e290, 0.0), [(math.sqrt(3.0), 12.0)]),
        ((1e300, 1e300), (1e290, 4e290, 3e290, 0.0), []),
    ],
)
def test_coefficients_at_float_extremes(num, den, crossings):
    found = phase_crossovers(LinearPlant(num, den))
    assert len(found) == len(crossings)
    for (w, km), (w_ref, km_ref) in zip(found, crossings):
        assert w == pytest.approx(w_ref, rel=1e-12)
        assert km == pytest.approx(km_ref, rel=1e-12)


def array_g_crossings(plant, den_bits, lo, hi):
    """``linsys._crossings`` with G = k N / D, |G| and 1/|G| on NumPy arrays."""
    roots, left_signs, ws, _, hs = _gain_free(_bits(plant.num), den_bits, lo, hi)
    ws = np.array(ws)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = plant.k * np.polyval(plant.num, 1j * ws) / np.polyval(plant.den, 1j * ws)
        overflow = ~np.isfinite(g)
        if overflow.any():
            raise PoleOnAxisError(f"G(j omega) is not finite at omega = {ws[overflow][0]}")
        size = np.abs(g)
        margins = (1.0 / size).tolist()
    sign = math.copysign(1.0, plant.k)
    crossing = [re < 0 for re in g.real.tolist()[1:-1]]
    rows = [[w, km, sign * s] for w, km, s, c in
            zip(roots, margins[1:-1], left_signs, crossing) if c]
    for w, km, _ in rows:
        if not 0.0 < km < math.inf:
            raise PoleOnAxisError(f"the gain margin 1/|G| is {km} at omega = {w}")
    hs = [h for h, c in zip(hs, crossing) if c]
    return rows, hs, complex(g[0]), float(size[0]), complex(g[-1])


def public_outcome(plant):
    """``nyquist_contour`` as a list of rows and ``phase_crossovers``, or
    the error."""
    try:
        return nyquist_contour(plant).tolist(), phase_crossovers(plant)
    except PoleOnAxisError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_g_in_python_floats_matches_array_g(seed, monkeypatch):
    # G = k (N / D) rounds otherwise than (k N) / D, and hypot otherwise than
    # np.abs: the margins or abscissae move by a few ulps on about half the
    # plants
    rng = random.Random(seed)
    seen = {q: 0 for q in range(3)}
    moved = 0
    for _ in range(200):
        num, den = random_coefficients(rng)
        q = rng.randint(0, 2)
        den = den[:len(den) - next(i for i, c in enumerate(reversed(den)) if c != 0.0)]
        if q and num[-1] == 0.0:
            num = num[:-1] + (1.0,)
        k = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0)
        try:
            plant = LinearPlant(num, den + (0.0,) * q, k)
        except ValueError:  # improper once den's trailing zeros are replaced
            continue
        got = public_outcome(plant)
        ends = []

        def crossings(*args):
            found = array_g_crossings(*args)
            ends[:] = found[2:]
            return found

        with monkeypatch.context() as mp:
            mp.setattr(linsys, "_crossings", crossings)
            want = public_outcome(plant)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, plant
            continue
        (table, found), (table_ref, found_ref) = got, want
        assert [w for w, _ in found] == [w for w, _ in found_ref], plant
        assert all(within_ulps(km, ref) for (_, km), (_, ref) in zip(found, found_ref)), plant
        assert [n for _, n in table] == [n for _, n in table_ref], plant
        # the segment's and the chord's abscissae are Re G at a range's end
        g_lo, size_lo, g_hi = ends
        scales = {g_hi.real: abs(g_hi), (20.0 / 11.0 if q else 1.0) * g_lo.real: size_lo}
        assert all(within_ulps(a, ref, scales.get(ref, ref))
                   for (a, _), (ref, _) in zip(table, table_ref)), plant
        moved += got != want
        seen[q] += 1
    assert min(seen.values()) >= 30, seen
    assert moved >= 60, moved  # the bound is exercised
