"""Acceptance gate: end-to-end behavioral criteria with timing bounds.

Each test prints one PASS/FAIL line so the gate can be read from the log.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from dfcycle import (
    LinearPlant,
    PiecewiseNonlinearity,
    df_exact,
    df_value,
)
from dfcycle import sim
from dfcycle.cycles import analyze, find_intersections
from dfcycle.descfun import df_oracle
from dfcycle.linsys import phase_crossovers
from dfcycle.qualdf import df_qualitative

from conftest import plant_a, plant_b, random_nonlinearity

NL_A = PiecewiseNonlinearity(x=(2, 7, 20, 20, 25), y=(0, 4.5, 7.21, 4.21, 5.25))
NL_B = PiecewiseNonlinearity(x=(3, 6, 10, 19), y=(3, 3, 10, 10))


def report(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    rng = random.Random(20260826)
    start = time.monotonic()
    worst = 0.0
    for _ in range(20):
        nl = random_nonlinearity(rng, max_breakpoints=6, max_jumps=2)
        top = max(nl.max_breakpoint, 1.0)
        grid = np.linspace(0.05, 3.0 * top, 64) + 1e-4  # offset avoids breakpoints
        curve = df_exact(nl, grid)
        for x, f in zip(curve.X, curve.F):
            o = df_oracle(nl, float(x))
            worst = max(worst, abs(f - o) / max(abs(f), abs(o), 1e-12))
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 5.0,
        f"exact vs quadrature oracle, 20 random shapes x 64 amplitudes: "
        f"max rel err {worst:.2e} (limit 1e-06), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_relay_extremum():
    X1, Y1 = 2.0, 1.5
    relay = PiecewiseNonlinearity(x=(X1, X1), y=(0.0, Y1), final_slope=0.0)

    def f(X):  # on X >= X1, bit for bit Y1 * psi(X1, X)
        return df_value(relay, X)

    # golden-section maximization on [X1, 4 X1]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = X1 + 1e-12, 4.0 * X1
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(200):
        if f(c) > f(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    x_star = 0.5 * (a + b)
    loc_err = abs(x_star - math.sqrt(2.0) * X1) / (math.sqrt(2.0) * X1)
    peak = 2.0 * Y1 / (math.pi * X1)
    val_err = abs(f(x_star) - peak) / peak
    report(
        2,
        loc_err <= 1e-8 and val_err <= 1e-8,
        f"impulsive-term peak at sqrt(2)*X1: location rel err {loc_err:.2e}, "
        f"value rel err {val_err:.2e} (limit 1e-08)",
    )


def test_criterion_3_case_study_crossovers():
    start = time.monotonic()
    ok = True
    details = []
    for k in (1.0, 2.5, 6.0):
        (w, km), = phase_crossovers(plant_a(k))
        ok &= abs(w - math.sqrt(2.0)) <= 1e-6 and abs(km - 1.0 / k) <= 1e-6
        details.append(f"{km:.4f}")
    ok &= abs(1.0 / 6.0 - 0.166) <= 1e-3  # published rounded margin
    for k in (5.0, 15.0, 30.0):
        (w, km), = phase_crossovers(plant_b(k))
        ok &= abs(w - math.sqrt(3.0)) <= 1e-6 and abs(km - 12.0 / k) <= 1e-6
        details.append(f"{km:.4f}")
    elapsed = time.monotonic() - start
    report(
        3,
        ok and elapsed < 1.0,
        f"crossovers at sqrt(2) and sqrt(3), margins {details}, "
        f"{elapsed:.3f}s (limit 1s)",
    )


def test_criterion_4_intersection_counts():
    counts_a = [len(find_intersections(NL_A, km)) for km in (1.0, 0.4, 0.166)]
    counts_b = [len(find_intersections(NL_B, km)) for km in (2.4, 0.8, 0.4)]
    # independent dense-grid verification of the counts
    dense = np.linspace(1e-3, 200.0, 400_001)
    for nl, kms, counts in ((NL_A, (1.0, 0.4, 0.166), counts_a),
                            (NL_B, (2.4, 0.8, 0.4), counts_b)):
        F = df_exact(nl, dense).F
        for km, expected in zip(kms, counts):
            scanned = int(np.sum(np.diff(np.sign(F - km)) != 0))
            assert scanned == expected, (km, scanned, expected)
    report(
        4,
        counts_a == [0, 2, 1] and counts_b == [0, 3, 1],
        f"intersection counts {counts_a} and {counts_b} "
        "(expected [0, 2, 1] and [0, 3, 1], confirmed by dense scan)",
    )


def test_criterion_5_stability_labels():
    labels = {}
    labels["a_0.4"] = [c.stability for c in analyze(plant_a(2.5), NL_A)[0].cycles]
    labels["a_0.166"] = [c.stability for c in analyze(plant_a(6.0), NL_A)[0].cycles]
    labels["b_0.4"] = [c.stability for c in analyze(plant_b(30.0), NL_B)[0].cycles]
    labels["b_0.8"] = [c.stability for c in analyze(plant_b(15.0), NL_B)[0].cycles]
    ok = (
        labels["a_0.4"] == ["unstable", "stable"]
        and labels["a_0.166"] == ["unstable"]
        and labels["b_0.4"] == ["stable"]
        and labels["b_0.8"][-1] == "stable"
    )
    report(5, ok, f"stability labels {labels}")


def test_criterion_6_simulation_cross_validation():
    start = time.monotonic()
    p = plant_b(30.0)
    (co,) = analyze(p, NL_B)
    (cyc,) = co.cycles
    T, dt = sim.default_horizon(cyc.omega)
    ok = True
    details = []
    for scale in (0.5, 1.5):
        res = sim.simulate(p, NL_B, scale * np.asarray(cyc.ellipse_x0), T, dt)
        ok &= res.verdict == sim.SUSTAINED
        if res.verdict == sim.SUSTAINED:
            freq_err = abs(res.frequency - math.sqrt(3.0)) / math.sqrt(3.0)
            amp_err = abs(res.amplitude - cyc.X) / cyc.X
            ok &= freq_err <= 0.05 and amp_err <= 0.15
            details.append(
                f"scale {scale}: freq err {freq_err:.3f}, amp err {amp_err:.3f}"
            )
        else:
            details.append(f"scale {scale}: verdict {res.verdict}")
    elapsed = time.monotonic() - start
    report(
        6,
        ok and elapsed < 10.0,
        f"sustained oscillation from both seeds ({'; '.join(details)}), "
        f"{elapsed:.1f}s (limit 10s)",
    )


def test_criterion_7_simulation_dichotomy():
    p = plant_a(6.0)
    (co,) = analyze(p, NL_A)
    (cyc,) = co.cycles
    T, dt = sim.default_horizon(cyc.omega)
    basis = np.asarray(cyc.ellipse_x0)
    inner = sim.simulate(p, NL_A, 0.3 * basis, T, dt)
    outer = sim.simulate(p, NL_A, 2.0 * basis, T, dt)
    report(
        7,
        inner.verdict == sim.CONVERGED and outer.verdict == sim.DIVERGED,
        f"inside the unstable cycle: {inner.verdict}; outside: {outer.verdict}",
    )


def test_criterion_8_qualitative_fidelity():
    ok = True
    details = []
    for nl, kms, expected in ((NL_A, (1.0, 0.4, 0.166), [0, 2, 1]),
                              (NL_B, (2.4, 0.8, 0.4), [0, 3, 1])):
        # exact match on the initial plateau
        plateau = np.linspace(1e-3, 0.999 * nl.breakpoints[0], 8)
        q0 = df_qualitative(nl, plateau).F
        e0 = df_exact(nl, plateau).F
        ok &= bool(np.all(q0 == e0))
        # agreement in the far tail, measured against the curve's own scale
        # (a vanishing final slope sends both values to zero, so a pointwise
        # relative error there would be ill-posed)
        X_tail = 100.0 * nl.max_breakpoint
        q_t = df_qualitative(nl, np.array([X_tail])).F[0]
        e_t = df_exact(nl, np.array([X_tail])).F[0]
        scan = df_exact(nl, np.linspace(1e-3, 3.0 * nl.max_breakpoint, 512)).F
        tail_err = abs(q_t - e_t) / np.max(np.abs(scan))
        ok &= tail_err <= 0.02
        # per-segment rise/fall pattern: net change over each segment interior
        # (pointwise slopes disagree right after a join, where the exact
        # curve's extremum trails the breakpoint by design)
        bps = [b for b in nl.breakpoints if b > 0]
        edges = bps + [2.0 * nl.max_breakpoint]
        for lo, hi in zip(edges, edges[1:]):
            span = np.array([lo * 1.02, hi * 0.98])
            dq = np.diff(df_qualitative(nl, span).F)[0]
            de = np.diff(df_exact(nl, span).F)[0]
            if abs(de) > 1e-9:
                ok &= np.sign(dq) == np.sign(de)
        # qualitative curve reproduces the intersection counts: the sign
        # changes of F~ - K between samples plus its exact zeros, where two
        # consecutive zeros (a plateau at K) fail the criterion
        grid = np.linspace(1e-3, 150.0, 60_000)
        qF = df_qualitative(nl, grid).F
        counts = []
        for km in kms:
            s = np.sign(qF - km)
            ok &= not np.any((s[:-1] == 0) & (s[1:] == 0))
            counts.append(int(np.sum(s[:-1] * s[1:] < 0) + np.sum(s == 0)))
        ok &= counts == expected
        details.append(f"tail err {tail_err:.4f}, counts {counts}")
    report(8, ok, f"qualitative curve fidelity ({'; '.join(details)})")


def test_criterion_9_rk4_order():
    p = LinearPlant(num=(1.0,), den=(1.0, 3.0, 2.0))
    gain = PiecewiseNonlinearity(x=(0.0,), y=(0.0,), final_slope=0.7)
    A, B, C = sim.loop_matrices(p)
    M = A + 0.7 * np.outer(B, C)  # C from loop_matrices is already negated
    x0 = np.array([1.0, -0.5])
    T = 2.0
    vals, vecs = np.linalg.eig(M)
    exact = (vecs @ np.diag(np.exp(vals * T)) @ np.linalg.inv(vecs) @ x0).real
    errs = []
    for n in (100, 200, 400, 800):
        res = sim.simulate(p, gain, x0, T, T / n)
        errs.append(np.max(np.abs(res.states[-1] - exact)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    report(
        9,
        min(orders) >= 3.5,
        f"observed convergence orders {[f'{o:.2f}' for o in orders]} (limit 3.5)",
    )
