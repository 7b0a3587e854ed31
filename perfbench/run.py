"""Benchmark of the dfcycle library: one workload, one seed, one run.

    python3 perfbench/run.py --workload gain_sweep --seed 1 --seconds 25 --trace 0

Load model: one process, one client, closed loop (the next op starts when
the previous one returns), BLAS pinned to one thread.  Ops come from the
seeded generators in ``inputs.py`` in rounds of fixed composition.  A run
makes a fixed number of rounds, ``--seconds`` over the round's nominal time
(``ROUND_SECONDS``), so that it lasts about ``--seconds`` and one seed always
attempts the same ops; every op's output is checked.

``--trace 0`` prints the end-to-end metrics.  Times are calibrated: each
op's wall time is scaled by ``calibrate.scale()``, measured right before
and right after the op, to the time it takes at the reference machine
speed, because the machine's speed drifts by up to 1.9x over tens of
seconds (see ``calibrate.py``).  The raw wall-clock figures are printed
alongside.
``--trace 1`` runs half as many rounds, each op twice, traced and untraced
(the two results must be equal), writes the spans to ``.bench_out/`` and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``failed`` counts the ops that raised or returned a wrong result; the
printed ``error_rate`` is ``failed / attempted``.  ``correct`` is false when
an op returned a result that fails its check, a traced result differs from
the untraced one, or the checks' self-test lets a wrong result through.  An
op the library refuses with an exception returned nothing wrong, so it
counts in ``failed`` only.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402
import calibrate  # noqa: E402

WORKLOAD_NAMES = ("gain_sweep", "verify", "df_curves")
# Nominal seconds per round at the reference speed, calibration included.
ROUND_SECONDS = {"gain_sweep": 2.25, "verify": 6.5, "df_curves": 0.2}
SETUP_PROBES = 4  # extra set-ups in fresh processes; the run's own makes five
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, calibration scale) measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(bootstrap.BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, scale = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(scale)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def run_ops(wl, rounds, n_rounds, failures, *, tracer=None):
    """Run ``n_rounds`` rounds of ops.

    Returns the wall-clock latency of every op and, untraced, its
    calibration scale: the geometric mean of the scales measured right before
    and right after it (traced: empty).  An op that raises is appended to
    ``failures["raised"]``; one whose result fails its check, or whose traced
    and untraced results differ, to ``failures["wrong"]``.
    """
    latencies, scales = [], []
    before = calibrate.scale() if tracer is None else None
    for _ in range(n_rounds):
        for op in next(rounds):
            t = perf_counter()
            try:
                if tracer is None:
                    result = wl.run(op)
                    latency = perf_counter() - t
                else:
                    result, latency, same = run_traced(wl, op, tracer)
            except Exception as exc:  # the library refused the input
                latency = perf_counter() - t
                result = None
                failures["raised"].append((op, [f"{type(exc).__name__}: {exc}"]))
            latencies.append(latency)
            if tracer is None:
                after = calibrate.scale(latency)
                scales.append(math.sqrt(before * after))
                before = after
            if result is None:
                continue
            try:
                problems = wl.check(op, result)
            except Exception as exc:  # output too malformed to check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if tracer is not None and not same:
                problems.append("traced result differs from the untraced op's")
            if problems:
                failures["wrong"].append((op, problems))
    return latencies, scales


def run_traced(wl, op, tracer):
    """One traced op: (result, seconds in its ``op`` span, equal to untraced?).

    The op also runs untraced, before the traced run on odd ops and after it
    on even ones, so that neither side always finds warm caches; its time is
    kept in the ``op`` span's counts as ``untraced_s``.  Then the
    nonlinearity's ``evaluate`` is timed at the op's sample points in a span
    of its own.
    """
    tracer.op += 1

    def untraced():
        t = perf_counter()
        return wl.run(op), perf_counter() - t

    if tracer.op % 2:
        plain, plain_s = untraced()
    root = len(tracer.spans)
    with tracer.span("op") as counts:
        result, points = wl.traced(op, tracer)
    if not tracer.op % 2:
        plain, plain_s = untraced()
    counts["untraced_s"] = plain_s
    evaluate = op.nl.evaluate
    with tracer.span("piecewise.evaluate", calls=len(points)):
        for v in points:
            evaluate(v)
    return result, tracer.spans[root].duration, wl.same(result, plain)


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    With fewer than 40 samples that percentile would fall below the upper
    quartile, so the maximum (p100) is reported instead.  At 25 s a run of
    ``verify`` makes 12 ops and reports its maximum; ``gain_sweep`` (66 ops)
    and ``df_curves`` (750) report a percentile.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 4 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(latencies, scales, setups):
    """Calibrated end-to-end metrics, and notes with the raw wall-clock figures.

    ``setups`` holds (seconds, scale) pairs; ``setup_s`` is their median
    calibrated time.
    """
    timed = [lat * f for lat, f in zip(latencies, scales)]
    value, pct = tail(timed)
    raw_tail, _ = tail(latencies)
    setup = [s * f for s, f in setups]
    metrics = {
        "ops_per_s": (len(timed) / sum(timed), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(timed), "ms"),
        "latency_tail_ms": (1e3 * value, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "ops_per_s": f"raw {len(latencies) / sum(latencies):.4g} 1/s, "
                     f"median scale {statistics.median(scales):.3f}",
        "latency_p50_ms": f"raw {1e3 * statistics.median(latencies):.4g} ms",
        "latency_tail_ms": f"p{pct:.1f} of {len(timed)} samples; raw {1e3 * raw_tail:.4g} ms",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup)
                   + f"; raw median {statistics.median(s for s, _ in setups):.4g} s",
    }
    return metrics, notes


def per_layer(tracer, traced_latencies):
    spans = tracer.spans
    self_t = tracer.self_times()
    n_ops = len(traced_latencies)
    op_time = sum(traced_latencies)

    def calls(name):
        return [s for s in spans if s.name == name]

    def mean_ms(name):
        d = [s.duration for s in calls(name)]
        return 1e3 * sum(d) / len(d) if d else 0.0

    def total(name, key=None):
        ss = calls(name)
        return sum(s.counts.get(key, 0) for s in ss) if key else sum(s.duration for s in ss)

    def share(layer):
        return sum(t for s, t in zip(spans, self_t)
                   if s.layer == layer and s.name != "piecewise.evaluate") / op_time

    def per_point(name):
        pts = total(name, "points")
        return 1e9 * total(name) / pts if pts else 0.0

    steps = total("sim.simulate", "steps")
    sim_t = total("sim.simulate")
    evals = total("piecewise.evaluate", "calls")
    paired = [s for s in calls("op") if "untraced_s" in s.counts]
    traced_t = sum(s.duration for s in paired)
    untraced_t = sum(s.counts["untraced_s"] for s in paired)
    m = {
        "linsys.phase_crossovers_ms": (mean_ms("linsys.phase_crossovers"), "ms"),
        "linsys.nyquist_contour_ms": (mean_ms("linsys.nyquist_contour"), "ms"),
        "linsys.crossovers": (total("linsys.phase_crossovers", "crossovers") / n_ops, "count/op"),
        "linsys.share": (share("linsys"), "fraction"),
        "cycles.find_intersections_ms": (mean_ms("cycles.find_intersections"), "ms"),
        "cycles.classify_ms": (mean_ms("cycles.classify"), "ms"),
        "cycles.ellipse_estimate_us": (1e3 * mean_ms("cycles.ellipse_estimate"), "us"),
        "cycles.cycles": (total("cycles.find_intersections", "cycles") / n_ops, "count/op"),
        "cycles.share": (share("cycles"), "fraction"),
        "sim.simulate_ms": (mean_ms("sim.simulate"), "ms"),
        "sim.rk4_steps_per_s": (steps / sim_t if sim_t else 0.0, "1/s"),
        "sim.steps": (steps / n_ops, "count/op"),
        "sim.sustained": (total("sim.simulate", "sustained_oscillation") / n_ops, "count/op"),
        "sim.converged": (total("sim.simulate", "converged_to_origin") / n_ops, "count/op"),
        "sim.diverged": (total("sim.simulate", "diverged") / n_ops, "count/op"),
        "sim.share": (share("sim"), "fraction"),
        "piecewise.evaluate_ns": (1e9 * total("piecewise.evaluate") / evals if evals else 0.0,
                                  "ns"),
        "descfun.df_oracle_ms": (mean_ms("descfun.df_oracle"), "ms"),
        "descfun.df_exact_ns_per_point": (per_point("descfun.df_exact"), "ns"),
        "descfun.share": (share("descfun"), "fraction"),
        "qualdf.df_qualitative_ns_per_point": (per_point("qualdf.df_qualitative"), "ns"),
        "qualdf.share": (share("qualdf"), "fraction"),
        "svg.line_plot_ms": (mean_ms("svg.line_plot"), "ms"),
        "svg.bytes": (total("svg.line_plot", "bytes") / max(len(calls("svg.line_plot")), 1),
                      "bytes"),
        "trace.overhead": (1.0 - untraced_t / traced_t, "fraction"),
    }
    notes = {"trace.overhead": f"{len(paired)} ops: untraced {untraced_t:.4g} s, "
                               f"traced {traced_t:.4g} s"}
    return m, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.require_source()
    import checks
    import spans
    import workloads

    wl, rounds, warm_op, warm_result = workloads.set_up(args.workload, args.seed)
    setup = perf_counter() - T0
    setups = [(setup, calibrate.scale(setup))]
    problems = wl.check(warm_op, warm_result)
    missed = checks.selftest(args.workload, warm_op, warm_result)
    if problems:
        print(f"warm-up op failed its check: {problems}", file=sys.stderr)
    if missed:
        print(f"check self-test: not flagged: {missed}", file=sys.stderr)

    failures: dict = {"raised": [], "wrong": []}
    if args.trace:
        tracer = spans.Tracer()
        n_rounds = rounds_for(args.workload, args.seconds / 2.0)
        traced, _ = run_ops(wl, rounds, n_rounds, failures, tracer=tracer)
        path = bootstrap.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        metrics, notes = per_layer(tracer, traced)
        attempted = len(traced)
    else:
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        n_rounds = rounds_for(args.workload, args.seconds)
        latencies, scales = run_ops(wl, rounds, n_rounds, failures)
        metrics, notes = end_to_end(latencies, scales, setups)
        attempted = len(latencies)

    for kind, entries in failures.items():
        for op, why in entries:
            print(f"failed op ({kind}) {op!r}: {why}", file=sys.stderr)
    failed = len(failures["raised"]) + len(failures["wrong"])
    print(f"{args.workload} seed {args.seed}: {attempted} ops, error_rate "
          f"{failed / attempted:.4g} ({len(failures['raised'])} raised, "
          f"{len(failures['wrong'])} wrong, of {attempted})")
    print(f"check self-test: {'passed' if not missed else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:.6g} {unit}{extra}")
    if args.trace:
        print(f"  spans written to {path.relative_to(bootstrap.ROOT)}")
    result = {
        "correct": not (failures["wrong"] or problems or missed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
