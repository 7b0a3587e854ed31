"""Run every workload over several seeds and record the figures.

    python3 perfbench/baseline.py

Runs ``run.py`` once per seed and workload, one run at a time: untraced on
seeds 1-10 for the end-to-end metrics, traced on seeds 1-3 for the per-layer
ones, and, once every workload has had those, a second untraced set on seeds
1-10.  Writes the median, quartiles and spread (interquartile range over
median) of every metric, the second set's median change from the first, and
the machine it ran on, to ``perfbench/baseline.json``.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

import bootstrap
from run import WORKLOAD_NAMES

SEEDS = 10
TRACE_SEEDS = 3


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(bootstrap.BLAS_THREADS),
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(bootstrap.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def run_set(workload: str, seconds: int, trace: int, n: int) -> tuple[dict, list]:
    """Summary and per-run outcome of ``n`` runs on seeds 1..n."""
    results = [run(workload, seed, seconds, trace) for seed in range(1, n + 1)]
    runs = [{"seed": s, "correct": r["correct"], "attempted": r["attempted"],
             "failed": r["failed"]}
            for s, r in zip(range(1, n + 1), results)]
    return summarize(results), runs


def main() -> int:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    record = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    order = []
    for w in WORKLOAD_NAMES:
        order += [(w, 0, SEEDS, "end_to_end"), (w, 1, TRACE_SEEDS, "per_layer")]
    order += [(w, 0, SEEDS, "end_to_end_repeat") for w in WORKLOAD_NAMES]
    for w, trace, n, key in order:
        entry = record["workloads"].setdefault(w, {})
        entry[key], entry[f"{key}_runs"] = run_set(w, seconds, trace, n)
        print(w, key, {k: round(v["median"], 4) for k, v in entry[key].items()}, flush=True)
    for entry in record["workloads"].values():
        entry["repeat_median_change"] = {
            k: v["median"] / entry["end_to_end"][k]["median"] - 1.0
            for k, v in entry["end_to_end_repeat"].items()
        }
    with open(bootstrap.BENCH_DIR / "baseline.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
