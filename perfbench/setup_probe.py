"""Print the set-up seconds of one workload, measured in this fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is import, input generation and one warm-up op, as in ``run.py``.
Prints the wall-clock seconds and the calibration scale measured right after.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    bootstrap.require_source()
    import workloads

    workloads.set_up(workload, seed)
    seconds = perf_counter() - T0
    import calibrate

    print(seconds, calibrate.scale(seconds))
