"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing numpy and sdheat and constructing the workload's
grids, coefficients, fields and solvers, everything before the first
timed solve.  An import can be timed only once per process, so
``run.py`` times its own set-up and starts this script for more samples.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).prepare()
print(time.perf_counter() - START)
