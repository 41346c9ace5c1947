"""Print the seconds a fresh interpreter takes to import ``stieltjes`` and
build one workload's inputs, then the host-speed factor measured right after
(see ``hostspeed.py``): ``python3 perfbench/setup_time.py suite``."""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1])
ELAPSED = time.perf_counter() - START

import hostspeed  # noqa: E402

print(ELAPSED, hostspeed.factor([hostspeed.reference_loop() for _ in range(15)]))
