"""Set-up probe for `setup_s`: a fresh interpreter imports orbitlab, prepares
the inputs of one workload, and prints CLOCK_MONOTONIC at that moment.

    python3 perfbench/setup_probe.py <workload> <input dir>
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import orbitlab.cli  # noqa: E402,F401  (the import a CLI user pays)
import workloads  # noqa: E402

workloads.prepare(sys.argv[1], Path(sys.argv[2]))
print(time.monotonic())
