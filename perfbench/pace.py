"""Interpreter pace, sampled while the benchmark runs.

A shared VM's speed can drift by tens of percent over seconds (other guests
share the hardware).  Every PERIOD_S of wall time, SIGALRM runs a fixed pure-Python
loop with the garbage collector off and records how long it took.  The mean
loop time seen during an operation measures how fast the host was running
then, independently of orbitlab's own code and heap.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PERIOD_S = 0.05
SPIN_ITERATIONS = 20_000


def _spin(n: int = SPIN_ITERATIONS) -> int:
    x = 0
    for i in range(n):
        x += i
    return x


class PaceProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []
        self.busy_s = 0.0           # wall time spent inside the handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _spin()
        finally:
            if enabled:
                gc.enable()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.loops.append(t1 - t0)
        self.busy_s += time.perf_counter() - t0

    def __enter__(self):
        self._tick(None, None)      # so every operation has a sample to use
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_loop(self, t0: float, t1: float) -> float:
        """Mean loop time of the samples taken in [t0, t1]; when none fell
        inside, the first sample after it, else the last one before it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi > lo:
            window = self.loops[lo:hi]
            return sum(window) / len(window)
        return self.loops[min(lo, len(self.loops) - 1)]
