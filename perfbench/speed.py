"""Machine-speed calibration for the timed runs.

The benchmark shares a virtual machine whose CPUs slow down and speed up
by 20-30% over tens of seconds, as other tenants load the host.  So a run
pins itself and its children to one CPU, times a fixed reference child on
that CPU between operations, and scales its timings to a machine on which
the reference takes ``REFERENCE_S``.  The reference is a fresh interpreter
doing exact ``Fraction`` arithmetic, the same mix of process start and
rational arithmetic as the program's work, so it slows down with it; it
runs none of the program's code, so every change to the program shows in
full.  The raw timings are printed beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

REFERENCE_CODE = (
    "from fractions import Fraction\n"
    "v = tuple(Fraction(i, 3) for i in range(7))\n"
    "d = {}\n"
    "for i in range(600):\n"
    "    w = tuple(a + b for a, b in zip(v, v))\n"
    "    d[i, tuple(a * Fraction(1, 2) for a in w)] = i\n"
)
# Median reference time on the machine the benchmark was written on (2 vCPUs).
REFERENCE_S = 0.14
# While a workload runs, the reference is timed at most once a second.
WORKLOAD_INTERVAL_S = 1.0


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Calibration:
    """Times the reference child at most once per ``interval_s`` of the caller's work."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.times: list[float] = []
        self.last = -float("inf")

    def tick(self) -> None:
        if time.perf_counter() - self.last < self.interval_s:
            return
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_CODE], check=True)
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def slowdown(self) -> float:
        """How much slower than the reference machine the CPU was."""
        return statistics.median(self.times) / REFERENCE_S
