"""Timings scaled to a fixed host speed by interleaved calibration probes.

On a shared host the CPU runs at full speed for a while and then, for
spans from a fraction of a second to minutes, at as little as half of it,
as other tenants load the same cores. A timing alone cannot tell a slower
program from a slower host. So the benchmark runs a short probe, which is
its own code and never changes, right before and right after each timed
operation, and scales the operation's wall time by
``reference / probe time``: the time the operation would take on the host
at the speed where the probe takes its reference time.

A probe has to slow down about as much as the operations it calibrates.
In-process operations use ``loop_probe``, a loop that mixes what the
package spends its time on (object creation, attribute access, dict updates
keyed by tuples, float arithmetic, calls and a sort); garbage collection is
off while it runs, so that the heap the package leaves behind does not
change its cost. Child processes spend much of their time in process
start-up, which slowed down less than the loop, so they use
``start_up_probe``, a bare interpreter start-up.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
from time import perf_counter
from typing import Callable

# The probes' times at full speed on a 2-vCPU Xeon virtual machine under
# Python 3.11. Reported times are scaled to them.
LOOP_REFERENCE_S = 4.0e-4
START_UP_REFERENCE_S = 0.042
LOOP_RUNS = 3
LOOP_ITERATIONS = 700


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _weigh(a: float, b: int) -> float:
    return a * 0.5 + b


def calibration_loop() -> float:
    totals: dict = {}
    acc = 0.0
    for i in range(LOOP_ITERATIONS):
        p = _Point(i, float(i))
        key = (i % 37, i % 11)
        totals[key] = totals.get(key, 0.0) + _weigh(p.y, p.x)
        acc += math.sqrt(p.y + 1.0)
    return acc + sum(sorted(totals.values()))


def loop_probe() -> float:
    """Seconds of one calibration loop now: the fastest of LOOP_RUNS."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(LOOP_RUNS):
            start = perf_counter()
            calibration_loop()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def start_up_probe(env: dict) -> float:
    """Seconds of one bare interpreter start-up, ``python -c pass``, now."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


class Clock:
    """Scales wall times by the probes run around them.

    Construct it right before the first timed operation; then call
    ``calibrated`` right after each one. The probe run after an operation
    also serves as the probe before the next, so back-to-back operations
    cost one probe each.
    """

    def __init__(self, probe: Callable[[], float] = loop_probe,
                 reference_s: float = LOOP_REFERENCE_S):
        self.probe = probe
        self.reference_s = reference_s
        self.before = probe()

    def calibrated(self, wall_s: float) -> float:
        after = self.probe()
        scaled = wall_s * self.reference_s * 2 / (self.before + after)
        self.before = after
        return scaled
