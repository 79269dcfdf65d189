"""The host's speed, measured with a fixed piece of pure-Python work.

On a shared virtual machine the speed of a CPU moves by up to 1.6 times
within one run, between runs and over an hour, for every workload at once,
while the host takes no time away (steal stays near zero). No statistic over
one run removes a slowdown that lasts tens of seconds. So the benchmark
times a fixed reference computation between operations and scales each
operation's time by the reference's time around it:

    scaled = measured * REFERENCE_SECONDS / (reference time around the call)

A scaled time is the time the call would have taken on this host while the
reference took REFERENCE_SECONDS, about its time at full speed here. The
reference is the benchmark's own code and calls nothing of the program, so
a change to the program moves the scaled times as it moves the measured
ones. It is interpreter work of the kind the program's layers do (dict, set
and list traffic, a graph search), and the collector is off while it runs,
so the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# The reference's time at full speed on the 2-vCPU host the README's figures
# come from (its fastest 5-s medians were 3.7-4.2 ms). Only a scale.
REFERENCE_SECONDS = 0.004
# An operation that starts this long after the last reference gets a fresh
# one first; an operation that takes longer than this gets one right after.
EVERY_SECONDS = 0.1

_ADJ = {v: [(v + d) % 400 for d in (1, 7, 20)] for v in range(400)}


def reference() -> int:
    """Fixed work: six depth-first searches of a 400-vertex graph and 20,000
    dict updates. Returns a checksum so that nothing is skipped."""
    total = 0
    for root in range(6):
        seen = set()
        stack = [root]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            total += v
            stack.extend(_ADJ[v])
    counts: dict = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return total + len(counts)


class Speed:
    """Reference times, in the order they were taken between operations."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def measure(self) -> int:
        """Time the reference once; returns the index of the sample."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(t1 - t0)
        self._last = t1
        return len(self.samples) - 1

    def before(self) -> int:
        """Index of the reference sample an operation starting now follows,
        measuring a fresh one if the last is older than EVERY_SECONDS."""
        if perf_counter() - self._last > EVERY_SECONDS:
            return self.measure()
        return len(self.samples) - 1

    def after(self, seconds: float) -> None:
        """Called when an operation of ``seconds`` has ended: a long one is
        bracketed by a fresh sample at once, short ones by the next."""
        if seconds > EVERY_SECONDS:
            self.measure()

    def factor(self, index: int) -> float:
        """Scale for an operation that ran after sample ``index`` and
        before the next one: from the median of the two samples on either
        side of it, so that one reference hit by an interrupt moves no
        figure."""
        return REFERENCE_SECONDS / statistics.median(self.samples[max(0, index - 1):index + 3])

    def timed(self, call) -> float:
        """Scaled time of one call, bracketed by fresh samples."""
        index = self.measure()
        t0 = perf_counter()
        call()
        seconds = perf_counter() - t0
        self.measure()
        return seconds * self.factor(index)

    def summary(self) -> dict:
        s = self.samples
        return {"samples": len(s), "median_ms": statistics.median(s) * 1e3,
                "min_ms": min(s) * 1e3, "max_ms": max(s) * 1e3} if s else {"samples": 0}
