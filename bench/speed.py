"""Timings normalised to a fixed machine speed.

On a shared machine the speed of the same single-threaded work changes by
up to a half from one second to the next: one fixed scan window took 86 to
132 ms within half a minute on a 2-vCPU VM. Averaged over a run, that alone
moves its figures by a quarter between runs.

So a fixed pure-Python reference loop, doing the same kind of work as
quadtower (small tuples, dict look-ups, gcd), is timed between calls. Each
timing is divided by the reference time measured around it and multiplied
by REF_NOMINAL_S: the result is the timing on a machine where the loop takes
REF_NOMINAL_S. The loop is benchmark code and runs with the garbage
collector off, so a change to quadtower moves a normalised timing as much as
it moves the raw one.
"""

from __future__ import annotations

import gc
import math
import time

REF_NOMINAL_S = 0.4e-3
# Between calls the loop is timed again once the last sample is this old.
REF_EVERY_S = 0.1
# A sample is the fastest of this many runs of the loop, so that an
# interrupt during one run does not count.
REF_RUNS = 3


def reference_loop() -> int:
    table: dict[tuple[int, int, int], int] = {}
    a, b, c = 1, 1, 5
    for i in range(1000):
        a, b, c = c, (b + 2 * c) % 97, (a + b + c + i) % 101 + 1
        key = (a, b, c)
        table[key] = table.get(key, 0) + math.gcd(3 * a + 1, c)
    return len(table)


def reference_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REF_RUNS):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Samples of the reference loop's time, taken between timed calls."""

    def __init__(self):
        self.samples: list[float] = []
        self._taken = -math.inf

    def mark(self, every: float = REF_EVERY_S) -> int:
        """Time the loop unless it was timed within `every` seconds; return
        the index of the latest sample."""
        if time.perf_counter() - self._taken >= every:
            self.samples.append(reference_seconds())
            self._taken = time.perf_counter()
        return len(self.samples) - 1

    def normalise(self, seconds: float, k: int) -> float:
        """`seconds` of work that started after sample k and ended before
        sample k + 1 (when there is one), at REF_NOMINAL_S per loop."""
        around = self.samples[k:k + 2]
        return seconds * REF_NOMINAL_S * len(around) / sum(around)
