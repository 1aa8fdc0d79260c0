"""The machine's speed, sampled between ops, to express times in reference seconds.

The small shared VMs this benchmark runs on switch between faster and slower
phases (other tenants on the same cores) that last from seconds to minutes.
A whole 35 s run can fall into a slow phase and read 30 % slower with no
change to the program.  So the benchmark times a fixed piece of pure-Python
work, the reference call, between ops, and scales each measured time by

    REFERENCE_S / (the reference call's time, averaged over the run)

A reported second is then a second on a machine where the reference call
takes exactly ``REFERENCE_S``.  The reference call is stdlib code of the same
kind as the package's inner loops (``Fraction`` arithmetic in a dict keyed by
tuples) and never touches the package, so a change to the package moves the
scaled times exactly as much as the raw ones.  The raw times and the factor
are printed in the detail line.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.001
GAP_S = 0.05  # sample when at least this much time has passed since the last sample


def reference_call():
    acc = {}
    for i in range(1, 151):
        k = (i % 97, i % 13)
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i, 7) * Fraction(3, i % 5 + 1)
    return acc


class Pace:
    """Samples of the reference call, each weighted by the time it stands for."""

    def __init__(self):
        self._weighted = 0.0  # sum of weight * sample time
        self._weight = 0.0
        self._last = None  # end of the previous sample
        self.samples = 0

    def sample(self, force=False):
        """Time one reference call if ``GAP_S`` has passed since the last one
        (or if ``force``).  It stands for the time since the last sample, so
        a long op between two samples counts for as long as it ran."""
        now = time.perf_counter()
        if not force and self._last is not None and now - self._last < GAP_S:
            return
        weight = GAP_S if self._last is None else max(now - self._last, GAP_S)
        reference_call()  # untimed: warm the caches the last op disturbed
        t0 = time.perf_counter()
        reference_call()
        dt = time.perf_counter() - t0
        self._weighted += weight * dt
        self._weight += weight
        self.samples += 1
        self._last = time.perf_counter()

    def factor(self) -> float:
        """REFERENCE_S over the weighted mean reference time."""
        return REFERENCE_S * self._weight / self._weighted
