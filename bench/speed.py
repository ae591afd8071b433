"""The machine's current speed, read from a fixed reference kernel.

The machine behind the README figures shares its cores: for stretches of a
few seconds to a minute the same work runs up to twice as slow, and process
CPU time slows with it, so neither wall time nor CPU time is steady.  The
benchmark therefore times the reference kernel between the calls of a pass
and rescales each call's wall time to the kernel's nominal speed:

    scaled = wall * REF_NOMINAL_S / (mean kernel time around the call)

The kernel is interpreter-bound work on small numpy arrays, the same kind of
work cplab does, and calls into nothing the tracer counts.  It does not use
cplab, so a change to the program does not move it.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# the kernel's time in a quiet phase of the machine behind the README figures
REF_NOMINAL_S = 0.004
# at most one reading per interval while a pass runs
REF_INTERVAL_S = 0.1


def reference_kernel() -> float:
    """Fixed work: small complex matmuls, solves and scalar Python loops."""
    rng = np.random.default_rng(1)
    acc = 0.0
    for n in (3, 6, 12):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = np.eye(n) + 0.1 * a
        for _ in range(60):
            acc += abs(np.trace(a @ a - a.T))
            acc += float(np.abs(np.linalg.solve(b, a[:, 0])).max())
            acc += abs(sum(complex(k) / (k + 1.5) for k in range(n)))
    return acc


class Speedometer:
    """Timed runs of the reference kernel: (midpoint, seconds) readings."""

    def __init__(self):
        self.readings: list[tuple[float, float]] = []
        self._last = -math.inf

    def read(self, times: int = 1) -> float:
        """Take readings; return the seconds of the last one."""
        for _ in range(times):
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            self.readings.append(((start + end) / 2, end - start))
            self._last = end
        return end - start

    def tick(self):
        """Take a reading if the last one is older than REF_INTERVAL_S."""
        if time.perf_counter() - self._last >= REF_INTERVAL_S:
            self.read()

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean reading in [start, end] and next to it."""
        mids = [t for t, _ in self.readings]
        lo = max(bisect.bisect_left(mids, start) - 1, 0)
        hi = bisect.bisect_right(mids, end) + 1
        return REF_NOMINAL_S / statistics.fmean(s for _, s in self.readings[lo:hi])

    def clear(self):
        self.readings.clear()
