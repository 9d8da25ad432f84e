"""A fixed CPU kernel that tracks how fast the machine runs right now.

On a shared machine the CPU speed available to one process drifts by tens
of percent within seconds, and moves all code alike: the program's
operations and this kernel slow down together. While an operation runs, a
timer signal interrupts it every INTERVAL_S seconds to time one short pass
of the kernel. The benchmark subtracts those passes from the operation's
wall time and scales the rest by REFERENCE_S over the passes' trimmed
mean, which cancels most of the drift. The kernel is a small mix of what pcedge spends
its time on (small GEMMs, elementwise numpy, kd-tree queries, sorting,
gathers from an array larger than the L2 cache, interpreted Python); it
uses numpy and scipy only, never pcedge, so no change to the program
moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.spatial import cKDTree

# Median time of one pass on the 2-core box the baseline was recorded on;
# a machine at this speed has speed factor 1.
REFERENCE_S = 0.0054
INTERVAL_S = 0.1


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(1024, 6))
        self._w = rng.normal(size=(6, 18))
        self._x = rng.normal(size=(64, 2, 16, 3))
        points = rng.random((2000, 3))
        self._tree = cKDTree(points)
        self._queries = points[:100]
        self._keys = rng.random((150, 40))
        self._rows = np.repeat(np.arange(150), 40)
        # 8 MB, several times the L2 cache: random gathers from it feel the
        # shared-cache and memory traffic of other tenants, as pcedge's large
        # arrays do.
        self._far = rng.random(1 << 20)
        self._far_idx = rng.integers(0, self._far.size, 20000)
        self.passes: list[float] = []
        self.once()

    def once(self) -> float:
        """Seconds one pass of the kernel takes; each part takes about a fifth."""
        t0 = time.perf_counter()
        for _ in range(25):
            np.maximum(self._a @ self._w, 0.0)
        s = np.einsum("bhqd,bhkd->bhqk", self._x, self._x)
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        s /= s.sum(axis=-1, keepdims=True)
        for _ in range(2):
            self._tree.query(self._queries, k=16)
        np.lexsort((self._keys.ravel(), self._rows))
        for _ in range(3):
            self._far[self._far_idx].sum()
        acc = 0.0
        for i in range(7000):
            acc += i * 0.5
        return time.perf_counter() - t0

    @contextmanager
    def sampling(self, span=None):
        """Time one pass every INTERVAL_S seconds of the block into `passes`.

        Python runs the handler between bytecodes of the main thread, so a
        pass never splits a numpy or scipy call; a long call only delays it.
        `span`, a tracer's span context manager, marks each pass in a trace.
        """
        self.passes = []

        def handler(signum, frame):
            if span is None:
                self.passes.append(self.once())
            else:
                with span("calibrate"):
                    self.passes.append(self.once())

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def typical_pass(self) -> float:
        """Mean pass time of the last sampled block, its fastest and slowest
        fifth dropped; topped up to five passes after the block when it was
        too short to be interrupted that often."""
        passes = sorted(self.passes + [self.once() for _ in range(5 - len(self.passes))])
        cut = len(passes) // 5
        return statistics.fmean(passes[cut:len(passes) - cut])
