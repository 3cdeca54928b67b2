"""Machine-speed probe: scales measured times to a fixed reference speed.

The 2-core machine the benchmark was written on runs the same instructions
up to 2x slower for minutes at a time (its host is shared; CPU time tracks
wall time through such shifts, so the process is not descheduled).  A shift
that outlasts a run cannot be averaged away inside it.  So the benchmark
times a fixed probe between two operations once ``EVERY_S`` seconds have
passed since the last one, and scales each operation's time by
``REFERENCE_S`` over the median of the probes taken around it: the figure
is the time the operation would take with the machine at its reference
speed.  The probe calls no mmicap code, so a change to the program moves
the scaled figures as it moves the raw ones.

Each probe does its work twice and times the second pass: the first pass
after an operation, a child process of the ``cli`` workload above all, reads
slow (a median 25 ms against 19 ms for a second pass right after it).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time that defines the reference speed: about the median probe of
#: the machine this was written on (2-core x86_64, one OpenBLAS thread,
#: Python 3.11.7, numpy 2.4.6) in its slow phases; its fast phases read 10 ms.
REFERENCE_S = 0.018

#: A probe runs between two operations once this much time has passed since
#: the last one (its two passes take 4-7% of a run).
EVERY_S = 0.5

#: Probes on each side of an operation whose median scales it (about 3 s).
HALF_WINDOW = 6


class SpeedProbe:
    """Times a fixed mix of interpreter, LAPACK and vector work.

    The mix follows the program's: Python-level loops, small symmetric
    eigendecompositions and elementwise passes over a 20000-long array.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        half = rng.standard_normal((48, 48))
        self._sym = half + half.T
        self._vec = rng.standard_normal(20_000)
        self.samples: list[float] = []
        self._last = -float("inf")
        self._work()  # first calls load LAPACK and warm the caches

    def _work(self) -> None:
        total = 0
        for i in range(60_000):
            total += i * i % 7
        for _ in range(16):
            np.linalg.eigh(self._sym)
        for _ in range(60):
            np.sum(np.log(np.maximum(1.3 * self._vec, 0.5)))

    def measure(self) -> int:
        """Take one probe; returns its index."""
        self._work()
        t0 = time.perf_counter()
        self._work()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return len(self.samples) - 1

    def latest(self) -> int:
        """Index of the latest probe, taking a new one when it is due."""
        if not self.samples or time.perf_counter() - self._last >= EVERY_S:
            return self.measure()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Reference over measured speed for work done after probe ``index``
        (and before the next): multiply a measured time by it."""
        window = self.samples[max(0, index - HALF_WINDOW + 1): index + HALF_WINDOW + 1]
        return REFERENCE_S / statistics.median(window)

    def factor(self) -> float:
        """Reference over the median probe of the whole run."""
        return REFERENCE_S / statistics.median(self.samples)
