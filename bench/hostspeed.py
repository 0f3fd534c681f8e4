"""Host speed: a fixed kernel that runs no ncmart code, timed during a run.

The benchmark host is a small VM whose speed changes by up to 1.9x, in
bursts of seconds and in spells of minutes, as its neighbours load the
machine.  A run therefore times this kernel every ``SAMPLE_EVERY_S``
between calls, and divides each call's wall time by the kernel's
slowdown around it (median kernel time over ``REFERENCE_S``): timings
read as times on the reference host at its quiet speed.  The kernel
mixes interpreter work with small LAPACK calls, like ncmart itself, and
runs no ncmart code, so a change to ncmart does not move it.  Changing
the kernel rescales every timing, so it must stay as it is.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Typical time of kernel() on the reference host at its quiet speed: a
# 2-core Xeon VM with Python 3.11.7, NumPy 2.4.6 and OpenBLAS 0.3.31.
REFERENCE_S = 0.0100
SAMPLE_EVERY_S = 0.5
REPEATS = 3


def kernel() -> float:
    rng = np.random.Generator(np.random.Philox(0))
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    acc = 0.0
    for i in range(300):
        b = a @ a.conj().T
        w = np.linalg.eigh(b)[0]
        s = np.linalg.svd(a, compute_uv=False)
        acc += float(w[0]) + float(s[0]) + sum(float(x) for x in np.diag(b).real)
        acc += len(repr({"k": i, "v": [acc, i * 0.5]})) * 1e-9
    return acc


class HostSpeed:
    """Kernel times sampled through a run."""

    def __init__(self):
        self.points: list[tuple[float, list[float]]] = []  # (time taken, kernel seconds)

    def sample(self, repeats: int = REPEATS) -> None:
        got = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            got.append(time.perf_counter() - t0)
        self.points.append((time.perf_counter(), got))

    def maybe_sample(self) -> None:
        """Sample when ``SAMPLE_EVERY_S`` have passed since the last sample."""
        if not self.points or time.perf_counter() - self.points[-1][0] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Slowdown against the reference host around the interval [start, end].

        The median kernel time of the last sample taken at or before
        ``start`` and the first taken at or after ``end``, over
        ``REFERENCE_S``; without an interval, the median of every sample.
        """
        chosen = self.points
        if start is not None and end is not None:
            times = [t for t, _ in self.points]
            before = bisect.bisect_right(times, start)
            after = bisect.bisect_left(times, end)
            chosen = self.points[max(before - 1, 0):before] + self.points[after:after + 1]
            chosen = chosen or self.points
        return statistics.median(k for _, ks in chosen for k in ks) / REFERENCE_S
