"""Host speed, measured alongside the ops so that their times can be scaled to it.

On a shared host the same op can take 0.7x to 1.5x its usual time for
seconds at a stretch, as other tenants come and go.  A fixed kernel of small
numpy operations (the kind of work the library does, but none of its code)
slows down and speeds up with the host nearly as the ops do: in a 100 s
test of such a kernel interleaved with `points` ops, op time varied by a
factor of 2 while op time divided by kernel time stayed within 4%.  ``Speedometer`` times that kernel
every ``PERIOD`` seconds from a SIGALRM handler, so samples are taken during
long ops too, and scales each op's time to a host on which the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.5e-3  # about the kernel's time between library calls on the host the README names
PERIOD = 0.1
WINDOW = 0.3  # samples this far before and after an op describe the host during it
_P = np.arange(5.0)


def kernel() -> float:
    """Fixed work: build forty 5x5 periodic tridiagonal matrices, their spectra and cubes.

    It is written out here, apart from ``checks.py``, so that no change to the
    checks can move the scale; changing it changes every scaled figure.
    """
    acc = 0.0
    for k in range(40):
        b = np.exp(0.005 * k * np.ones(5))
        m = np.diag(_P)
        for j in range(5):
            m[j, (j + 1) % 5] += b[j]
            m[(j + 1) % 5, j] += b[j]
        acc += np.linalg.eigvalsh(m)[0] + np.trace(m @ m @ m)
    return acc


class Speedometer:
    """Kernel times sampled through a run; see the module docstring."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in the kernel, to take out of op times
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.times.append(t1 - t0)
            self.spent += t1 - t0
        finally:
            self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(int(WINDOW / PERIOD) + 1):
            self.sample()
        return False

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time around the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.starts, 0.5 * (t0 + t1))
            lo, hi = max(0, mid - 2), min(len(self.starts), mid + 2)
        return REFERENCE_S / statistics.median(self.times[lo:hi])


def scale_now(samples: int = 7) -> float:
    """REFERENCE_S over the median of a few kernel times taken now."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)
