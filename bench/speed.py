"""Host-speed reference: scale measured times to a steady reference host.

The benchmark shares a few cores of a host whose speed drifts: the same
batch of pairs, decided again and again in one process, took from 6.4 to
11.3 s within 150 s, with CPU time tracking wall time, so the slowdown is
contention for the core (cache, memory, frequency), not time spent waiting.
A fixed reference kernel, the same kind of work as the library (small
polynomial products in dicts and a small numpy elimination mod p), slows
down with it: the ratio of batch time to kernel time measured alongside
spread a quarter as much as the batch time alone.

`Sampler` runs the kernel from a SIGALRM handler every `INTERVAL_S` while
it is started, so the samples interleave with the work being measured,
and keeps the time spent in the handler so callers can take it out of
their timings.  `scale(a, b)` is the mean of REF_KERNEL_S over the kernel time
of the samples in the interval [a, b]; a time measured over that interval times the
scale reads in reference seconds: seconds on a host where one kernel run
takes REF_KERNEL_S.  The kernel does not touch the library, so a change to
the library moves the scaled times as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

import numpy as np

# about the kernel's time on an unloaded 2-vCPU x86-64 host
REF_KERNEL_S = 0.001
INTERVAL_S = 0.05
# samples that a short interval is scaled by, nearest to it in time
NEAREST = 9

_TERMS = {(k % 5, (k // 5) % 4, k // 20): 1 + k % 2 for k in range(60)}
_MATRIX = (np.arange(144, dtype=np.int64).reshape(12, 12) * 7 + 3) % 5


def kernel() -> int:
    """Fixed work of the library's kind: a polynomial square over GF(3)
    in a dict of exponent tuples, then row reduction of a 12x12 matrix
    over GF(5) with numpy.  The garbage collector is held off while it
    runs, so a collection of the library's objects is not taken for a
    slow host."""
    if not gc.isenabled():
        return _kernel()
    gc.disable()
    try:
        return _kernel()
    finally:
        gc.enable()


def _kernel() -> int:
    out: dict = {}
    for m1, c1 in _TERMS.items():
        for m2, c2 in _TERMS.items():
            key = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[key] = (out.get(key, 0) + c1 * c2) % 3
    M = _MATRIX.copy()
    for r in range(12):
        M[r + 1:] = (M[r + 1:] - np.outer(M[r + 1:, r], M[r])) % 5
    return len(out) + int(M.sum())


def kernel_time(repeats: int) -> float:
    """Median kernel time over back-to-back runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Kernel samples taken on a timer; see the module doc."""

    def __init__(self):
        self.at: list = []        # sample start times, ascending
        self.took: list = []      # kernel seconds of each sample
        self.spent = 0.0          # seconds spent in the handler so far

    def _handler(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        # one sample up front, so that a call shorter than the interval
        # still has one to be scaled by
        self._handler(None, None)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, a: float, b: float) -> float:
        """Mean of REF_KERNEL_S over the kernel time of the samples taken
        within [a, b], or of the NEAREST samples to its middle when fewer
        fall inside.  The samples are evenly spaced in time, so this is the
        host's speed relative to the reference host, averaged over time;
        a sample that a pause made slow weighs little."""
        lo, hi = bisect.bisect_left(self.at, a), bisect.bisect_right(self.at, b)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.at, (a + b) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.at) - NEAREST))
            hi = lo + NEAREST
        return statistics.mean(REF_KERNEL_S / k for k in self.took[lo:hi])
