"""The host's speed, sampled while a workload runs, to rescale its timings.

The benchmark shares a few cores of a host with other tenants, and a core
runs the same code up to twice as fast at one moment as at the next,
depending on their load.  That swing is larger than any bound a timing
could carry.  So a fixed calibration kernel, which does not call relpack,
is timed on the same core just before and just after each timed
operation, and, on a timer, every ``INTERVAL_S`` of wall time while it
runs.  An operation's time at reference speed is its wall time (less the
samples taken inside it) times the mean of ``REF_KERNEL_S / kernel time``
over the samples taken during it or within ``MARGIN_S`` of it: the time it
would take on a core that runs the kernel in ``REF_KERNEL_S``, about an
idle core of the machine the benchmark was tuned on.  Wall-clock sampling
weights each stretch of the operation by its length, so the rescaling is
exact when the program and the kernel slow by the same factor.

The kernel mixes the kinds of work relpack does: scalar Python
recurrences, numpy vector arithmetic (as in the batched maps) and numpy
calls on tiny arrays (as in the one-point maps, where the per-call
overhead dominates).  Contention that hits relpack harder than the
kernel is only partly corrected.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.025
MARGIN_S = 0.002
REF_KERNEL_S = 0.25e-3

_rng = np.random.default_rng(12345)
_COEFS = _rng.standard_normal(48).tolist()
_VECTOR = _rng.standard_normal(4096)
_SMALL = _rng.standard_normal(8)


def kernel():
    """Fixed work in three parts of about the same time.

    Scalar Clenshaw recurrences, numpy vector passes over 4096 points, and
    numpy calls on an 8-point array, where the per-call overhead dominates.
    """
    total = 0.0
    for x in (0.1, 0.3, 0.5, 0.7, 0.9, -0.2) * 7:
        b1 = b2 = 0.0
        for c in _COEFS:
            b1, b2 = 2.0 * x * b1 - b2 + c, b1
        total += b1
    for _ in range(2):
        y = np.cos(_VECTOR) * _VECTOR + np.sqrt(np.abs(_VECTOR))
        total += float(y.sum())
    for i in range(30):
        y = np.cos(_SMALL) * _SMALL[i % 8] + np.sqrt(np.abs(_SMALL))
        total += float(np.dot(y, _SMALL))
    return total


class HostSpeed:
    """Samples the kernel's speed while the context is open.

    ``start()`` and ``stop()`` mark an operation; ``times(start, end)``
    then gives its wall time and its time at reference speed, both without
    the time the samples took.  Outside the context the marks take no
    samples, so only wall times can be had.  Works in the main thread only
    (signals are delivered there).
    """

    def __init__(self):
        self.stamps = []  # perf_counter() at the end of each sample
        self.speeds = []  # REF_KERNEL_S / kernel time of each sample
        self.spent = 0.0  # seconds spent sampling
        self._busy = False
        self._active = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.speeds.append(REF_KERNEL_S / (t1 - t0))
        self.spent += t1 - t0
        self._busy = False

    def __enter__(self):
        kernel()  # warm the kernel before the first sample
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._active = True
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def start(self):
        """Mark the start of an operation, sampling just before it."""
        if self._active:
            self._sample(None, None)
        return time.perf_counter(), self.spent

    def stop(self):
        """Mark the end of an operation, sampling just after it."""
        mark = time.perf_counter(), self.spent
        if self._active:
            self._sample(None, None)
        return mark

    def times(self, start, end):
        """(wall seconds, seconds at reference speed) between two marks.

        Call it after the context has closed, so that the samples taken
        just after the operation are there too.
        """
        wall = (end[0] - start[0]) - (end[1] - start[1])
        # the window holds at least the sample start() took
        lo = bisect.bisect_left(self.stamps, start[0] - MARGIN_S)
        hi = bisect.bisect_right(self.stamps, end[0] + MARGIN_S)
        return wall, wall * float(np.mean(self.speeds[lo:hi]))

    def mean_speed(self):
        """Mean speed over the whole run, as a share of the reference."""
        return float(np.mean(self.speeds))
