"""Host speed, sampled while the benchmark measures.

The benchmark gets a few cores of a shared host whose speed drifts, by up
to 2x, over stretches of seconds to minutes.  A wall-clock figure taken in a
slow stretch reads as a regression of the program.  A Probe therefore runs a
fixed kernel of pure-Python arithmetic, which uses nothing of pardual, from a
SIGALRM handler every PERIOD_S of wall time, also in the middle of an
operation, and keeps the kernel's times.  REFERENCE_S over a kernel time is
the host's speed at that moment; 1 means the host the benchmark's bounds
were set on.  A wall-clock duration times the mean speed over it is the
duration on that host ("reference seconds").

The kernel runs with garbage collection off, so that a collection of the
program's heap never lands in a sample and reads as a slow host.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

clock = time.perf_counter

PERIOD_S = 0.02
# About the median kernel time, over 3000 calls, on a 2-vCPU Intel Xeon
# virtual machine at 2.0 GHz with Python 3.11.7.
REFERENCE_S = 0.0003

_TERMS = {(i, j): Fraction(7 * i - 3 * j + 1, j + 1) for i in range(4) for j in range(4)}
_X = Fraction(3, 7)


def kernel():
    """Exact and float polynomial arithmetic, like pardual's, of fixed size."""
    exact = Fraction(0)
    for (i, _), c in _TERMS.items():
        exact += c * _X ** i
    approx = 0.0
    for a in range(12):
        y = a / 6 - 1
        approx += sum(float(c) * y ** j for (_, j), c in _TERMS.items())
    return exact, approx


class Probe:
    """``with Probe() as probe:`` samples host speed until the block ends.

    ``mark()`` starts a window; ``speed(mark)`` is the mean speed over the
    samples taken since, ``stolen(mark)`` the time the samples took from the
    code being timed.
    """

    def __init__(self):
        self.samples = 0
        self.speed_sum = 0.0
        self.kernel_s = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            kernel()
            elapsed = clock() - start
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.samples += 1
        self.speed_sum += REFERENCE_S / elapsed
        self.kernel_s += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return self.samples, self.speed_sum, self.kernel_s

    def speed(self, mark):
        samples = self.samples - mark[0]
        if samples == 0:
            raise RuntimeError("no host speed sample in the window")
        return (self.speed_sum - mark[1]) / samples

    def stolen(self, mark):
        return self.kernel_s - mark[2]
