"""Host-speed calibration for the benchmark's in-process timings.

On a shared host the same pure-Python computation can take twice as long
for tens of seconds at a time, and CPU time slows with wall time, so the
slowdown is the core running slower, not the process waiting.  Medians
within one run cannot remove a slowdown that lasts the whole run.  So while
an in-process workload runs, a timer signal every ``INTERVAL_S`` times a
fixed kernel on the same pinned CPU, and each op's time, less the time the
sampler took inside it, is scaled by ``KERNEL_REF_S / kernel time measured
during it``: seconds at the speed the core had when the kernel took
``KERNEL_REF_S``, about this kernel's time on an idle core of the machine
the benchmark was written on.  Raw seconds are reported beside the scaled
ones.

Child processes (set-up probes, CLI calls) are not scaled.  Their time goes
mostly to imports, whose speed did not follow the kernel's: scaling them
doubled their run-to-run spread.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time
from fractions import Fraction

#: nominal kernel time; scaled times are seconds at this kernel speed
KERNEL_REF_S = 0.0008
#: kernel repeats per sample; the sample is their median
BURST = 3
#: time between two samples, seconds
INTERVAL_S = 0.1


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so the kernel and
    the work it calibrates run on the same core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel() -> Fraction:
    """Rational arithmetic in the interpreter, the kind of work that
    dominates quadtile; about 1 ms."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 7)
    return total


class Calibration:
    """Kernel samples taken during a run, as ``(start, end, kernel s)``."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernels: list[float] = []

    def mark(self, *_signal) -> None:
        times = []
        first = time.perf_counter()
        for _ in range(BURST):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.starts.append(first)
        self.ends.append(time.perf_counter())
        self.kernels.append(statistics.median(times))

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.mark)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.starts, start),
                     bisect.bisect_right(self.ends, end))

    def own_time(self, start: float, end: float) -> float:
        """Time spent sampling inside ``[start, end]``."""
        return sum(self.ends[i] - self.starts[i]
                   for i in self._inside(start, end))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second for work done in ``[start, end]``,
        from the kernel samples taken inside it, or from the last sample
        before and the first after when none is."""
        inside = self._inside(start, end)
        if len(inside):
            near = [self.kernels[i] for i in inside]
        else:
            near = [self.kernels[i] for i in (inside.start - 1, inside.start)
                    if 0 <= i < len(self.kernels)]
        return KERNEL_REF_S / statistics.fmean(near)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the work done in ``[start, end]``: its time
        less the sampler's, times ``factor``."""
        work = end - start - self.own_time(start, end)
        return work * self.factor(start, end)

    def median_kernel(self) -> float:
        return statistics.median(self.kernels)
