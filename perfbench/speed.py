"""The machine's speed during a run, to put every timing on one scale.

The benchmark shares a few cores of a host with other jobs, and the
speed of a core drifts with their load: a fixed pure-Python loop runs
10 ms in one stretch of seconds and 14 ms in the next, and every timing
of the program drifts with it.  So while a run measures, a SIGALRM every
PROBE_INTERVAL_S times a fixed probe loop, and each timing is scaled by
how fast the probe ran around it:

    scaled = seconds * mean(PROBE_REF_S / probe) over the probes in
             [start - WINDOW_S, end + WINDOW_S]

The mean of the probes' speeds is the right average for a timing that
spans several speeds (work done at each speed adds up).  The scaled
figure is the time the same work would take at reference speed, where
the probe takes PROBE_REF_S.  The reference is a fixed choice: about the
probe's median on a 2-vCPU, 2.1 GHz Xeon VM running Python 3.11 under
its usual load, at which ``reescert.cli certify`` of tower4 scales to
about 0.13 s.  A change to the program moves its timings, not the
probe's, so it shows in full on the scaled figures.

The probe costs about one per cent of the run.  Interval timers are not
inherited across fork, so the children the benchmark times are never
interrupted; the probes taken while they run measure the host around
them.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

PROBE_LOOPS = 2000
PROBE_REF_S = 2.4e-4
PROBE_INTERVAL_S = 0.025
WINDOW_S = 0.5


def probe():
    """Fixed interpreter work: dict and integer operations, no allocation
    the garbage collector tracks, so the program's heap cannot slow it."""
    table = {}
    for i in range(PROBE_LOOPS):
        table[i & 63] = table.get(i & 63, 0) + i


class Speedometer:
    """Probes on a timer while entered; scales timings afterwards."""

    def __init__(self):
        self.times: list[float] = []    # when each probe started
        self.probes: list[float] = []   # how long it took
        self._old = None

    def __enter__(self):
        probe()  # warm the probe's code before the first timed one
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame):
        t = perf_counter()
        probe()
        self.times.append(t)
        self.probes.append(perf_counter() - t)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """seconds, measured from start to end, at reference speed."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        near = self.probes[lo:hi] or self.probes
        if not near:
            return seconds
        return seconds * PROBE_REF_S * sum(1 / p for p in near) / len(near)

    def factor(self) -> float:
        """Reference seconds per measured second, over the whole run."""
        return self.scaled(1.0, float("-inf"), float("inf"))

    def median_probe_s(self) -> float:
        return median(self.probes) if self.probes else PROBE_REF_S
