"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes, while the program under test does the same work.  A
wall-clock time therefore says as much about the neighbours as about the
program.  This module measures the host's speed *while* the timed code
runs: a SIGALRM timer interrupts it every PERIOD_S seconds and times one
run of a fixed kernel, a sum of Fractions (exact arithmetic on Python
integers, the kind of work the program spends its time on).

:meth:`Speedometer.clock` turns that into a *quiet-host clock*.  Each
interval between two ticks, without the kernel's own time, advances it by
its wall length times NOMINAL_MS divided by the kernel time measured at
the end of the interval; after the last tick it runs at the last measured
rate.  A quiet-host second is thus the time the same work takes while the
kernel runs at NOMINAL_MS: it moves with the program's work, not with the
host's load.  :func:`burst` gives the rate from kernel runs back to back,
the clock's rate until its first tick.

The kernel is benchmark code and does not call the program, so a change
to the program cannot speed up or slow down the yardstick itself, except
through the caches it leaves behind for the kernel's next run.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01  # one kernel run per 10 ms of timed code, about 1.5% overhead
# kernel time on the reference host (2-vCPU Xeon, Python 3.11) in its quiet
# phases; only a scale, chosen so that quiet-host seconds are close to wall
# seconds there
NOMINAL_MS = 0.1
BURST_RUNS = 41

_TERMS = tuple(Fraction(i, i + 1) for i in range(1, 41))


def kernel() -> Fraction:
    total = Fraction(0)
    for term in _TERMS:
        total += term
    return total


def _timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def burst(runs: int = BURST_RUNS) -> float:
    """Quiet-host seconds per wall second, from `runs` back-to-back kernel runs."""
    _timed_kernel()  # warm
    return NOMINAL_MS / (1e3 * statistics.median(_timed_kernel() for _ in range(runs)))


class Speedometer:
    """Interleaves timed kernel runs with the timed code (main thread only)."""

    def __init__(self):
        self.ticks = 0
        self._spent = 0.0  # wall seconds spent in the kernel
        self._wall = 0.0  # wall clock less kernel time, at the last tick
        self._quiet = 0.0  # quiet-host clock at the last tick
        self._rate = self.first_rate = 1.0  # quiet-host per wall seconds since then
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the kernel is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        wall = start - self._spent
        self._rate = NOMINAL_MS / (1e3 * (end - start))
        self._quiet += (wall - self._wall) * self._rate
        self._wall = wall
        self._spent += end - start
        self.ticks += 1
        self._busy = False

    def clock(self) -> float:
        """Quiet-host seconds, with the kernel's own time left out."""
        while True:
            ticks = self.ticks
            now = self._quiet + (time.perf_counter() - self._spent - self._wall) * self._rate
            if ticks == self.ticks:  # no tick landed while reading the fields
                return now

    def start(self) -> None:
        self._rate = self.first_rate = burst()
        self._wall = time.perf_counter() - self._spent
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
