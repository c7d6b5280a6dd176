"""Host speed probe: a fixed piece of work, timed between operations.

A shared host runs stretches of seconds to minutes up to twice as slow as
its best (neighbours contend for the core and its caches), and a whole run
can fall in one.  The probe is timed before and after each set-up step and
each operation of a closed-loop workload; the step's time is scaled by
``REFERENCE_S / probe time``, which turns it into seconds at the host's
uncontended speed.  The probe is the benchmark's own code, so a change to
the program under test cannot move it; it mixes dict updates with small
NumPy sorts, which slow down under contention about as the library's own
Python and NumPy work does.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time on an uncontended host (2-core x86 container, Python 3.11,
#: NumPy 2).  Scaled latencies read in seconds at that speed.
REFERENCE_S = 1.5e-3

_VALUES = np.random.default_rng(0).random(2000)


def _work() -> float:
    table: dict = {}
    for i in range(15000):
        table[i & 255] = table.get(i & 255, 0) + i
    total = 0.0
    for _ in range(30):
        total += float(np.sort(_VALUES).sum())
    return total


def probe() -> float:
    """Seconds one pass of the fixed work takes now.

    A first, untimed pass brings the work's code and data back into the
    caches, so the operation just finished does not change the reading.
    """
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(probes: list) -> float:
    """Factor that turns a latency timed between ``probes`` into seconds
    at the reference speed."""
    return REFERENCE_S * len(probes) / sum(probes)


class Clock:
    """Wall time split into laps, with the host probed between laps.

    Each lap is timed without the probes and scaled by the probes at its
    two ends.  The first lap starts when the clock is made.
    """

    def __init__(self) -> None:
        self.measured = 0.0
        self.scaled = 0.0
        self._probe = probe()
        self._start = time.perf_counter()

    def lap(self) -> tuple:
        """End the current lap and start the next; the lap's measured
        seconds and its scale factor."""
        elapsed = time.perf_counter() - self._start
        after = probe()
        factor = scale([self._probe, after])
        self.measured += elapsed
        self.scaled += elapsed * factor
        self._probe = after
        self._start = time.perf_counter()
        return elapsed, factor
