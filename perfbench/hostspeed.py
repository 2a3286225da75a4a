"""Host-speed probes: time work in *reference seconds*.

The hosts this benchmark runs on are shared, and their speed drifts by
tens of percent within seconds and across minutes, which no median over
a 15-second run can remove.  So every end-to-end timing interleaves its
work with a fixed probe -- a short interpreter-bound loop that no change
to the program can touch -- and converts the measured seconds to
reference seconds::

    reference seconds = measured seconds x PROBE_REF_S / mean probe seconds

where the mean is over probes taken just before, between the pieces of
and just after the timed work.  On a host where the probe takes
``PROBE_REF_S`` the two units agree; a slow spell stretches the work and
the probes alike and cancels out.  Probe time itself is never counted as
work.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Tuple

__all__ = ["PROBE_REF_S", "Meter", "probe"]

#: Probe seconds on the reference host (a quiet 2-core x86 host running
#: Python 3.11 takes about this long).
PROBE_REF_S = 0.001


def probe() -> float:
    """Seconds one fixed interpreter-bound loop takes right now.

    The cyclic garbage collector is paused for the loop, so a collection of
    the program's heap never lands in a probe.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for value in range(10_000):
            total += value * value
        table = {}
        for value in range(2_000):
            table[value] = str(value)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Meter:
    """Times one piece of work, probing the host before, during and after it."""

    def __init__(self) -> None:
        self._probes: List[float] = []
        self._start = 0.0

    def start(self) -> None:
        self._probes = [probe()]
        self._start = time.perf_counter()

    def tick(self, *_: object) -> None:
        """Probe between two parts of the work (usable as a callback)."""
        self._probes.append(probe())

    def stop(self) -> Tuple[float, float]:
        """``(measured seconds, reference seconds)`` of the work, probes excluded."""
        seconds = time.perf_counter() - self._start - sum(self._probes[1:])
        self._probes.append(probe())
        return seconds, seconds * PROBE_REF_S / statistics.fmean(self._probes)
