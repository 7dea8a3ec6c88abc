"""Times scaled to one reference host speed.

On a shared machine the speed of a core moves by a third or more
within seconds (another tenant on the sibling hyper-thread, clock
changes), and the CPU clock sees this as much as the wall clock does.
Between runs a minute apart it is the largest source of spread.  The
benchmark therefore runs on one CPU, times a fixed reference loop
between short slices of its work (one sweep cell, one recording, one
query round, one round of sessions) and scales the times a slice
measured by ``REFERENCE_S`` over the mean of the calibrations taken
just before and just after it: a time is reported as it would read on
a host where the loop takes ``REFERENCE_S``.  A change to ``repro``
does not touch the loop, so it moves the scaled times as much as the
raw ones.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, List

#: seconds the reference loop takes at the reference speed (about the
#: median speed of a 2-vCPU Xeon guest)
REFERENCE_S = 0.004


def pin_to_one_cpu() -> None:
    """Run this process, the threads it starts and its child processes
    on one CPU.  The two vCPUs of a shared host drift apart (a server
    process on the other one ran 1.6 times slower while the calibrating
    process read normal speed), so calibration must time the core the
    work runs on.  Call before starting threads or processes."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _loop() -> int:
    """Interpreter work like the simulator's: arithmetic on locals and
    stores into a table."""
    table = {}
    total = 0
    for i in range(20_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def calibrate() -> float:
    """Seconds the reference loop takes now: the fastest of three runs,
    so an interrupt inside one run does not count."""
    best = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - begin)
    return best


class Scaler:
    """Runs slices of work between calibrations and scales the times
    each slice appends to its lists."""

    def __init__(self):
        self._last = calibrate()
        #: scale factor of every slice, in order
        self.factors: List[float] = []

    def slice(self, lists: List[List[float]], work: Callable, *args) -> Any:
        """``work(*args)``; returns its result."""
        marks = [len(samples) for samples in lists]
        result = work(*args)
        now = calibrate()
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        self.factors.append(factor)
        for samples, mark in zip(lists, marks):
            samples[mark:] = [value * factor for value in samples[mark:]]
        return result
