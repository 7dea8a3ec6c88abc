"""Deterministic, seedable fault injection for robustness testing.

The paper's headline invariant is soundness, and the place debugger
infrastructure breaks in practice is dynamic patch installation and
monitor-structure maintenance (cf. Transition Watchpoints; Maebe & De
Bosschere on self-modifying code).  This module supplies the harness
that proves those layers recover: a :class:`FaultPlan` is threaded
through the monitored region service and the simulated machine, and
each hardened operation calls :meth:`FaultPlan.trip` at a named
*injection point*.  The plan decides — deterministically — whether that
occurrence raises an :class:`~repro.errors.InjectedFault`.

Two scheduling modes compose:

* **explicit**: ``FaultPlan({PATCH_INSTALL: {1}})`` faults the second
  patch installation and nothing else;
* **seeded**: ``FaultPlan(seed=7, rate=0.2)`` faults each trip with
  probability 0.2 from a private PRNG, so a schedule is reproducible
  from its seed alone.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import InjectedFault

# -- injection point names ----------------------------------------------------

#: bitmap segment allocation from the arena (core.bitmap)
BITMAP_ALLOC = "bitmap.alloc"
#: segment-table pointer publication (core.bitmap)
BITMAP_PUBLISH = "bitmap.publish"
#: Kessler patch installation (core.patches)
PATCH_INSTALL = "patches.install"
#: Kessler patch removal (core.patches)
PATCH_REMOVE = "patches.remove"
#: the four §2/§4.2 MRS entry points (core.service)
SERVICE_CREATE = "service.create_region"
SERVICE_DELETE = "service.delete_region"
SERVICE_PRE_MONITOR = "service.pre_monitor"
SERVICE_POST_MONITOR = "service.post_monitor"
#: any simulated-memory word/byte write (machine.memory)
MEMORY_WRITE = "memory.write"
#: keyframe capture in the record/replay engine (replay.recorder)
REPLAY_KEYFRAME = "replay.keyframe"
#: frozen-session write, fired mid-stream so a fault simulates a crash
#: with a torn temp file on disk (server.hibernate)
HIBERNATE_WRITE = "hibernate.write"
#: frozen-session read/parse (server.hibernate)
HIBERNATE_LOAD = "hibernate.load"
#: client-side request transmission (server.client)
CLIENT_SEND = "client.send"
#: persistent trace-store transaction commit, fired after every write
#: in the transaction has been issued but *before* COMMIT — a fault
#: here simulates a crash mid-commit, which must leave the previous
#: committed generation intact (repro.store.connection)
STORE_COMMIT = "store.commit"
#: interprocedural elimination decision (analysis ipa pass); tripping it
#: makes the pass eliminate a check *without* registering re-insertion
#: sites — deliberately unsound, so the trace-backed auditor has a
#: provable corruption to catch (analysis.audit)
ANALYSIS_UNSOUND = "analysis.unsound"

FAULT_POINTS = (BITMAP_ALLOC, BITMAP_PUBLISH, PATCH_INSTALL, PATCH_REMOVE,
                SERVICE_CREATE, SERVICE_DELETE, SERVICE_PRE_MONITOR,
                SERVICE_POST_MONITOR, MEMORY_WRITE, REPLAY_KEYFRAME,
                HIBERNATE_WRITE, HIBERNATE_LOAD, CLIENT_SEND,
                ANALYSIS_UNSOUND, STORE_COMMIT)


class FaultPlan:
    """A deterministic schedule of injected faults.

    *schedule* maps an injection-point name to the set of zero-based
    occurrence indices that must fault (or ``True`` for "every
    occurrence").  *seed*/*rate* add pseudo-random faults on top,
    restricted to *points* when given.  ``max_faults`` caps the total
    number of faults fired, so a high-rate plan cannot wedge a retry
    loop forever.
    """

    def __init__(self, schedule: Optional[Mapping[str, Any]] = None,
                 seed: Optional[int] = None, rate: float = 0.0,
                 points: Optional[Iterable[str]] = None,
                 max_faults: Optional[int] = None):
        self._schedule: Dict[str, Any] = {}
        for point, occurrences in (schedule or {}).items():
            self._schedule[point] = (True if occurrences is True
                                     else set(occurrences))
        self._rate = rate
        self._rng = random.Random(seed)
        self._points: Optional[Set[str]] = (set(points) if points is not None
                                            else None)
        self._max_faults = max_faults
        self._suspended = 0
        #: per-point count of trip() calls (occurrence indices)
        self.counts: Dict[str, int] = {}
        #: every fault fired, as (point, occurrence, context) — the
        #: deterministic record a seeded schedule can be replayed from
        self.fired: List[Tuple[str, int, Dict[str, Any]]] = []

    @classmethod
    def nth(cls, point: str, n: int = 0, **kwargs) -> "FaultPlan":
        """Plan that faults only the (n+1)-th occurrence of *point*."""
        return cls(schedule={point: {n}}, **kwargs)

    # -- the injection hook ------------------------------------------------

    def trip(self, point: str, **context: Any) -> None:
        """Called by hardened code at injection point *point*.

        Either returns (no fault scheduled for this occurrence) or
        raises :class:`InjectedFault` carrying *context*.
        """
        if self._suspended:
            return
        occurrence = self.counts.get(point, 0)
        self.counts[point] = occurrence + 1
        if self._max_faults is not None and \
                len(self.fired) >= self._max_faults:
            return
        scheduled = self._schedule.get(point)
        fire = scheduled is True or \
            (scheduled is not None and occurrence in scheduled)
        if not fire and self._rate > 0.0 and \
                (self._points is None or point in self._points):
            fire = self._rng.random() < self._rate
        if fire:
            self.fired.append((point, occurrence, dict(context)))
            raise InjectedFault(point, occurrence, **context)

    @contextmanager
    def suspended(self):
        """No faults fire (and no occurrences count) inside this block.

        Recovery code — rollback, state inspection — runs under this so
        a pathological schedule cannot make the undo path itself fail.
        """
        self._suspended += 1
        try:
            yield self
        finally:
            self._suspended -= 1

    def __repr__(self) -> str:
        parts = []
        if self._schedule:
            parts.append("schedule=%r" % self._schedule)
        if self._rate:
            parts.append("rate=%g" % self._rate)
        return "<FaultPlan %s fired=%d>" % (" ".join(parts) or "empty",
                                            len(self.fired))
