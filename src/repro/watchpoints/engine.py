"""The watchpoint evaluation engine.

Sits between the MRS notification callback and the debugger's action
dispatch.  For every monitor hit the engine walks the armed
watchpoints and decides — per watchpoint — whether the hit *fires*:

1. **access filter** — read watchpoints ignore writes and vice versa
   (``access=None`` keeps the historical behaviour: fire on anything
   the region reports);
2. **byte-range guard** — the MRS region is word-rounded and may be
   shared by several watchpoints; a hit outside this watchpoint's
   exact byte range is rejected before any debuggee memory is read,
   as is a hit whose predicate constant-folded to false;
3. **predicate evaluation** — the compiled
   :class:`~repro.watchpoints.predicate.Predicate` runs against a
   lazily-built :class:`~repro.watchpoints.predicate.EvalContext`;
   only the facts the predicate's dependency set names are
   materialised (``$old`` reads the debugger's one old-value shadow,
   which :meth:`Debugger._on_hit
   <repro.debugger.debugger.Debugger._on_hit>` refreshes only after the
   engine and the recorder have seen the hit — §2.1 write checks run
   after the store lands, so the overwritten value cannot be read
   back);
4. **transition edge** — a transition watchpoint compares the new
   truth value against its shadow truth and fires only on the
   requested edge (``rise`` / ``fall`` / ``change``).

Every decision is counted (``hits`` / ``guarded`` / ``evals`` /
``suppressed`` / ``fired`` / ``errors`` per watchpoint), and a
:class:`~repro.errors.PredicateError` raised mid-evaluation *disarms*
the watchpoint — recorded on ``watchpoint.disarm_error`` and in the
debugger log — rather than crashing the session.

The engine's per-watchpoint state (shadow truth, counters, cached
truth, disarm status) is captured by value in every
:meth:`~repro.debugger.debugger.Debugger.checkpoint`, beside the
debugger's old-value shadow and each watchpoint's hit log, so replay
keyframe restores and hibernation thaws rewind it and re-execution
re-fires transitions deterministically.  Firings are decided once,
live: the debugger logs each one with its instruction index in
``Watchpoint.hits``, and ``reverse_continue`` travels back to the
newest logged firing instead of deciding firings again.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import PredicateError
from repro.isa.instructions import to_signed
from repro.watchpoints.predicate import (EvalContext, Predicate,
                                         memory_reader)

__all__ = ["ACCESS_KINDS", "EDGES", "WatchStats", "WatchpointEngine",
           "access_allows", "edge_fires"]

#: selectable transition edges (false→true, true→false, either)
EDGES = ("rise", "fall", "change")
#: selectable access filters (None = any access, the historical default)
ACCESS_KINDS = ("read", "write", "readWrite")


def edge_fires(when: str, previous: bool, current: bool) -> bool:
    """Does the *previous* → *current* truth change match edge *when*?"""
    if when == "rise":
        return current and not previous
    if when == "fall":
        return previous and not current
    return previous != current  # "change"


def access_allows(access: Optional[str], is_read: bool) -> bool:
    """Does this watchpoint's access filter admit this hit kind?"""
    if access is None or access == "readWrite":
        return True
    return is_read if access == "read" else not is_read


class WatchStats:
    """Per-watchpoint hit-path counters."""

    __slots__ = ("hits", "guarded", "evals", "suppressed", "fired",
                 "errors", "pruned")

    def __init__(self, hits: int = 0, guarded: int = 0, evals: int = 0,
                 suppressed: int = 0, fired: int = 0, errors: int = 0,
                 pruned: int = 0):
        self.hits = hits              #: notifications overlapping the region
        self.guarded = guarded        #: rejected without reading memory
        self.evals = evals            #: predicate evaluations executed
        self.suppressed = suppressed  #: evaluated but did not fire
        self.fired = fired            #: dispatched the watchpoint action
        self.errors = errors          #: PredicateErrors (each disarms)
        self.pruned = pruned          #: answered from the invariant cache

    def as_tuple(self) -> Tuple[int, int, int, int, int, int, int]:
        return (self.hits, self.guarded, self.evals, self.suppressed,
                self.fired, self.errors, self.pruned)

    @classmethod
    def from_tuple(cls, values) -> "WatchStats":
        return cls(*values)

    def as_dict(self) -> Dict[str, int]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:
        return "<WatchStats %s>" % (
            " ".join("%s=%d" % (slot, getattr(self, slot))
                     for slot in self.__slots__))


class WatchpointEngine:
    """Predicate/transition evaluation over one debugger's hits."""

    def __init__(self, debugger):
        self.debugger = debugger

    # -- arming ------------------------------------------------------------

    def seed(self, watchpoint) -> None:
        """Initialise *watchpoint*'s engine state from current memory.

        Resets its counters and seeds — for transition watchpoints —
        the initial truth value, so the first edge is measured against
        the state at arm time, not against an arbitrary default.  A
        predicate that faults on current memory raises
        :class:`~repro.errors.PredicateError` here, at arm time.
        """
        mem = self.debugger.cpu.mem
        watchpoint.stats = WatchStats()
        watchpoint.disarm_error = None
        watchpoint.truth = None
        watchpoint.cached_truth = None
        predicate = watchpoint.predicate
        if predicate is not None and watchpoint.when is not None:
            if predicate.const is not None:
                watchpoint.truth = bool(predicate.const)
            else:
                current = to_signed(mem.read_word(watchpoint.addr & ~3))
                ctx = EvalContext(value=current, old=current,
                                  addr=watchpoint.addr,
                                  size=watchpoint.size,
                                  read_word=memory_reader(mem))
                watchpoint.truth = predicate.truth(ctx)
        if predicate is not None and predicate.const is None and \
                getattr(watchpoint, "invariant", False):
            # the pruner proved no write site can alias the predicate's
            # read set and it observes no per-hit facts: its truth is
            # fixed from arm time on.  Evaluate once, answer hits from
            # the cache (WatchStats.pruned counts them).
            ctx = EvalContext(addr=watchpoint.addr,
                              size=watchpoint.size,
                              read_word=memory_reader(mem))
            watchpoint.cached_truth = predicate.truth(ctx)

    # -- the hit fast path -------------------------------------------------

    def on_hit(self, addr: int, size: int, is_read: bool) -> None:
        """Dispatch one MRS notification through every watchpoint.
        The debugger's shadow still holds the accessed words' values
        from before the access (its hook refreshes them after this)."""
        debugger = self.debugger
        for watchpoint in debugger.watchpoints:
            if not watchpoint.enabled:
                continue
            region = watchpoint.region
            if not (addr < region.end and region.start < addr + size):
                continue
            stats = watchpoint.stats
            stats.hits += 1
            if not access_allows(watchpoint.access, is_read) or not (
                    addr < watchpoint.addr + watchpoint.size
                    and watchpoint.addr < addr + size):
                stats.guarded += 1
            else:
                try:
                    fired, value = self._evaluate(watchpoint, addr,
                                                  size)
                except PredicateError as exc:
                    self.disarm(watchpoint, exc)
                    continue
                if fired:
                    stats.fired += 1
                    debugger._fire(watchpoint, addr, size, value)
                else:
                    stats.suppressed += 1

    def _evaluate(self, watchpoint, addr: int,
                  size: int) -> Tuple[bool, Optional[int]]:
        """Decide whether one in-range hit fires; returns
        ``(fired, value)`` where *value* is the (signed) word at the
        accessed address when it was read, else None."""
        mem = self.debugger.cpu.mem
        predicate: Optional[Predicate] = watchpoint.predicate
        stats = watchpoint.stats
        value: Optional[int] = None

        def current_value() -> int:
            nonlocal value
            if value is None:
                value = to_signed(mem.read_word(addr & ~3))
            return value

        if predicate is None:
            # the historical path: unconditional, or filtered by the
            # legacy condition callable on the new value
            current_value()
            if watchpoint.condition is not None:
                stats.evals += 1
                if not watchpoint.condition(value):
                    return False, value
            return True, value
        if predicate.const is not None and watchpoint.when is not None:
            # a constant predicate can never change truth: no edges
            stats.guarded += 1
            return False, None
        if predicate.const is not None and not predicate.const:
            # constant-false conditional: rejected without any read
            stats.guarded += 1
            return False, None
        cached = getattr(watchpoint, "cached_truth", None)
        if cached is not None:
            # invariant predicate (see repro.analysis.prune): answer
            # from the seed-time truth without touching memory
            stats.pruned += 1
            if watchpoint.when is not None:
                return False, None  # truth never changes: no edges
            if cached:
                current_value()
                if watchpoint.condition is not None and \
                        not watchpoint.condition(value):
                    return False, value
            return bool(cached), value
        stats.evals += 1
        ctx = EvalContext(addr=addr, size=size)
        if predicate.needs_value:
            ctx.value = current_value()
        if predicate.needs_old:
            word = addr & ~3
            raw = self.debugger.shadow.get(word)
            ctx.old = to_signed(raw if raw is not None
                                else mem.read_word(word))
        if predicate.needs_memory:
            ctx.read_word = memory_reader(mem)
        truth = predicate.truth(ctx)
        if watchpoint.when is None:
            fired = truth
        else:
            fired = edge_fires(watchpoint.when, watchpoint.truth, truth)
            watchpoint.truth = truth
        if fired:
            current_value()
            if watchpoint.condition is not None and \
                    not watchpoint.condition(value):
                return False, value
        return fired, value

    def disarm(self, watchpoint, exc: PredicateError) -> None:
        """A predicate fault: disable the watchpoint, keep the session."""
        watchpoint.enabled = False
        watchpoint.disarm_error = exc
        watchpoint.stats.errors += 1
        self.debugger.log.append(
            "watchpoint %s disarmed: %s" % (watchpoint.name, exc))
