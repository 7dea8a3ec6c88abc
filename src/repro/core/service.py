"""The Monitored Region Service (§2).

``MonitoredRegionService`` is the debugger-side object that owns the
monitor data structures inside the debuggee (segmented bitmap, superpage
counts), the reserved-register state, the monitor-hit trap handlers, and
dynamic code patching (Kessler patches for eliminated checks, §4).

Interface, following the paper:

* :meth:`create_region` / :meth:`delete_region` — the §2
  ``CreateMonitoredRegion`` / ``DeleteMonitoredRegion`` operations;
* :meth:`add_callback` — registers a §2 ``NotificationCallBack``;
* :meth:`pre_monitor` / :meth:`post_monitor` — the §4.2 operations that
  re-insert / remove checks on *known* write instructions for a symbol;
* :meth:`enable` / :meth:`disable` — the global disabled flag (§2.1).

Every one of those entry points is **transactional**: mutations are
journaled (:mod:`repro.core.transactions`) and any failure — injected
via a :class:`~repro.faults.FaultPlan` or real — rolls the bitmap,
superpage counts, region set, patch state and reserved registers back
to the pre-call state bit-identically, then surfaces as an
:class:`~repro.errors.MrsTransactionError` subclass carrying structured
context (region, symbol, patch site, pc).  Argument errors detected
before any mutation (overlap, alignment, unknown region) still raise
:class:`~repro.core.regions.RegionError` directly.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Set, Tuple

from repro.asm.loader import LoadedProgram
from repro.core.bitmap import SegmentedBitmap
from repro.core.patches import PatchManager
from repro.core.ranges import SuperpageIndex
from repro.core.regions import MonitoredRegion, RegionError, RegionSet
from repro.core.runtime_asm import INVALID_SEGMENT, NUM_WRITE_TYPES
from repro.core.transactions import UndoJournal
from repro.errors import (MonitorPatchError, MrsError, MrsTransactionError,
                          RegionCreateError, RegionDeleteError)
from repro.faults import (FaultPlan, SERVICE_CREATE, SERVICE_DELETE,
                          SERVICE_POST_MONITOR, SERVICE_PRE_MONITOR)
from repro.instrument.rewriter import InstrumentResult
from repro.isa.registers import REGISTER_IDS

TRAP_MONITOR_HIT = 0x42
TRAP_PREHEADER_HIT = 0x45
TRAP_JMP_CHECK = 0x46

_G2 = REGISTER_IDS["%g2"]
_G3 = REGISTER_IDS["%g3"]
_G4 = REGISTER_IDS["%g4"]
_G5 = REGISTER_IDS["%g5"]
_G6 = REGISTER_IDS["%g6"]

#: callback signature: (target_address, size_bytes, is_read)
NotificationCallBack = Callable[[int, int, bool], None]

__all__ = ["MonitoredRegionService", "MrsError", "NotificationCallBack",
           "TRAP_MONITOR_HIT", "TRAP_PREHEADER_HIT", "TRAP_JMP_CHECK"]


class MonitoredRegionService:
    def __init__(self, loaded: LoadedProgram,
                 instrumentation: InstrumentResult,
                 faults: Optional[FaultPlan] = None):
        if instrumentation.program is None:
            raise MrsError("instrumentation must be assembled before "
                           "attaching the MRS")
        self.loaded = loaded
        self.cpu = loaded.cpu
        self.inst = instrumentation
        self.layout = instrumentation.layout
        self.faults = faults
        self.bitmap = SegmentedBitmap(self.cpu.mem, self.layout,
                                      faults=faults)
        self.superpages = SuperpageIndex(self.cpu.mem, self.layout)
        self.regions = RegionSet()
        self.patches = PatchManager(self.cpu, instrumentation.patchable,
                                    faults=faults)
        #: every (addr, size, is_read) notification, in order
        self.hits: List[Tuple[int, int, bool]] = []
        self.callbacks: List[NotificationCallBack] = []
        self.enabled = False
        #: serialises the public entry points: the region set, bitmap,
        #: superpage counts and patch table are shared mutable state, so
        #: concurrent server sessions driving one service must not
        #: interleave mutations (reentrant: entry points nest, e.g.
        #: ``create_region`` -> ``activate_loop_checks``)
        self._lock = threading.RLock()
        self._install()

    # -- setup --------------------------------------------------------------

    def _install(self) -> None:
        regs = self.cpu.regs
        regs.write(_G2, 1)  # disabled until enable()
        regs.write(_G3, 0)
        regs.write(_G5, self.layout.seg_table_base)
        for k in range(NUM_WRITE_TYPES):
            regs.write(REGISTER_IDS["%%m%d" % k], INVALID_SEGMENT)
        if self.inst.plan.uses_shadow_stack:
            # %m1 doubles as the %fp shadow-stack pointer (§4.2); the
            # rewriter guarantees no Cache strategy is in use then
            regs.write(REGISTER_IDS["%m1"], self.layout.shadow_base)
        self.cpu.trap_handlers[TRAP_MONITOR_HIT] = self._on_hit
        self.cpu.trap_handlers[TRAP_PREHEADER_HIT] = self._on_preheader
        self.cpu.trap_handlers[TRAP_JMP_CHECK] = self._on_jmp_check

    # -- trap handlers ----------------------------------------------------------

    def _on_hit(self, cpu) -> None:
        addr = cpu.regs.read(_G4)
        code = cpu.regs.read(_G6)
        size = code & 0xFF
        is_read = bool(code & 0x100)
        self.hits.append((addr, size, is_read))
        for callback in self.callbacks:
            callback(addr, size, is_read)

    def _on_preheader(self, cpu) -> None:
        """A loop pre-header check succeeded: the loop may write a
        monitored region, so re-insert the eliminated in-loop checks."""
        loop_id = cpu.regs.read(_G6)
        with self._lock:
            for site in self.inst.plan.loop_sites.get(loop_id, ()):
                # idempotent: the pre-header fires once per loop entry but
                # the site needs only one "loop" activation
                if not self.patches.has_reason(site, "loop"):
                    self._activate(site, "loop")

    def _on_jmp_check(self, cpu) -> None:
        """Indirect-jump verification (§4.2): the target must be a known
        function entry or a return into the caller's code."""
        target = cpu.regs.read(_G6)
        program = self.inst.program
        if program is None:
            return
        text_lo = program.text_base
        text_hi = text_lo + 4 * len(program.insns)
        if not (text_lo <= target < text_hi):
            from repro.machine.traps import DebuggeeFault
            raise DebuggeeFault("indirect jump to 0x%x outside text"
                                % target, target=target, pc=cpu.pc)

    # -- the §2 interface ---------------------------------------------------------

    def add_callback(self, callback: NotificationCallBack) -> None:
        with self._lock:
            self.callbacks.append(callback)

    def enable(self) -> None:
        with self._lock:
            self.cpu.regs.write(_G2, 0)
            self.enabled = True

    def disable(self) -> None:
        """Set the global disabled flag (§2.1).  Idempotent."""
        with self._lock:
            self.cpu.regs.write(_G2, 1)
            self.enabled = False

    def _rollback(self, journal: UndoJournal) -> None:
        """Undo a failed operation with fault injection suspended, so a
        pathological schedule cannot break the recovery path itself."""
        if self.faults is not None:
            with self.faults.suspended():
                journal.rollback()
        else:
            journal.rollback()

    def create_region(self, start: int, size: int,
                      mid_run: bool = False) -> MonitoredRegion:
        """§2 ``CreateMonitoredRegion`` — transactional.

        Pass ``mid_run=True`` when the debuggee is stopped *inside*
        running code (e.g. at a breakpoint): loops whose pre-header
        checks already executed this entry would otherwise miss the new
        region until their next entry, so their eliminated checks are
        conservatively re-inserted.

        On any failure after validation, every touched structure is
        rolled back and :class:`RegionCreateError` is raised with the
        original failure chained.
        """
        region = MonitoredRegion(start, size)   # validates, mutates nothing
        with self._lock:
            if self.faults is not None:
                self.faults.trip(SERVICE_CREATE, region=region.key(),
                                 pc=self.cpu.pc)
            journal = UndoJournal()
            try:
                self.regions.add(region, journal)
                touched = self.bitmap.set_region(region, journal)
                self.superpages.add_region(region, journal)
                self._invalidate_caches(touched, journal)
                if mid_run:
                    self.activate_loop_checks(journal)
            except RegionError:
                self._rollback(journal)
                raise
            except Exception as exc:
                self._rollback(journal)
                raise RegionCreateError(
                    "CreateMonitoredRegion(0x%x, %d) failed; state rolled "
                    "back" % (start, size), region=(start, size),
                    pc=self.cpu.pc) from exc
            journal.commit()
            return region

    def activate_loop_checks(self,
                             journal: Optional[UndoJournal] = None) -> int:
        """Conservatively re-insert every loop-eliminated check (they
        retract when the last region is deleted).  Returns the number of
        sites activated."""
        with self._lock:
            activated = 0
            for loop_id, sites in self.inst.plan.loop_sites.items():
                for site in sites:
                    if not self.patches.has_reason(site, "loop"):
                        self._activate(site, "loop", journal)
                        activated += 1
            return activated

    def delete_region(self, region: MonitoredRegion) -> None:
        """§2 ``DeleteMonitoredRegion`` — transactional.

        Deleting a region that is unknown or already deleted raises a
        clear :class:`RegionError` before anything is touched, so a
        confused caller cannot corrupt the bitmap counts.
        """
        with self._lock:
            if region not in self.regions:
                raise RegionError(
                    "cannot delete %r: not currently monitored (unknown or "
                    "already deleted)" % (region,),
                    region=getattr(region, "key", lambda: region)())
            if self.faults is not None:
                self.faults.trip(SERVICE_DELETE, region=region.key(),
                                 pc=self.cpu.pc)
            journal = UndoJournal()
            try:
                self.regions.remove(region, journal)
                self.bitmap.clear_region(region, journal)
                self.superpages.remove_region(region, journal)
                if len(self.regions) == 0:
                    # no regions left: retract all loop-activated checks
                    for site in list(self.patches.reasons):
                        self._deactivate(site, "loop", journal)
            except Exception as exc:
                self._rollback(journal)
                raise RegionDeleteError(
                    "DeleteMonitoredRegion(%r) failed; state rolled back"
                    % (region,), region=region.key(),
                    pc=self.cpu.pc) from exc
            journal.commit()

    # -- §4.2 PreMonitor / PostMonitor -----------------------------------------

    def pre_monitor(self, symbol: str, func: Optional[str] = None) -> int:
        """Re-insert checks on the known writes of *symbol* —
        transactional across all of the symbol's sites.

        Returns the number of sites patched.  The caller should follow
        with :meth:`create_region` on the symbol's storage, since the
        symbol can also be written through aliases (§4.2).
        """
        with self._lock:
            sites = self._symbol_site_list(symbol, func)
            if self.faults is not None:
                self.faults.trip(SERVICE_PRE_MONITOR, symbol=symbol,
                                 sites=len(sites), pc=self.cpu.pc)
            journal = UndoJournal()
            try:
                for site in sites:
                    self._activate(site, "symbol", journal)
            except Exception as exc:
                self._rollback(journal)
                raise MonitorPatchError(
                    "PreMonitor(%r) failed; patches rolled back" % symbol,
                    symbol=symbol, pc=self.cpu.pc) from exc
            journal.commit()
            return len(sites)

    def post_monitor(self, symbol: str, func: Optional[str] = None) -> int:
        """Remove :meth:`pre_monitor` patches for *symbol* —
        transactional, and a no-op for sites not currently activated
        (double ``PostMonitor`` is harmless)."""
        with self._lock:
            sites = self._symbol_site_list(symbol, func)
            if self.faults is not None:
                self.faults.trip(SERVICE_POST_MONITOR, symbol=symbol,
                                 sites=len(sites), pc=self.cpu.pc)
            journal = UndoJournal()
            try:
                for site in sites:
                    self._deactivate(site, "symbol", journal)
            except Exception as exc:
                self._rollback(journal)
                raise MonitorPatchError(
                    "PostMonitor(%r) failed; patches rolled back" % symbol,
                    symbol=symbol, pc=self.cpu.pc) from exc
            journal.commit()
            return len(sites)

    def _symbol_site_list(self, symbol: str,
                          func: Optional[str]) -> List[int]:
        plan = self.inst.plan
        if func is not None:
            return plan.symbol_sites.get((func, symbol), [])
        sites: List[int] = []
        for (_func, name), site_list in plan.symbol_sites.items():
            if name == symbol:
                sites.extend(site_list)
        return sites

    # -- dynamic patching (delegated to the PatchManager) -----------------------

    def _activate(self, site: int, reason: str,
                  journal: Optional[UndoJournal] = None) -> None:
        self.patches.activate(site, reason, journal)

    def _deactivate(self, site: int, reason: str,
                    journal: Optional[UndoJournal] = None) -> None:
        self.patches.deactivate(site, reason, journal)

    def active_sites(self) -> List[int]:
        return self.patches.active_sites()

    # -- cache invalidation -------------------------------------------------------

    def _invalidate_caches(self, touched_segments,
                           journal: Optional[UndoJournal] = None) -> None:
        """Creating a region in segment S invalidates any %m cache
        holding S: the caches may only name unmonitored segments (§3.1).
        """
        regs = self.cpu.regs
        for k in range(NUM_WRITE_TYPES):
            rid = REGISTER_IDS["%%m%d" % k]
            if regs.read(rid) in touched_segments:
                if journal is not None:
                    journal.record_register(regs, rid)
                regs.write(rid, INVALID_SEGMENT)

    # -- introspection -------------------------------------------------------------

    def hit_count(self) -> int:
        return len(self.hits)

    def space_overhead(self) -> Tuple[int, int]:
        """(bitmap bytes allocated, program data+text bytes) for §3."""
        program = self.inst.program
        program_bytes = program.text_size() + program.data_size()
        return self.bitmap.bitmap_bytes_allocated(), program_bytes
