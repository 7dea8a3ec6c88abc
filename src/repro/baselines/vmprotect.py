"""Virtual-memory page-protection baseline: the VAX DEBUG model (§1).

"Rather than check each instruction, VAX DEBUG protects each virtual
memory page containing data that is part of a data break condition."

Every write to a protected page takes a protection fault: the kernel
delivers it to the debugger, which checks whether the faulting address
is actually monitored, unprotects the page, single-steps the write and
reprotects — two traps and two context switches per faulting write.
Writes to *unmonitored* data that merely shares a page with a monitored
region pay the same cost (false faults), which is what makes this
approach slow for hot pages.  The model adds its protected pages to
the shared :class:`~repro.baselines.watcher.StoreWatcher`.
"""

from __future__ import annotations

from typing import Set

from repro.asm.assembler import assemble
from repro.asm.loader import load_program
from repro.baselines.watcher import StoreWatcher
from repro.core.regions import MonitoredRegion

#: cycles per protection fault (fault + context switches + restep)
DEFAULT_FAULT_COST = 4_000
#: protection granularity: SunOS used 4 KB pages
PAGE_SHIFT = 12


class PageProtectionDebugger(StoreWatcher):
    """Data breakpoints via page protection."""

    def __init__(self, asm_source: str,
                 fault_cost: int = DEFAULT_FAULT_COST):
        super().__init__(load_program(assemble(asm_source)))
        self.fault_cost = fault_cost
        #: protected page numbers
        self.pages: Set[int] = set()
        self.false_faults = 0

    def watch(self, start: int, size: int) -> MonitoredRegion:
        region = super().watch(start, size)
        self.pages.update(range(start >> PAGE_SHIFT,
                                (start + size - 1 >> PAGE_SHIFT) + 1))
        return region

    def on_store(self, addr: int, width: int) -> bool:
        if addr >> PAGE_SHIFT not in self.pages:
            return False
        self.loaded.cpu.charge(self.fault_cost)
        hit = super().on_store(addr, width)
        if not hit:
            self.false_faults += 1
        return hit
