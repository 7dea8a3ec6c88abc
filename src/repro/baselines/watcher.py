"""One store watcher for the three §1 debugger models.

dbx, VAX DEBUG and hardware watch registers all watch a debuggee's
stores from outside the program, through the CPU's one store hook
(:attr:`~repro.machine.cpu.CPU.store_hook`), and differ only in what
watching costs.  :class:`StoreWatcher` is what they share.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.asm.loader import LoadedProgram
from repro.core.regions import MonitoredRegion, RegionSet


class StoreWatcher:
    """Watches a loaded program's stores into its regions."""

    def __init__(self, loaded: LoadedProgram):
        self.loaded = loaded
        self.regions = RegionSet()
        #: every ``(addr, width, is_read)`` store into a watched region
        self.hits: List[Tuple[int, int, bool]] = []
        loaded.cpu.store_hook = self.on_store

    def watch(self, start: int, size: int) -> MonitoredRegion:
        region = MonitoredRegion(start, size)
        self.regions.add(region)
        return region

    def on_store(self, addr: int, width: int) -> bool:
        """The store hook; True when the store hit a watched region."""
        if self.regions.hit(addr, width):
            self.hits.append((addr, width, False))
            return True
        return False

    def run(self, max_instructions: int = 400_000_000) -> int:
        """Run the program on until it exits; see
        :meth:`LoadedProgram.run <repro.asm.loader.LoadedProgram.run>`."""
        return self.loaded.run(max_instructions=max_instructions)
