"""Hardware watchpoint baseline (§1).

Commercial processors watch a handful of words with dedicated hardware:
the i386 four, the MIPS R4000 and the SPARC one.  Watching is free at
runtime, but "the hardware approach inherently limits the number of
data words simultaneously monitored" — which is exactly the failure
mode this model exhibits.  It adds only that limit to the shared
:class:`~repro.baselines.watcher.StoreWatcher`, and charges nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.asm.loader import LoadedProgram
from repro.baselines.watcher import StoreWatcher
from repro.core.regions import MonitoredRegion
from repro.errors import ReproError

#: §1 capacities
CAPACITIES = {"i386": 4, "R4000": 1, "SPARC": 1}


class WatchpointCapacityError(ReproError):
    """The debugging request needs more watched words than the hardware
    provides — the §1 argument against hardware-only data breakpoints."""


class HardwareWatchpoints(StoreWatcher):
    """Capacity-limited, zero-overhead watchpoints."""

    def __init__(self, loaded: LoadedProgram, processor: str = "SPARC",
                 capacity: Optional[int] = None):
        if capacity is None:
            if processor not in CAPACITIES:
                raise ValueError("unknown processor %r" % processor)
            capacity = CAPACITIES[processor]
        super().__init__(loaded)
        self.processor = processor
        self.capacity = capacity

    def watch(self, start: int, size: int) -> MonitoredRegion:
        needed = size // 4 + sum(region.size // 4
                                 for region in self.regions)
        if needed > self.capacity:
            raise WatchpointCapacityError(
                "%s hardware watches %d word(s); request needs %d"
                % (self.processor, self.capacity, needed))
        return super().watch(start, size)

    def unwatch(self, region: MonitoredRegion) -> None:
        self.regions.remove(region)
