"""Superpage range index: efficient checks on contiguous address ranges.

§4.3 requires "an efficient data structure to implement range checks.
For ranges of 2^25 bytes or less, the lookup requires at most three
memory accesses."  We maintain, in debuggee memory, a table of monitored-
region counts per 2^25-byte *superpage*.  A range of <= 2^25 bytes spans
at most two superpages, so the generated pre-header range check loads at
most two counts (plus one shift/index computation that may read the
second count) — within the paper's three-access budget.

The check is conservative: a nonzero count means "the range *may*
intersect a monitored region", which makes the MRS restore the
eliminated in-loop checks.  That is always sound and only costs
performance when a region shares a 32 MB superpage with the loop's
target range.

The table in debuggee memory is the only copy of the counts: adding or
removing a region reads each of its superpages' counts from there and
writes it back adjusted, and the host-side range check reads the same
words the generated code loads.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.layout import MonitorLayout
from repro.core.regions import MonitoredRegion
from repro.core.transactions import UndoJournal
from repro.machine.memory import Memory


class SuperpageIndex:
    """Debugger-side maintenance of the superpage count table."""

    def __init__(self, memory: Memory, layout: MonitorLayout):
        self.memory = memory
        self.layout = layout

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        """The table entries of the superpages [lo, hi] touches."""
        first = self.layout.superpage_of(lo)
        last = self.layout.superpage_of(hi)
        return map(self.layout.superpage_entry, range(first, last + 1))

    def add_region(self, region: MonitoredRegion,
                   journal: Optional[UndoJournal] = None) -> None:
        self._adjust(region, 1, journal)

    def remove_region(self, region: MonitoredRegion,
                      journal: Optional[UndoJournal] = None) -> None:
        self._adjust(region, -1, journal)

    def _adjust(self, region: MonitoredRegion, delta: int,
                journal: Optional[UndoJournal]) -> None:
        for entry in self._entries(region.start, region.end - 1):
            count = self.memory.read_word(entry) + delta
            if count < 0:
                raise ValueError("superpage count underflow")
            if journal is not None:
                journal.record_memory_word(self.memory, entry)
            self.memory.write_word(entry, count)

    def range_may_hit(self, lo: int, hi: int) -> bool:
        """Host-side mirror of the generated range check."""
        return any(map(self.memory.read_word, self._entries(lo, hi)))
