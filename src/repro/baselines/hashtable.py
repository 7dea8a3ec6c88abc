"""Hash-table write checks: the Wahbe '92 pilot-study baseline (§3).

"The write checks tested in Wahbe's pilot study of data breakpoint
implementations used a hash table for address lookup.  This data
structure uses memory efficiently ... However, it requires several
memory accesses for each address lookup. ... the write check overhead
generally matched the 209% to 642% reported in the previous study."

The model: each write calls a checking procedure that saves scratch
registers to the stack (the pilot study's calling convention), hashes
the target address and walks a bucket *chain* of monitored words.
Empty buckets still cost the register saves plus the bucket load —
several memory accesses more than the segmented bitmap.
"""

from __future__ import annotations

from typing import List

from repro.core.regions import MonitoredRegion
from repro.core.runtime_asm import TRAP_MONITOR_HIT, size_code
from repro.core.service import MonitoredRegionService
from repro.instrument.strategies import CheckStrategy
from repro.instrument.writes import WriteSite
from repro.machine.memory import Memory

HASH_TABLE_BASE = 0xAA000000
HASH_NODE_BASE = 0xAB000000
#: number of buckets (power of two)
HASH_BUCKETS = 1024


class HashTableStrategy(CheckStrategy):
    """Per-write procedure call into the hash-probe routine."""

    name = "HashTable"

    def site_check(self, site: WriteSite, is_read: bool = False
                   ) -> List[str]:
        skip = ".Lmrs_skip_%d" % site.site
        from repro.instrument.strategies import address_computation
        return [
            "tst %g2",
            "bne %s" % skip,
            "nop",
            address_computation(site.stmt.ops[1]),
            "call __mrs_hash_w%d" % site.width,
            "nop",
            "%s:" % skip,
        ]

    def library(self) -> str:
        lines: List[str] = ["\t.text", "\t.tag lib"]
        for width in (4, 1):
            lines += self._routine(width)
        lines.append("\t.tag orig")
        return "\n".join(lines) + "\n"

    def _routine(self, width: int) -> List[str]:
        name = "__mrs_hash_w%d" % width
        loop = name + "_loop"
        done = name + "_done"
        hit = name + "_hit"
        return [
            "%s:" % name,
            "\tsave %sp, -96, %sp",
            "\tmov 1, %g3",
            # the pilot study's convention: spill scratch to the stack
            # and recompute everything from scratch on each check
            "\tst %l0, [%sp-4]",
            "\tst %l1, [%sp-8]",
            "\tst %l2, [%sp-12]",
            "\tst %l3, [%sp-16]",
            "\tst %l4, [%sp-20]",
            "\tset %d, %%l0" % HASH_TABLE_BASE,
            "\tsrl %g4, 2, %l1",
            "\tsrl %g4, 12, %l3",       # multiplicative-style hash mix
            "\txor %l1, %l3, %l1",
            "\tsmul %l1, 13, %l1",
            "\tand %%l1, %d, %%l1" % (HASH_BUCKETS - 1),
            "\tsll %l1, 2, %l1",
            "\tld [%l0+%l1], %l2",      # bucket head pointer
            "%s:" % loop,
            "\ttst %l2",
            "\tbe %s" % done,
            "\tnop",
            "\tld [%l2], %l1",          # node: monitored word address
            "\tcmp %l1, %g4",
            "\tbe %s" % hit,
            "\tnop",
            "\tld [%l2+4], %l2",        # next
            "\tba %s" % loop,
            "\tnop",
            "%s:" % hit,
            "\tmov %d, %%g6" % size_code(width, False),
            "\tta 0x%x" % TRAP_MONITOR_HIT,
            "%s:" % done,
            "\tld [%sp-4], %l0",
            "\tld [%sp-8], %l1",
            "\tld [%sp-12], %l2",
            "\tld [%sp-16], %l3",
            "\tld [%sp-20], %l4",
            "\tmov 0, %g3",
            "\tret",
            "\trestore",
        ]


class HashTableMrs(MonitoredRegionService):
    """MRS whose create/delete also maintain the in-debuggee hash table.

    Node layout: ``[word_address, next_node]``.  Buckets chain by
    ``(addr >> 2) & (HASH_BUCKETS - 1)``.
    """

    def __init__(self, loaded, instrumentation):
        self._node_next = HASH_NODE_BASE
        super().__init__(loaded, instrumentation)

    def _bucket_entry(self, word_addr: int) -> int:
        mixed = ((word_addr >> 2) ^ (word_addr >> 12)) * 13
        index = mixed & (HASH_BUCKETS - 1)
        return HASH_TABLE_BASE + 4 * index

    def create_region(self, start: int, size: int) -> MonitoredRegion:
        region = super().create_region(start, size)
        mem: Memory = self.cpu.mem
        for addr in region.words():
            node = self._node_next
            self._node_next += 8
            entry = self._bucket_entry(addr)
            mem.write_word(node, addr)
            mem.write_word(node + 4, mem.read_word(entry))
            mem.write_word(entry, node)
        return region

    def delete_region(self, region: MonitoredRegion) -> None:
        super().delete_region(region)
        mem: Memory = self.cpu.mem
        for addr in region.words():
            entry = self._bucket_entry(addr)
            # unlink by rebuilding the chain without this node
            chain: List[int] = []
            node = mem.read_word(entry)
            while node:
                if mem.read_word(node) != addr:
                    chain.append(node)
                node = mem.read_word(node + 4)
            mem.write_word(entry, chain[0] if chain else 0)
            for which, node in enumerate(chain):
                nxt = chain[which + 1] if which + 1 < len(chain) else 0
                mem.write_word(node + 4, nxt)
