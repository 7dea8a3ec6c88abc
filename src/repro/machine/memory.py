"""Sparse word-addressed data memory.

Memory is a dictionary from word index to 32-bit value; untouched words
read as zero.  This makes multi-megabyte sparse structures (the segment
table of the monitored region service spans 32 MB of address space) free
until touched, exactly like lazily allocated pages.

Memory is storage only.  Code that watches stores from outside the
program (the §1 debugger models, the time-travel last-write scan) does
so through the CPU's one store hook, :attr:`repro.machine.cpu.CPU.
store_hook`.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import ReproError
from repro.faults import MEMORY_WRITE

WORD_MASK = 0xFFFFFFFF


class MemoryFault(ReproError):
    """Raised on misaligned access."""


class Memory:
    """Sparse 32-bit byte-addressable memory (word-granular storage)."""

    __slots__ = ("words", "brk", "faults")

    def __init__(self, heap_base: int = 0x20008000):
        self.words: Dict[int, int] = {}
        #: program break for the ``sbrk`` trap.
        self.brk = heap_base
        #: optional :class:`repro.faults.FaultPlan`; when armed, every
        #: word/byte write is a ``memory.write`` injection point.
        self.faults = None

    # -- word access --------------------------------------------------

    def read_word(self, addr: int) -> int:
        if addr & 3:
            raise MemoryFault("misaligned word read at 0x%x" % addr,
                              addr=addr)
        return self.words.get(addr >> 2, 0)

    def write_word(self, addr: int, value: int) -> None:
        if addr & 3:
            raise MemoryFault("misaligned word write at 0x%x" % addr,
                              addr=addr)
        if self.faults is not None:
            self.faults.trip(MEMORY_WRITE, addr=addr, width=4)
        self.words[addr >> 2] = value & WORD_MASK

    # -- byte access ---------------------------------------------------

    def read_byte(self, addr: int) -> int:
        word = self.words.get(addr >> 2, 0)
        shift = (3 - (addr & 3)) * 8  # big-endian, like SPARC
        return (word >> shift) & 0xFF

    def write_byte(self, addr: int, value: int) -> None:
        if self.faults is not None:
            self.faults.trip(MEMORY_WRITE, addr=addr, width=1)
        index = addr >> 2
        shift = (3 - (addr & 3)) * 8
        word = self.words.get(index, 0)
        word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self.words[index] = word

    # -- bulk helpers (host-side, not charged cycles) -------------------

    def write_words(self, addr: int, values: Iterable[int]) -> None:
        if addr & 3:
            raise MemoryFault("misaligned block write at 0x%x" % addr)
        index = addr >> 2
        for offset, value in enumerate(values):
            self.words[index + offset] = value & WORD_MASK

    def read_words(self, addr: int, count: int) -> list:
        if addr & 3:
            raise MemoryFault("misaligned block read at 0x%x" % addr)
        index = addr >> 2
        return [self.words.get(index + i, 0) for i in range(count)]

    def write_bytes(self, addr: int, data: bytes) -> None:
        for offset, byte in enumerate(data):
            self.write_byte(addr + offset, byte)

    def read_bytes(self, addr: int, count: int) -> bytes:
        return bytes(self.read_byte(addr + i) for i in range(count))

    # -- heap ------------------------------------------------------------

    def sbrk(self, size: int) -> int:
        """Grow the program break by *size* bytes, returning the old break."""
        old = self.brk
        self.brk = (self.brk + size + 7) & ~7
        return old
