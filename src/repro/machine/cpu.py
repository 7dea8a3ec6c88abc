"""CPU for the SPARC-like target: delayed control transfer, register
windows, condition codes, software traps, and cycle accounting.

The CPU executes decoded :class:`~repro.isa.instructions.Instruction`
objects held in a :class:`CodeSpace`.  Instruction fetch and data access
both go through a direct-mapped combined cache, so instrumentation-induced
code growth shows up as cache misses — the effect §3.3.1 of the paper
measures with its nop-insertion experiment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.isa.instructions import Instruction
from repro.isa.registers import RegisterFile
from repro.machine.cache import DirectMappedCache
from repro.machine.costs import CostModel, DEFAULT_COSTS
from repro.machine.memory import Memory
from repro.machine.state import ProgramImage

WORD_MASK = 0xFFFFFFFF

#: block-cache probe miss sentinel (cache values may legitimately be None)
_NO_BLOCK = object()


class SimulationError(ReproError):
    """Raised on invalid execution (bad pc, unknown trap, ...)."""


class SimulationLimit(SimulationError):
    """An instruction budget ran out with the program still live.

    This is *resumable*, not fatal: the CPU state is left intact at the
    instruction boundary where the budget ran out, so running again
    continues the simulation.  :attr:`context` records the budget kind
    (``"instructions"``), pc, cycles, instructions and traps taken.
    """

    @classmethod
    def at(cls, cpu: "CPU", budget: int) -> "SimulationLimit":
        """The limit *cpu* reached after a *budget* of instructions:
        the one constructor every budget-bounded run raises through."""
        return cls("exceeded %d instructions budget" % budget,
                   budget="instructions", pc=cpu.pc, cycles=cpu.cycles,
                   instructions=cpu.instructions, traps=cpu.traps_taken)

    @property
    def budget(self) -> Optional[str]:
        """Which budget ran out (always ``"instructions"``)."""
        return self.context.get("budget")


class CodeSpace:
    """Instruction memory: a growable array of decoded instructions.

    Dynamic code patching (Kessler-style write-check patches, §4) replaces
    single entries with :meth:`patch` and appends patch bodies with
    :meth:`append_block`.

    :attr:`version` counts mutations; the basic-block fast path
    (:mod:`repro.machine.blocks`) caches compiled blocks against it and
    flushes whenever it changes.  Anything that mutates :attr:`insns`
    outside this class (e.g. checkpoint restore) must bump it.

    :attr:`image` is the code as loaded (:func:`~repro.asm.loader.
    load_program` sets it); exported states and the replay state digest
    describe code as the slots that differ from it.  A code space built
    by hand has an empty image, so every slot counts as a patch.
    """

    __slots__ = ("base", "insns", "version", "image")

    def __init__(self, base: int = 0x10000):
        self.base = base
        self.insns: List[Optional[Instruction]] = []
        self.version = 0
        self.image = ProgramImage(base, ())

    @property
    def limit(self) -> int:
        return self.base + 4 * len(self.insns)

    def index_of(self, addr: int) -> int:
        if addr < self.base or addr >= self.limit or addr & 3:
            raise SimulationError("invalid code address 0x%x" % addr)
        return (addr - self.base) >> 2

    def fetch(self, addr: int) -> Instruction:
        insn = self.insns[self.index_of(addr)]
        if insn is None:
            raise SimulationError("fetch from a code hole at 0x%x" % addr)
        return insn

    def at(self, addr: int) -> Optional[Instruction]:
        return self.insns[self.index_of(addr)]

    def patch(self, addr: int, insn: Instruction) -> Instruction:
        """Replace the instruction at *addr*, returning the displaced one."""
        index = self.index_of(addr)
        old = self.insns[index]
        self.insns[index] = insn
        self.version += 1
        return old

    def append_block(self, insns: List[Instruction]) -> int:
        """Append *insns* to code memory, returning the block's address."""
        addr = self.limit
        self.insns.extend(insns)
        self.version += 1
        return addr


class CPU:
    """Executes one simulated program to completion."""

    def __init__(self, code: CodeSpace, memory: Memory = None,
                 cache: DirectMappedCache = None,
                 costs: CostModel = DEFAULT_COSTS,
                 fast_path: bool = True):
        self.code = code
        self.mem = memory if memory is not None else Memory()
        self.cache = cache if cache is not None else DirectMappedCache()
        self.costs = costs
        self.regs = RegisterFile()
        self.pc = code.base
        self.npc = code.base + 4
        self.icc_n = self.icc_z = self.icc_v = self.icc_c = 0
        self.running = False
        self.exit_code: Optional[int] = None
        self.cycles = 0
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.traps_taken = 0
        #: cycles and instruction counts attributed per instruction tag.
        self.tag_cycles: Dict[str, int] = {}
        self.tag_counts: Dict[str, int] = {}
        self.trap_handlers: Dict[int, Callable[["CPU"], None]] = {}
        #: when set, ``(site, addr, width)`` per original-program store.
        self.record_writes = False
        self.write_trace: List[Tuple[Optional[int], int, int]] = []
        #: peak register-window depth (diagnostics).
        self.max_window_depth = 1
        self._window_depth = 1
        # pending control transfer set by branch instructions
        self._branch_target: Optional[int] = None
        self._annul_slot = False
        self._skip_slot = False
        #: run whole basic blocks through compiled handlers when no
        #: per-instruction instrumentation boundary is armed
        #: (repro.machine.blocks); False keeps the per-step loop, the
        #: reference the differential tests compare against.
        self.fast_path = fast_path
        self._blocks = None

    # -- condition codes -----------------------------------------------

    def set_icc(self, n: int, z: int, v: int, c: int) -> None:
        self.icc_n = n
        self.icc_z = z
        self.icc_v = v
        self.icc_c = c

    # -- cycle accounting -------------------------------------------------

    def charge(self, cycles: int) -> None:
        self.cycles += cycles

    # -- data access -------------------------------------------------------

    def load_word(self, addr: int) -> int:
        self.loads += 1
        self.cycles += self.costs.load_extra
        if not self.cache.access(addr):
            self.cycles += self.costs.dmiss_penalty
        return self.mem.read_word(addr)

    def load_byte(self, addr: int) -> int:
        self.loads += 1
        self.cycles += self.costs.load_extra
        if not self.cache.access(addr):
            self.cycles += self.costs.dmiss_penalty
        return self.mem.read_byte(addr)

    def _store_common(self, addr: int, width: int, insn: Instruction) -> None:
        self.stores += 1
        self.cycles += self.costs.store_extra
        if not self.cache.access(addr):
            self.cycles += self.costs.dmiss_penalty
        mem = self.mem
        if mem.fault_handler is not None and mem.is_protected(addr):
            mem.fault_handler(addr, width)
        if self.record_writes and insn.tag == "orig":
            self.write_trace.append((insn.site, addr, width))

    def store_word(self, addr: int, value: int, insn: Instruction) -> None:
        self._store_common(addr, 4, insn)
        self.mem.write_word(addr, value)

    def store_byte(self, addr: int, value: int, insn: Instruction) -> None:
        self._store_common(addr, 1, insn)
        self.mem.write_byte(addr, value)

    # -- control transfer ---------------------------------------------------

    def branch_taken(self, target: int, annul_slot: bool) -> None:
        self._branch_target = target
        self._annul_slot = annul_slot

    def branch_untaken_annul(self) -> None:
        self._skip_slot = True

    def notify_window(self, delta: int) -> None:
        self._window_depth += delta
        if self._window_depth > self.max_window_depth:
            self.max_window_depth = self._window_depth

    # -- traps -----------------------------------------------------------

    def trap(self, code: int) -> None:
        handler = self.trap_handlers.get(code)
        if handler is None:
            raise SimulationError("unhandled trap 0x%x at pc 0x%x"
                                  % (code, self.pc), trap=code, pc=self.pc)
        self.traps_taken += 1
        self.cycles += self.costs.trap_base
        handler(self)

    # -- main loop ---------------------------------------------------------

    def step(self) -> None:
        pc = self.pc
        insn = self.code.fetch(pc)
        before = self.cycles
        self.cycles += 1
        if not self.cache.access(pc):
            self.cycles += self.costs.imiss_penalty
        insn.execute(self)
        self.instructions += 1
        tag = insn.tag
        self.tag_cycles[tag] = self.tag_cycles.get(tag, 0) + \
            (self.cycles - before)
        self.tag_counts[tag] = self.tag_counts.get(tag, 0) + 1
        if self._branch_target is not None:
            if self._annul_slot:
                self.pc = self._branch_target
                self.npc = self._branch_target + 4
            else:
                self.pc = self.npc
                self.npc = self._branch_target
            self._branch_target = None
            self._annul_slot = False
        elif self._skip_slot:
            self.pc = self.npc + 4
            self.npc = self.npc + 8
            self._skip_slot = False
        else:
            self.pc = self.npc
            self.npc += 4

    def run(self, start: Optional[int] = None,
            max_instructions: int = 400_000_000) -> int:
        """Run until the program exits; return the exit code.

        Raises a resumable :class:`SimulationLimit` when
        *max_instructions* have retired with the program still live;
        this CPU remains runnable from where it stopped.  The budget is
        checked after a retire, so even an empty one retires an
        instruction (a zero quota still progresses).
        """
        if start is not None:
            self.pc = start
            self.npc = start + 4
        self.running = True
        self._run_until(self.instructions + max(1, max_instructions))
        if self.running:
            raise SimulationLimit.at(self, max_instructions)
        return self.exit_code if self.exit_code is not None else 0

    def run_steps(self, count: int) -> None:
        """Execute exactly *count* instructions (or until the program
        stops), using the fast path for full blocks that fit.

        This is the single-stepping entry point used by the debugger and
        the recorder's keyframe-stride chunks: because blocks are guarded
        by :attr:`BasicBlock.max_retire`, the loop never overshoots, and
        the final instruction boundary is bit-exact with *count* calls
        to :meth:`step`.
        """
        self.running = True
        self._run_until(self.instructions + count)

    def _run_until(self, limit) -> None:
        """Run until the program stops or *limit* instructions have
        retired.  On the fast path this is the block-dispatch loop:
        compiled blocks where possible, exact single steps everywhere
        else (armed fault handlers, pending delayed branches, blocks
        that could retire past *limit*, trap sites)."""
        step = self.step
        if not self.fast_path:
            while self.running and self.instructions < limit:
                step()
            return
        blocks = self.block_cache()
        cache = blocks.blocks
        cache_get = cache.get
        lookup = blocks.lookup
        code = self.code
        mem = self.mem
        while self.running and self.instructions < limit:
            if self.npc == self.pc + 4 and mem.fault_handler is None:
                if blocks.version != code.version:
                    cache.clear()
                    blocks.version = code.version
                    blocks.invalidations += 1
                block = cache_get(self.pc, _NO_BLOCK)
                if block is _NO_BLOCK:
                    block = lookup(self.pc)
                if block is not None and \
                        self.instructions + block.max_retire <= limit:
                    block.fn(self)
                    continue
            step()

    def block_cache(self):
        """The per-CPU compiled-block cache (created on first use)."""
        if self._blocks is None:
            from repro.machine.blocks import BlockCache
            self._blocks = BlockCache(self)
        return self._blocks

    def fast_stats(self) -> Dict[str, int]:
        """Fast-path telemetry: cached blocks, decodes, runs, retires."""
        return self.block_cache().stats()

    def stop(self, exit_code: int = 0) -> None:
        self.running = False
        self.exit_code = exit_code
