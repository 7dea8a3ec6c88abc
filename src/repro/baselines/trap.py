"""Trap-per-instruction baseline: the gdb/dbx model (§1).

"Both systems conservatively assume all instructions are unsafe.  The
possible side-effects of each instruction are checked through
dynamically inserted trap instructions.  Due to context switch and trap
costs, this approach incurs very high overhead.  We measured the
overhead of dbx to be a factor of 85,000, independent of the program
being debugged."

The model: every instruction traps into the debugger process (two
context switches plus a ptrace-style register/memory inspection), and
the debugger checks the regions itself.  ``trap_cost`` is the cycles
one such round trip costs; the default reproduces dbx's ~85,000x
slowdown on a CPI~1.5 machine.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.asm.assembler import assemble
from repro.asm.loader import load_program
from repro.core.regions import MonitoredRegion, RegionSet
from repro.machine.cpu import SimulationLimit

#: cycles per debugger round trip (context switch out + inspect + back)
DEFAULT_TRAP_COST = 130_000


class TrapBasedDebugger:
    """Single-steps the debuggee, paying a trap per instruction."""

    def __init__(self, asm_source: str, trap_cost: int = DEFAULT_TRAP_COST):
        self.trap_cost = trap_cost
        program = assemble(asm_source)
        self.loaded = load_program(program, record_writes=True)
        self.regions = RegionSet()
        self.hits: List[Tuple[int, int, bool]] = []
        self.callbacks: List[Callable[[int, int, bool], None]] = []

    def watch(self, start: int, size: int) -> MonitoredRegion:
        region = MonitoredRegion(start, size)
        self.regions.add(region)
        return region

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run to completion, trapping on every instruction; raises
        :class:`~repro.machine.cpu.SimulationLimit` when
        *max_instructions* run out with the program still live."""
        cpu = self.loaded.cpu
        cpu.pc = self.loaded.entry
        cpu.npc = self.loaded.entry + 4
        cpu.running = True
        seen_writes = 0
        limit = cpu.instructions + max(1, max_instructions)
        while cpu.running and cpu.instructions < limit:
            cpu.charge(self.trap_cost)  # stop, inspect, resume
            cpu.step()
            # the debugger inspects any memory effect of the instruction
            while seen_writes < len(cpu.write_trace):
                _site, addr, width = cpu.write_trace[seen_writes]
                seen_writes += 1
                if self.regions.hit(addr, width):
                    self.hits.append((addr, width, False))
                    for callback in self.callbacks:
                        callback(addr, width, False)
        if cpu.running:
            raise SimulationLimit.at(cpu, max_instructions)
        return cpu.exit_code if cpu.exit_code is not None else 0

    def overhead_factor(self, baseline_cycles: int) -> float:
        """Slowdown factor relative to an untraced run."""
        return self.loaded.cpu.cycles / baseline_cycles
