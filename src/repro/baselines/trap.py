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
slowdown on a CPI~1.5 machine.  The shared
:class:`~repro.baselines.watcher.StoreWatcher` checks the regions.
"""

from __future__ import annotations

from repro.asm.assembler import assemble
from repro.asm.loader import load_program
from repro.baselines.watcher import StoreWatcher
from repro.machine.cpu import SimulationLimit

#: cycles per debugger round trip (context switch out + inspect + back)
DEFAULT_TRAP_COST = 130_000


class TrapBasedDebugger(StoreWatcher):
    """Watches stores, paying a trap per retired instruction."""

    def __init__(self, asm_source: str, trap_cost: int = DEFAULT_TRAP_COST):
        super().__init__(load_program(assemble(asm_source)))
        self.trap_cost = trap_cost

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run on until the program exits, charging a trap for every
        instruction retired; raises
        :class:`~repro.machine.cpu.SimulationLimit`, with the traps
        charged, when *max_instructions* run out with the program still
        live."""
        cpu = self.loaded.cpu
        before = cpu.instructions
        try:
            exit_code = super().run(max_instructions)
        except SimulationLimit:
            exit_code = None
        # stop, inspect, resume: one round trip per retired instruction
        cpu.charge(self.trap_cost * (cpu.instructions - before))
        if exit_code is None:
            raise SimulationLimit.at(cpu, max_instructions)
        return exit_code

    def overhead_factor(self, baseline_cycles: int) -> float:
        """Slowdown factor relative to an untraced run."""
        return self.loaded.cpu.cycles / baseline_cycles
