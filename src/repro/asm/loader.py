"""Loader: assembled program -> ready-to-run CPU.

Sets up code space, data image, stack pointer, the startup stub
(``call main; nop; ta TRAP_EXIT``) and the default trap handlers.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.asm.assembler import Program, assemble
from repro.isa.instructions import CallInsn, NopInsn, TrapInsn
from repro.isa.registers import FP, SP
from repro.machine.cache import DEFAULT_CACHE_BYTES, DirectMappedCache
from repro.machine.costs import CostModel, DEFAULT_COSTS
from repro.machine.cpu import CPU, CodeSpace
from repro.machine.memory import Memory
from repro.machine.state import ProgramImage
from repro.machine.traps import TRAP_EXIT, install_default_handlers

DEFAULT_STACK_TOP = 0x7F00C000
DEFAULT_HEAP_BASE = 0x20008000


class LoadedProgram:
    """A CPU wired to a program, plus its captured output."""

    def __init__(self, cpu: CPU, program: Program, output: List[str],
                 entry: int):
        self.cpu = cpu
        self.program = program
        self.output = output
        self.entry = entry

    def run(self, max_instructions: int = 400_000_000,
            watchdog=None, resume: bool = False) -> int:
        """Run from the entry stub; with ``resume=True``, continue from
        the current pc instead (e.g. after a watchdog
        :class:`~repro.machine.cpu.SimulationLimit`)."""
        return self.cpu.run(start=None if resume else self.entry,
                            max_instructions=max_instructions,
                            watchdog=watchdog)

def load_program(program: Program,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 costs: CostModel = DEFAULT_COSTS,
                 stack_top: int = DEFAULT_STACK_TOP,
                 heap_base: int = DEFAULT_HEAP_BASE,
                 record_writes: bool = False,
                 entry_name: str = "main",
                 fast_path: bool = True) -> LoadedProgram:
    """Instantiate a CPU running *program*, stopped at the startup stub.

    *fast_path* picks the execution engine: compiled basic blocks, or
    (False) the per-step loop the differential tests use as reference.
    """
    code = CodeSpace(base=program.text_base)
    code.insns.extend(program.insns)

    if entry_name not in program.labels:
        raise ValueError("program has no %r entry point" % entry_name)
    main_addr = program.labels[entry_name]

    stub = [CallInsn(main_addr), NopInsn(), TrapInsn(TRAP_EXIT)]
    for insn in stub:
        insn.tag = "lib"
    entry = code.append_block(stub)
    code.image = ProgramImage(code.base, code.insns)

    memory = Memory(heap_base=heap_base)
    for addr, value in program.data_words:
        memory.write_word(addr, value)
    if program.data_end > heap_base:
        raise ValueError("data section overflows into the heap")

    cpu = CPU(code, memory=memory, cache=DirectMappedCache(cache_bytes),
              costs=costs, fast_path=fast_path)
    cpu.record_writes = record_writes
    cpu.regs.write(SP, stack_top - 96)
    cpu.regs.write(FP, stack_top)
    output = install_default_handlers(cpu)
    return LoadedProgram(cpu, program, output, entry)


def run_source(source: str, max_instructions: int = 400_000_000,
               record_writes: bool = False,
               costs: CostModel = DEFAULT_COSTS
               ) -> Tuple[int, List[str], CPU]:
    """Assemble, load and run assembly *source*.

    Returns ``(exit_code, output, cpu)`` — the quick path used by unit
    tests and the quickstart example.
    """
    program = assemble(source)
    loaded = load_program(program, record_writes=record_writes, costs=costs)
    exit_code = loaded.run(max_instructions=max_instructions)
    return exit_code, loaded.output, loaded.cpu
