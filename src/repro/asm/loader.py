"""Loader: assembled program -> ready-to-run CPU.

Sets up code space, data image, stack pointer, the startup stub
(``call main; nop; ta TRAP_EXIT``) and the default trap handlers, and
leaves the CPU at the stub: the first run starts the program.
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
from repro.machine.traps import TRAP_EXIT, install_host_handlers

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

    def run(self, max_instructions: int = 400_000_000) -> int:
        """Run on from where the program stands until it exits; see
        :meth:`CPU.run <repro.machine.cpu.CPU.run>`."""
        return self.cpu.run(max_instructions=max_instructions)


def load_program(program: Program,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 costs: CostModel = DEFAULT_COSTS,
                 record_writes: bool = False,
                 fast_path: bool = True) -> LoadedProgram:
    """Instantiate a CPU running *program*, stopped at the startup stub.

    *fast_path* picks the execution engine: compiled basic blocks, or
    (False) the per-step loop the differential tests use as reference.
    """
    code = CodeSpace(base=program.text_base)
    code.append_block(program.insns)

    if "main" not in program.labels:
        raise ValueError("program has no 'main' entry point")
    main_addr = program.labels["main"]

    stub = [CallInsn(main_addr), NopInsn(), TrapInsn(TRAP_EXIT)]
    for insn in stub:
        insn.tag = "lib"
    entry = code.append_block(stub)
    code.image = ProgramImage(code.base, code.insns)

    memory = Memory(heap_base=DEFAULT_HEAP_BASE)
    for addr, value in program.data_words:
        memory.write_word(addr, value)
    if program.data_end > DEFAULT_HEAP_BASE:
        raise ValueError("data section overflows into the heap")

    cpu = CPU(code, memory=memory, cache=DirectMappedCache(cache_bytes),
              costs=costs, fast_path=fast_path)
    cpu.record_writes = record_writes
    cpu.pc = entry
    cpu.npc = entry + 4
    cpu.regs.write(SP, DEFAULT_STACK_TOP - 96)
    cpu.regs.write(FP, DEFAULT_STACK_TOP)
    output = install_host_handlers(cpu)
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
