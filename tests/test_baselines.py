"""Tests for the §1/§3 baseline implementations."""

import pytest

from repro.asm.assembler import assemble
from repro.asm.loader import load_program
from repro.baselines.hardware import (HardwareWatchpoints,
                                      WatchpointCapacityError)
from repro.baselines.hashtable import HashTableMrs, HashTableStrategy
from repro.baselines.trap import DEFAULT_TRAP_COST, TrapBasedDebugger
from repro.baselines.vmprotect import PageProtectionDebugger
from repro.core.regions import RegionError
from repro.machine.cpu import SimulationLimit
from repro.minic.codegen import compile_source
from repro.session import DebugSession, run_uninstrumented

PROGRAM = """
int data[8];
int other;
int main() {
    register int i;
    for (i = 0; i < 8; i = i + 1) {
        data[i] = i * 2;
    }
    other = data[5];
    print(other);
    return 0;
}
"""


#: prints 1 on its first run; a restart on used memory would print 2
BUMP = "int g; int main() { g = g + 1; print(g); return 0; }"
LOOP = ("int g; int main() { int i; "
        "for (i = 0; i < 100; i = i + 1) { g = g + i; } return 0; }")


def asm_and_baseline():
    asm = compile_source(PROGRAM)
    _code, base = run_uninstrumented(asm, record_writes=True)
    return asm, base


class TestTrapBaseline:
    def test_detects_hits(self):
        asm, base = asm_and_baseline()
        debugger = TrapBasedDebugger(asm, trap_cost=1000)
        target = debugger.loaded.program.symtab.lookup("data")
        debugger.watch(target.address + 8, 8)   # data[2], data[3]
        assert debugger.run() == 0
        assert [h[0] for h in debugger.hits] == \
            [target.address + 8, target.address + 12]

    def test_overhead_factor_scales_with_trap_cost(self):
        asm, base = asm_and_baseline()
        cheap = TrapBasedDebugger(asm, trap_cost=100)
        cheap.run()
        dear = TrapBasedDebugger(asm, trap_cost=10_000)
        dear.run()
        assert dear.overhead_factor(base.cpu.cycles) > \
            50 * cheap.overhead_factor(base.cpu.cycles)

    def test_factor_is_enormous_at_default_cost(self):
        asm, base = asm_and_baseline()
        debugger = TrapBasedDebugger(asm)
        debugger.run()
        assert debugger.overhead_factor(base.cpu.cycles) > 10_000


class TestReruns:
    """A second run continues the program, so after its exit it
    executes nothing, and a run cut by its budget resumes."""

    def test_trap_rerun_after_exit(self):
        debugger = TrapBasedDebugger(compile_source(BUMP))
        assert debugger.run() == 0
        cycles = debugger.loaded.cpu.cycles
        assert debugger.run() == 0
        assert debugger.loaded.output == ["1"]
        assert debugger.loaded.cpu.instructions == 23
        assert debugger.loaded.cpu.cycles == cycles

    def test_trap_run_cut_by_its_budget_resumes(self):
        asm = compile_source(LOOP)
        whole = TrapBasedDebugger(asm)
        whole.run()
        cut = TrapBasedDebugger(asm)
        with pytest.raises(SimulationLimit) as info:
            cut.run(max_instructions=50)
        # the limit reports the cycles with the traps charged
        assert info.value.context["instructions"] == 50
        assert info.value.context["cycles"] == cut.loaded.cpu.cycles
        assert cut.loaded.cpu.cycles > 50 * DEFAULT_TRAP_COST
        cut.run()
        assert cut.loaded.cpu.instructions == \
            whole.loaded.cpu.instructions == 1716
        assert cut.loaded.cpu.cycles == whole.loaded.cpu.cycles

    def test_vmprotect_rerun_after_exit(self):
        debugger = PageProtectionDebugger(compile_source(BUMP))
        target = debugger.loaded.program.symtab.lookup("g")
        debugger.watch(target.address, 4)
        debugger.run()
        first = (list(debugger.hits), debugger.false_faults,
                 debugger.loaded.cpu.cycles)
        assert len(first[0]) == 1
        assert debugger.run() == 0
        assert (debugger.hits, debugger.false_faults,
                debugger.loaded.cpu.cycles) == first


class TestVmProtect:
    def test_hits_and_false_faults(self):
        asm, base = asm_and_baseline()
        debugger = PageProtectionDebugger(asm)
        target = debugger.loaded.program.symtab.lookup("other")
        debugger.watch(target.address, 4)
        assert debugger.run() == 0
        assert len(debugger.hits) == 1
        # data[] shares the page: its 8 writes all false-fault
        assert debugger.false_faults == 8

    def test_fault_cost_charged(self):
        asm, base = asm_and_baseline()
        debugger = PageProtectionDebugger(asm, fault_cost=5000)
        target = debugger.loaded.program.symtab.lookup("other")
        debugger.watch(target.address, 4)
        debugger.run()
        overhead = debugger.loaded.cpu.cycles - base.cpu.cycles
        assert overhead >= 9 * 5000   # 1 hit + 8 false faults


class TestHardware:
    def _loaded(self):
        asm = compile_source(PROGRAM)
        return load_program(assemble(asm))

    def test_capacity_by_processor(self):
        loaded = self._loaded()
        sparc = HardwareWatchpoints(loaded, "SPARC")
        assert sparc.capacity == 1
        assert HardwareWatchpoints(self._loaded(), "i386").capacity == 4
        assert HardwareWatchpoints(self._loaded(), "R4000").capacity == 1

    def test_single_word_watch_works(self):
        loaded = self._loaded()
        hardware = HardwareWatchpoints(loaded, "SPARC")
        target = loaded.program.symtab.lookup("other")
        hardware.watch(target.address, 4)
        loaded.run()
        assert len(hardware.hits) == 1

    def test_capacity_exceeded(self):
        loaded = self._loaded()
        hardware = HardwareWatchpoints(loaded, "SPARC")
        target = loaded.program.symtab.lookup("data")
        hardware.watch(target.address, 4)
        with pytest.raises(WatchpointCapacityError):
            hardware.watch(target.address + 4, 4)

    def test_i386_takes_four_words(self):
        loaded = self._loaded()
        hardware = HardwareWatchpoints(loaded, "i386")
        target = loaded.program.symtab.lookup("data")
        for k in range(4):
            hardware.watch(target.address + 4 * k, 4)
        with pytest.raises(WatchpointCapacityError):
            hardware.watch(target.address + 16, 4)

    def test_overlapping_watch_refused(self):
        loaded = self._loaded()
        hardware = HardwareWatchpoints(loaded, "i386")
        target = loaded.program.symtab.lookup("data")
        hardware.watch(target.address, 8)
        with pytest.raises(RegionError):
            hardware.watch(target.address + 4, 4)

    def test_unwatch_frees_capacity(self):
        loaded = self._loaded()
        hardware = HardwareWatchpoints(loaded, "SPARC")
        target = loaded.program.symtab.lookup("data")
        region = hardware.watch(target.address, 4)
        hardware.unwatch(region)
        hardware.watch(target.address + 4, 4)  # now fits

    def test_unknown_processor(self):
        with pytest.raises(ValueError):
            HardwareWatchpoints(self._loaded(), "m68k")


class TestHashTable:
    def test_hits_match_oracle(self):
        asm, base = asm_and_baseline()
        session = DebugSession.from_asm(asm, strategy=HashTableStrategy(),
                                        mrs_class=HashTableMrs)
        target = session.program.symtab.lookup("data")
        session.mrs.enable()
        session.mrs.create_region(target.address + 8, 8)
        session.run()
        expected = [(a, w) for _s, a, w in base.cpu.write_trace
                    if target.address + 8 <= a < target.address + 16]
        assert [(a, s) for a, s, _r in session.mrs.hits] == expected

    def test_delete_unlinks_chain(self):
        asm, base = asm_and_baseline()
        session = DebugSession.from_asm(asm, strategy=HashTableStrategy(),
                                        mrs_class=HashTableMrs)
        target = session.program.symtab.lookup("data")
        session.mrs.enable()
        region = session.mrs.create_region(target.address, 16)
        session.mrs.delete_region(region)
        session.mrs.create_region(target.address + 16, 4)  # data[4]
        session.run()
        assert session.mrs.hit_count() == 1

    def test_costlier_than_bitmap(self):
        asm, base = asm_and_baseline()
        hashed = DebugSession.from_asm(asm, strategy=HashTableStrategy(),
                                       mrs_class=HashTableMrs)
        hashed.mrs.enable()
        hashed.run()
        bitmap = DebugSession.from_asm(asm,
                                       strategy="BitmapInlineRegisters")
        bitmap.mrs.enable()
        bitmap.run()
        assert hashed.cpu.cycles > bitmap.cpu.cycles
