"""Tests for the §4.2 control-flow verification machinery (%fp shadow
stack, indirect-jump checks) and the §5 read-monitoring extension."""

import pytest

from repro.machine.traps import DebuggeeFault
from repro.minic.codegen import compile_source
from repro.optimizer.pipeline import build_plan
from repro.session import DebugSession, run_uninstrumented

from helpers import notifications

CALLS = """
int helper(int x) {
    int local;
    local = x * 2;
    return local;
}
int main() {
    print(helper(21));
    return 0;
}
"""


class TestFpShadowStack:
    def test_balanced_calls_pass(self):
        asm = compile_source(CALLS)
        _stmts, plan = build_plan(asm, mode="sym")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        session.mrs.enable()
        assert session.run() == 0
        assert session.output == ["42"]
        assert session.cpu.tag_counts.get("fpcheck", 0) > 0
        assert session.cpu.tag_counts.get("jmpcheck", 0) > 0

    def test_fp_corruption_detected(self):
        """A function that clobbers %fp before returning trips the
        shadow-stack verification (ta 0x43 -> DebuggeeFault)."""
        asm = """
        .lang C
        .text
        .proc main
main:
        save %sp, -96, %sp
        mov 0, %i0
        add %fp, 64, %fp       ! corrupt the frame pointer
        ret
        restore
        .endproc
"""
        _stmts, plan = build_plan(asm, mode="sym")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        session.mrs.enable()
        with pytest.raises(DebuggeeFault):
            session.run()

    def test_return_address_corruption_detected(self):
        """A return address pointing outside text fails the indirect
        jump check."""
        asm = """
        .lang C
        .text
        .proc main
main:
        save %sp, -96, %sp
        set 0x30000000, %i7    ! corrupt the return address
        mov 0, %i0
        ret
        restore
        .endproc
"""
        _stmts, plan = build_plan(asm, mode="sym")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        session.mrs.enable()
        with pytest.raises(DebuggeeFault):
            session.run()

    def test_deep_recursion_shadow_stack(self):
        source = """
        int down(int n) {
            int x;
            x = n;
            if (n == 0) return 0;
            return x + down(n - 1);
        }
        int main() { print(down(25)); return 0; }
        """
        asm = compile_source(source)
        _stmts, plan = build_plan(asm, mode="full")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        session.mrs.enable()
        assert session.run() == 0
        assert session.output == ["325"]


class TestReadMonitoring:
    SOURCE = """
    int shared[4];
    int main() {
        int v;
        shared[1] = 10;
        v = shared[1];
        v = v + shared[2];
        shared[3] = v;
        print(v);
        return 0;
    }
    """

    def test_reads_and_writes_distinguished(self):
        session = DebugSession.from_minic(self.SOURCE, strategy="Bitmap",
                                          monitor_reads=True)
        sym = session.symbol("shared")
        session.mrs.enable()
        session.mrs.create_region(sym.address, 16)
        hits = notifications(session.mrs)
        session.run()
        kinds = [(addr - sym.address, is_read)
                 for addr, _size, is_read in hits]
        assert kinds == [(4, False), (4, True), (8, True), (12, False)]

    def test_reads_not_monitored_by_default(self):
        session = DebugSession.from_minic(self.SOURCE, strategy="Bitmap")
        sym = session.symbol("shared")
        session.mrs.enable()
        session.mrs.create_region(sym.address, 16)
        hits = notifications(session.mrs)
        session.run()
        assert all(not is_read for _a, _s, is_read in hits)
        assert session.mrs.hit_count() == 2

    @pytest.mark.parametrize("strategy", ["Bitmap",
                                          "BitmapInlineRegisters",
                                          "Cache", "CacheInline"])
    def test_read_checks_across_strategies(self, strategy):
        session = DebugSession.from_minic(self.SOURCE, strategy=strategy,
                                          monitor_reads=True)
        sym = session.symbol("shared")
        session.mrs.enable()
        session.mrs.create_region(sym.address + 4, 4)
        hits = notifications(session.mrs)
        session.run()
        reads = [h for h in hits if h[2]]
        writes = [h for h in hits if not h[2]]
        assert len(reads) == 1 and len(writes) == 1

    def test_read_of_clobbering_load_base(self):
        """A load that overwrites its own base register must still be
        checked with the correct address (checks go before loads)."""
        asm = """
        .lang C
        .text
        .proc main
main:
        save %sp, -96, %sp
        set G_cell, %l0
        mov 9, %l1
        st %l1, [%l0]
        ld [%l0], %l0       ! destroys the base
        mov %l0, %i0
        ret
        restore
        .endproc
        .data
        .align 8
G_cell: .word 0
        .stabs "cell", global, G_cell, 4
"""
        session = DebugSession.from_asm(asm, strategy="Bitmap",
                                        monitor_reads=True)
        sym = session.program.symtab.lookup("cell")
        session.mrs.enable()
        session.mrs.create_region(sym.address, 4)
        hits = notifications(session.mrs)
        assert session.run() == 9
        assert [h[2] for h in hits] == [False, True]


class TestMonitorLibraryIsolation:
    def test_check_in_progress_flag_restored(self):
        from repro.isa.registers import REGISTER_IDS
        session = DebugSession.from_minic(CALLS, strategy="Bitmap")
        session.mrs.enable()
        session.run()
        assert session.cpu.regs.read(REGISTER_IDS["%g3"]) == 0

    def test_monitor_structures_unreachable_by_program(self):
        """The debuggee's own writes never land in monitor memory."""
        asm = compile_source(CALLS)
        _code, base = run_uninstrumented(asm, record_writes=True)
        for _site, addr, _width in base.cpu.write_trace:
            assert addr < 0xA0000000


class TestDoublewordChecks:
    """§3: "one-word and two-word write instructions ... incur identical
    overhead" — aligned std checks two adjacent bitmap bits at once."""

    ASM = """
        .lang C
        .text
        .proc main
main:
        save %sp, -96, %sp
        set G_pair, %l0
        mov 7, %l2
        mov 9, %l3
        std %l2, [%l0]        ! doubleword write covering two words
        ld [%l0+4], %i0
        ret
        restore
        .endproc
        .data
        .align 8
G_pair: .skip 16
        .stabs "pair", global, G_pair, 16, 4
"""

    @pytest.mark.parametrize("strategy", ["Bitmap",
                                          "BitmapInlineRegisters",
                                          "CacheInline"])
    @pytest.mark.parametrize("offset,expected", [(0, 1), (4, 1), (8, 0)])
    def test_std_hits_either_word(self, strategy, offset, expected):
        session = DebugSession.from_asm(self.ASM, strategy=strategy)
        sym = session.program.symtab.lookup("pair")
        session.mrs.enable()
        session.mrs.create_region(sym.address + offset, 4)
        hits = notifications(session.mrs)
        assert session.run() == 9
        assert session.mrs.hit_count() == expected
        if expected:
            addr, size, is_read = hits[0]
            assert size == 8
