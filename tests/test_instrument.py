"""Tests for write-site discovery, classification, and the rewriter."""

import pytest

from repro.asm.ast import AsmInsn
from repro.asm.parser import parse
from repro.core.runtime_asm import (WRITE_TYPE_BSS, WRITE_TYPE_BSS_VAR,
                                    WRITE_TYPE_HEAP, WRITE_TYPE_STACK)
from repro.instrument.rewriter import instrument_source
from repro.instrument.strategies import STRATEGIES, make_strategy
from repro.instrument.writes import (InstrumentError, check_cc_liveness,
                                     enumerate_write_sites)


def sites_of(source, lang="C"):
    return enumerate_write_sites(parse(source), lang)


class TestSiteEnumeration:
    def test_numbering_in_order(self):
        source = """
        .text
        .proc f
f:      st %o0, [%fp-4]
        ld [%fp-4], %o1
        st %o1, [%fp-8]
        stb %o1, [%fp-9]
        .endproc
"""
        sites = sites_of(source)
        assert [s.site for s in sites] == [0, 1, 2]
        assert [s.width for s in sites] == [4, 4, 1]
        assert all(s.func == "f" for s in sites)

    def test_site_stamped_on_statement(self):
        stmts = parse("\t.text\n\tst %o0, [%fp-4]\n")
        sites = enumerate_write_sites(stmts, "C")
        store = [s for s in stmts if isinstance(s, AsmInsn)][0]
        assert store.site == sites[0].site

    def test_non_orig_stores_skipped(self):
        source = "\t.text\n\t.tag lib\n\tst %o0, [%fp-4]\n"
        assert sites_of(source) == []

    def test_store_in_delay_slot_rejected(self):
        source = """
        .text
        ba somewhere
        st %o0, [%fp-4]
somewhere: nop
"""
        with pytest.raises(InstrumentError):
            sites_of(source)

    def test_reserved_register_store_rejected(self):
        with pytest.raises(InstrumentError):
            sites_of("\t.text\n\tst %g4, [%fp-4]\n")
        with pytest.raises(InstrumentError):
            sites_of("\t.text\n\tst %o0, [%g5]\n")


class TestWriteTypes:
    def test_stack_writes(self):
        sites = sites_of("\t.text\n\tst %o0, [%fp-4]\n\tst %o0, [%sp+64]\n")
        assert all(s.write_type == WRITE_TYPE_STACK for s in sites)

    def test_bss_constant_address(self):
        source = """
        .text
        sethi %hi(g), %l0
        or %l0, %lo(g), %l0
        st %o0, [%l0]
        .data
g:      .word 0
"""
        sites = sites_of(source)
        assert sites[0].write_type == WRITE_TYPE_BSS

    def test_indexed_global_is_heap_in_c(self):
        source = """
        .text
        sethi %hi(a), %l0
        or %l0, %lo(a), %l0
        st %o0, [%l0+%l1]
        .data
a:      .skip 64
"""
        assert sites_of(source, "C")[0].write_type == WRITE_TYPE_HEAP

    def test_indexed_global_is_bssvar_in_fortran(self):
        source = """
        .text
        sethi %hi(a), %l0
        or %l0, %lo(a), %l0
        st %o0, [%l0+%l1]
        .data
a:      .skip 64
"""
        assert sites_of(source, "F")[0].write_type == WRITE_TYPE_BSS_VAR

    def test_pointer_write_is_heap(self):
        sites = sites_of("\t.text\n\tld [%fp-4], %l0\n\tst %o0, [%l0]\n")
        assert sites[0].write_type == WRITE_TYPE_HEAP

    def test_base_invalidated_by_redefinition(self):
        source = """
        .text
        sethi %hi(g), %l0
        or %l0, %lo(g), %l0
        add %l0, %l1, %l0
        st %o0, [%l0]
        .data
g:      .word 0
"""
        assert sites_of(source)[0].write_type == WRITE_TYPE_HEAP

    def test_base_invalidated_across_labels(self):
        source = """
        .text
        sethi %hi(g), %l0
        or %l0, %lo(g), %l0
later:  st %o0, [%l0]
        .data
g:      .word 0
"""
        assert sites_of(source)[0].write_type == WRITE_TYPE_HEAP


class TestCcLiveness:
    def test_safe_patterns_pass(self):
        check_cc_liveness(parse("""
        .text
        st %o0, [%fp-4]
        cmp %o0, 1
        be target
        nop
target: nop
"""))

    def test_store_between_cmp_and_branch_rejected(self):
        with pytest.raises(InstrumentError):
            check_cc_liveness(parse("""
        .text
        cmp %o0, 1
        st %o0, [%fp-4]
        be target
        nop
target: nop
"""))

    def test_store_then_unconditional_is_safe(self):
        check_cc_liveness(parse("""
        .text
        cmp %o0, 1
        st %o0, [%fp-4]
        ba target
        nop
target: nop
"""))


class TestRewriter:
    SOURCE = """
        .lang C
        .text
        .proc main
main:
        save %sp, -96, %sp
        mov 7, %o0
        st %o0, [%fp-4]
        ld [%fp-4], %i0
        ret
        restore
        .endproc
"""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_every_strategy_assembles_and_runs(self, name):
        from repro.asm.loader import load_program
        inst = instrument_source(self.SOURCE, name)
        program = inst.assemble()
        loaded = load_program(program)
        from repro.core.service import MonitoredRegionService
        mrs = MonitoredRegionService(loaded, inst)
        mrs.enable()
        assert loaded.run() == 7

    def test_check_tags_attributed(self):
        inst = instrument_source(self.SOURCE, "Bitmap")
        tags = {s.tag for s in inst.statements if isinstance(s, AsmInsn)}
        assert "check" in tags and "lib" in tags and "orig" in tags

    def test_checks_inserted_after_stores(self):
        inst = instrument_source(self.SOURCE, "Bitmap")
        stmts = [s for s in inst.statements if isinstance(s, AsmInsn)]
        store_pos = next(i for i, s in enumerate(stmts) if s.is_store()
                         and s.tag == "orig")
        assert stmts[store_pos + 1].tag == "check"
        # the disabled-flag test comes first
        assert stmts[store_pos + 1].mnemonic == "orcc"

    def test_library_included_once(self):
        inst = instrument_source(self.SOURCE, "Cache")
        program = inst.assemble()
        assert "__mrs_check_w4" in program.labels
        assert "__mrs_miss_0_w4" in program.labels

    def test_assembled_build_holds_no_parse_tree(self):
        # the server shares assembled builds among sessions, so a build
        # keeps only what a session reads
        inst = instrument_source(self.SOURCE, "Bitmap")
        assert inst.statements
        program = inst.assemble()
        assert inst.statements is None
        assert not hasattr(program, "insn_stmts")

    def test_disabled_flag_skips_check_body(self):
        from repro.asm.loader import load_program
        from repro.core.service import MonitoredRegionService
        inst = instrument_source(self.SOURCE, "Bitmap")
        loaded = load_program(inst.assemble())
        MonitoredRegionService(loaded, inst)  # stays disabled
        loaded.run()
        # only the 3-instruction disabled prologue ran per check
        assert loaded.cpu.tag_counts["check"] == 3
        assert loaded.cpu.tag_counts.get("lib", 0) <= 3  # startup stub

    def test_cache_strategy_rejected_with_plan(self):
        from repro.instrument.plan import OptimizationPlan
        plan = OptimizationPlan()
        plan.fp_push_indices.append(3)
        with pytest.raises(InstrumentError):
            instrument_source(self.SOURCE, "Cache", plan=plan)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("NoSuchStrategy")
