"""Unit tests for the two-pass assembler and loader."""

import pytest

from repro.asm.assembler import (DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE,
                                 assemble)
from repro.asm.ast import AsmSyntaxError
from repro.asm.loader import load_program, run_source
from repro.isa import instructions as I

SIMPLE = """
        .text
        .proc main
main:
        save %sp, -96, %sp
        set counter, %l0
        ld [%l0], %l1
        add %l1, 1, %l1
        st %l1, [%l0]
        mov %l1, %i0
        ret
        restore
        .endproc
        .data
counter: .word 41
table:  .word 1, 2, 3, end_marker
buffer: .skip 10
        .align 8
aligned: .word 0
end_marker: .word 0
"""


class TestLayout:
    def test_text_addresses(self):
        program = assemble(SIMPLE)
        assert program.labels["main"] == DEFAULT_TEXT_BASE
        assert program.text_size() == 4 * len(program.insns)

    def test_data_addresses_sequential(self):
        program = assemble(SIMPLE)
        counter = program.labels["counter"]
        assert counter == DEFAULT_DATA_BASE
        assert program.labels["table"] == counter + 4
        assert program.labels["buffer"] == counter + 20

    def test_skip_rounds_to_words(self):
        program = assemble(SIMPLE)
        # buffer is 10 bytes, rounded to 12
        assert program.labels["aligned"] % 8 == 0

    def test_word_with_symbol_initializer(self):
        program = assemble(SIMPLE)
        table = program.labels["table"]
        words = dict(program.data_words)
        assert words[table] == 1
        assert words[table + 12] == program.labels["end_marker"]

    def test_function_records(self):
        program = assemble(SIMPLE)
        func = program.function_named("main")
        assert func.address == program.labels["main"]
        assert func.end_index > func.start_index

    def test_set_resolves_full_address(self):
        code, out, cpu = run_source(SIMPLE)
        assert code == 42

    def test_data_image_loaded(self):
        program = assemble(SIMPLE)
        loaded = load_program(program)
        assert loaded.cpu.mem.read_word(program.labels["counter"]) == 41

    def test_loaded_cpu_stands_at_the_entry_stub(self):
        loaded = load_program(assemble(SIMPLE))
        assert loaded.cpu.pc == loaded.entry
        assert loaded.cpu.npc == loaded.entry + 4

    def test_run_after_exit_executes_nothing(self):
        loaded = load_program(assemble(SIMPLE))
        assert loaded.run() == 42
        instructions = loaded.cpu.instructions
        # not a restart on the used memory (counter is 42 now)
        assert loaded.run() == 42
        loaded.cpu.run_steps(5)
        assert loaded.cpu.instructions == instructions


class TestBranches:
    def test_forward_and_backward_targets(self):
        source = """
        .text
        .proc main
main:
        save %sp, -96, %sp
        mov 3, %l0
        mov 0, %l1
.loop:
        add %l1, %l0, %l1
        sub %l0, 1, %l0
        tst %l0
        bne .loop
        nop
        mov %l1, %i0
        ret
        restore
        .endproc
"""
        code, _, _ = run_source(source)
        assert code == 6

    def test_undefined_symbol_raises(self):
        with pytest.raises(AsmSyntaxError):
            assemble("\t.text\n\tcall nowhere\n\tnop\n")

    def test_branch_targets_are_absolute(self):
        source = """
        .text
target: nop
        ba target
        nop
"""
        program = assemble(source)
        branch = [i for i in program.insns
                  if isinstance(i, I.BranchInsn)][0]
        assert branch.target == program.labels["target"]


class TestStabs:
    SOURCE = """
        .text
        .proc f
f:
        save %sp, -112, %sp
        .stabs "x", local, -4, 4
        .stabs "arr", local, -44, 40, 4
        .stabs "p", param, -48, 4
        .stabs "r", register, %l0, 4
        ret
        restore
        .endproc
        .data
gvar:   .skip 8
        .stabs "g", global, gvar, 4
        .stabs "g2", global, gvar+4, 4
"""

    def test_local_and_param_entries(self):
        program = assemble(self.SOURCE)
        x = program.symtab.lookup("x", "f")
        assert x.kind == "local" and x.offset == -4 and x.size == 4
        p = program.symtab.lookup("p", "f")
        assert p.kind == "param"

    def test_array_entry_with_elem(self):
        program = assemble(self.SOURCE)
        arr = program.symtab.lookup("arr", "f")
        assert arr.size == 40 and arr.elem == 4

    def test_register_entry(self):
        program = assemble(self.SOURCE)
        r = program.symtab.lookup("r", "f")
        assert r.kind == "register" and r.reg is not None

    def test_global_entries_resolved(self):
        program = assemble(self.SOURCE)
        g = program.symtab.lookup("g")
        g2 = program.symtab.lookup("g2")
        assert g.address == program.labels["gvar"]
        assert g2.address == g.address + 4

    def test_scope_resolution_prefers_local(self):
        source = self.SOURCE.replace('.stabs "x", local',
                                     '.stabs "g", local')
        program = assemble(source)
        entry = program.symtab.lookup("g", "f")
        assert entry.kind == "local"
        entry = program.symtab.lookup("g")
        assert entry.kind == "global"

    def test_covering_lookups(self):
        program = assemble(self.SOURCE)
        arr = program.symtab.local_at("f", -24)
        assert arr is not None and arr.name == "arr"
        assert program.symtab.local_at("f", -200) is None
        g = program.symtab.global_at(program.labels["gvar"])
        assert g is not None and g.name == "g"


class TestErrors:
    def test_instruction_in_data_section(self):
        with pytest.raises(AsmSyntaxError):
            assemble("\t.data\n\tnop\n")

    def test_unknown_directive(self):
        with pytest.raises(AsmSyntaxError):
            assemble("\t.frobnicate 1\n")

    def test_missing_entry_point(self):
        program = assemble("\t.text\nf:\tnop\n")
        with pytest.raises(ValueError):
            load_program(program)

    def test_alu_with_absolute_symbol_rejected(self):
        with pytest.raises(AsmSyntaxError):
            assemble("\t.text\n\tadd %o0, counter, %o0\n"
                     "\t.data\ncounter: .word 0\n")
