"""Unit tests for memory, cache, CPU accounting and traps."""

import pytest

from repro.asm.loader import run_source
from repro.machine.cache import DirectMappedCache, LINE_BYTES
from repro.machine.costs import CostModel
from repro.machine.cpu import CPU, CodeSpace, SimulationError, \
    SimulationLimit
from repro.machine.memory import Memory, MemoryFault


class TestMemory:
    def test_zero_fill(self):
        mem = Memory()
        assert mem.read_word(0x1000) == 0
        assert mem.read_byte(0x7FFFFFF) == 0

    def test_word_roundtrip(self):
        mem = Memory()
        mem.write_word(0x2000, 0xDEADBEEF)
        assert mem.read_word(0x2000) == 0xDEADBEEF

    def test_misaligned_word_raises(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.read_word(0x2002)
        with pytest.raises(MemoryFault):
            mem.write_word(0x2001, 1)

    def test_big_endian_bytes(self):
        mem = Memory()
        mem.write_word(0x100, 0x11223344)
        assert [mem.read_byte(0x100 + i) for i in range(4)] == \
            [0x11, 0x22, 0x33, 0x44]

    def test_byte_write_updates_word(self):
        mem = Memory()
        mem.write_byte(0x103, 0xFF)
        assert mem.read_word(0x100) == 0x000000FF

    def test_bulk_helpers(self):
        mem = Memory()
        mem.write_words(0x200, [1, 2, 3])
        assert mem.read_words(0x200, 3) == [1, 2, 3]
        mem.write_bytes(0x300, b"\x01\x02")
        assert mem.read_bytes(0x300, 2) == b"\x01\x02"

    def test_sbrk_advances_and_aligns(self):
        mem = Memory(heap_base=0x20000000)
        first = mem.sbrk(10)
        second = mem.sbrk(4)
        assert first == 0x20000000
        assert second == 0x20000010  # 10 rounded up to 16
        assert second % 8 == 0

    def test_sparse_far_addresses_cheap(self):
        mem = Memory()
        mem.write_word(0xA0000000, 7)  # segment-table distance
        assert mem.read_word(0xA0000000) == 7
        assert len(mem.words) == 1


class TestCache:
    def test_miss_then_hit(self):
        cache = DirectMappedCache(1024)
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True
        assert cache.access(0x100 + LINE_BYTES - 1) is True  # same line

    def test_conflict_eviction(self):
        cache = DirectMappedCache(1024)
        conflicting = 0x100 + 1024  # same index, different tag
        cache.access(0x100)
        cache.access(conflicting)
        assert cache.access(0x100) is False  # evicted

    def test_size_validation(self):
        with pytest.raises(ValueError):
            DirectMappedCache(1000)  # not a power of two
        with pytest.raises(ValueError):
            DirectMappedCache(48)

    def test_reset(self):
        cache = DirectMappedCache(1024)
        cache.access(0)
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.access(0) is False


class TestCodeSpace:
    def test_addressing(self):
        code = CodeSpace(base=0x10000)
        from repro.isa.instructions import NopInsn
        addr = code.append_block([NopInsn(), NopInsn()])
        assert addr == 0x10000
        assert code.limit == 0x10008
        assert code.index_of(0x10004) == 1

    def test_bad_fetch_raises(self):
        code = CodeSpace(base=0x10000)
        cpu = CPU(code)
        with pytest.raises(SimulationError):
            cpu.step()

    def test_patch_returns_displaced(self):
        from repro.isa.instructions import NopInsn, TrapInsn
        code = CodeSpace()
        code.append_block([NopInsn()])
        old = code.patch(code.base, TrapInsn(0))
        assert isinstance(old, NopInsn)
        assert isinstance(code.at(code.base), TrapInsn)


class TestAccounting:
    SOURCE = """
        .text
        .proc main
main:
        save %sp, -96, %sp
        set buf, %l0
        mov 5, %l1
        st %l1, [%l0]
        ld [%l0], %l2
        mov 0, %i0
        ret
        restore
        .endproc
        .data
buf:    .skip 8
"""

    def test_instruction_and_cycle_counts(self):
        _, _, cpu = run_source(self.SOURCE)
        assert cpu.instructions > 0
        assert cpu.cycles > cpu.instructions  # loads/stores cost extra
        assert cpu.loads == 1
        assert cpu.stores == 1

    def test_tag_attribution_covers_all_cycles(self):
        _, _, cpu = run_source(self.SOURCE)
        assert sum(cpu.tag_cycles.values()) == cpu.cycles
        assert sum(cpu.tag_counts.values()) == cpu.instructions

    def test_cost_model_load_extra(self):
        cheap = CostModel(load_extra=1, dmiss_penalty=0, imiss_penalty=0)
        dear = CostModel(load_extra=7, dmiss_penalty=0, imiss_penalty=0)
        _, _, cpu_cheap = run_source(self.SOURCE, costs=cheap)
        _, _, cpu_dear = run_source(self.SOURCE, costs=dear)
        assert cpu_dear.cycles - cpu_cheap.cycles == 6  # one load

    def test_instruction_budget(self):
        source = """
        .text
        .proc main
main:
        save %sp, -96, %sp
loop:   ba loop
        nop
        .endproc
"""
        with pytest.raises(SimulationLimit):
            run_source(source, max_instructions=1000)

    def test_write_trace_records_orig_only(self):
        _, _, cpu = run_source(self.SOURCE, record_writes=True)
        assert len(cpu.write_trace) == 1
        _site, addr, width = cpu.write_trace[0]
        assert width == 4

    def test_cost_model_copy(self):
        costs = CostModel()
        variant = costs.copy(dmiss_penalty=20)
        assert variant.dmiss_penalty == 20
        assert variant.load_extra == costs.load_extra
        assert costs.dmiss_penalty != 20


class TestTraps:
    def test_unhandled_trap_raises(self):
        source = """
        .text
        .proc main
main:
        save %sp, -96, %sp
        ta 0x77
        .endproc
"""
        with pytest.raises(SimulationError):
            run_source(source)

    def test_exit_code(self):
        source = """
        .text
        .proc main
main:
        save %sp, -96, %sp
        mov 42, %i0
        ret
        restore
        .endproc
"""
        code, _, _ = run_source(source)
        assert code == 42

    def test_sbrk_trap(self):
        source = """
        .text
        .proc main
main:
        save %sp, -96, %sp
        mov 64, %o0
        ta 3
        mov 100, %l1
        st %l1, [%o0]
        ld [%o0], %o0
        ta 1
        mov 0, %i0
        ret
        restore
        .endproc
"""
        code, out, _ = run_source(source)
        assert out == ["100"]

    def test_print_char(self):
        source = """
        .text
        .proc main
main:
        save %sp, -96, %sp
        mov 72, %o0
        ta 2
        mov 105, %o0
        ta 2
        mov 0, %i0
        ret
        restore
        .endproc
"""
        _, out, _ = run_source(source)
        assert "".join(out) == "Hi"
