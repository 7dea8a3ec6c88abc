"""The central soundness property (DESIGN.md §5): for any program, any
strategy, and any set of monitored regions, the notifications reported
by the instrumented run equal the oracle — the uninstrumented write
trace intersected with the regions — including under check elimination
with dynamic patch re-insertion."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (ALL_STRATEGIES, check_soundness, notifications,
                     oracle_hits)
from repro.minic.codegen import compile_source
from repro.optimizer.pipeline import build_plan
from repro.session import DebugSession, run_uninstrumented

#: a program exercising every write class: scalar globals, arrays with
#: monotonic loops, struct fields via pointers, heap writes, byte
#: writes, recursion (stack writes), and aliasing
RICH_PROGRAM = """
struct node { int value; int weight; };

int table[24];
int accum;
struct node boxes[4];
int *cursor;

int fill(int *dest, int n, int seed) {
    register int i;
    for (i = 0; i < n; i = i + 1) {
        dest[i] = seed + i * 3;
    }
    return n;
}

int sum_tree(int depth, int bias) {
    int left;
    if (depth == 0) {
        return bias;
    }
    left = sum_tree(depth - 1, bias + 1);
    return left + sum_tree(depth - 1, bias);
}

int main() {
    register int i;
    int *heap;
    fill(table, 24, 100);
    cursor = &accum;
    *cursor = 5;
    for (i = 0; i < 4; i = i + 1) {
        boxes[i].value = table[i];
        boxes[i].weight = i;
    }
    heap = sbrk(32);
    fill(heap, 8, 7);
    accum = accum + sum_tree(4, 0);
    print(accum);
    print(table[23]);
    print(boxes[2].weight);
    return 0;
}
"""


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestAllStrategies:
    def test_global_scalar(self, strategy):
        check_soundness(RICH_PROGRAM, strategy, [("accum", 0, 4)])

    def test_array_slice(self, strategy):
        check_soundness(RICH_PROGRAM, strategy, [("table", 40, 24)])

    def test_struct_field(self, strategy):
        check_soundness(RICH_PROGRAM, strategy, [("boxes", 12, 4)])

    def test_multiple_regions(self, strategy):
        check_soundness(RICH_PROGRAM, strategy,
                        [("accum", 0, 4), ("table", 0, 8),
                         ("boxes", 8, 8)])

    def test_no_regions_no_hits(self, strategy):
        session = check_soundness(RICH_PROGRAM, strategy, [])
        assert session.mrs.hit_count() == 0


def _plan_factory(mode):
    def factory(asm):
        _stmts, plan = build_plan(asm, mode=mode)
        return plan
    return factory


class TestOptimizedSoundness:
    """Elimination must never lose hits: the debugger-level protocol
    (PreMonitor before CreateMonitoredRegion) is exercised here."""

    @pytest.mark.parametrize("mode", ["sym", "full", "ipa"])
    def test_watched_symbol_with_elimination(self, mode):
        asm = compile_source(RICH_PROGRAM)
        _code, base = run_uninstrumented(asm, record_writes=True)
        _stmts, plan = build_plan(asm, mode=mode)
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        symtab = session.program.symtab
        session.mrs.enable()
        for name in ("accum", "table"):
            entry = symtab.lookup(name)
            session.mrs.pre_monitor(name)
            session.mrs.create_region(entry.address, entry.size)
        hits = notifications(session.mrs)
        assert session.run() == 0
        assert session.output == base.output
        regions = [(symtab.lookup(n).address, symtab.lookup(n).size)
                   for n in ("accum", "table")]
        expected = oracle_hits(base.cpu.write_trace, regions)
        got = [(a, s) for a, s, _r in hits]
        assert got == expected

    def test_range_elimination_heap_region(self):
        """Monitor the heap block written by a range-eliminated loop."""
        asm = compile_source(RICH_PROGRAM)
        _code, base = run_uninstrumented(asm, record_writes=True)
        _stmts, plan = build_plan(asm, mode="full")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        heap_base = session.cpu.mem.brk
        session.mrs.enable()
        session.mrs.create_region(heap_base, 32)
        hits = notifications(session.mrs)
        assert session.run() == 0
        expected = oracle_hits(base.cpu.write_trace, [(heap_base, 32)])
        got = [(a, s) for a, s, _r in hits]
        assert got == expected
        assert len(got) == 8

    def test_full_plan_check_free_when_unmonitored(self):
        """With no regions, a fully optimized scientific loop executes
        almost no check instructions (the Table 2 payoff)."""
        source = """
        int m[30];
        int main() {
            int i;
            for (i = 0; i < 30; i = i + 1) { m[i] = i; }
            print(m[29]);
            return 0;
        }
        """
        asm = compile_source(source)
        _stmts, plan = build_plan(asm, mode="full")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        session.mrs.enable()
        session.run()
        assert session.cpu.tag_counts.get("check", 0) == 0


# -- property-based region placement ----------------------------------------

_ASM = compile_source(RICH_PROGRAM)
_BASE = None


def _baseline():
    global _BASE
    if _BASE is None:
        _code, loaded = run_uninstrumented(_ASM, record_writes=True)
        _BASE = loaded
    return _BASE


@settings(max_examples=12, deadline=None)
@given(word_offsets=st.sets(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=4),
    strategy=st.sampled_from(["Bitmap", "CacheInline",
                              "BitmapInlineRegisters"]))
def test_random_regions_match_oracle(word_offsets, strategy):
    base = _baseline()
    symtab_entry = base.program.symtab.lookup("table")
    regions = [(symtab_entry.address + 4 * off, 4)
               for off in sorted(word_offsets)
               if 4 * off < symtab_entry.size]
    session = DebugSession.from_asm(_ASM, strategy=strategy)
    session.mrs.enable()
    for start, size in regions:
        session.mrs.create_region(start, size)
    hits = notifications(session.mrs)
    assert session.run() == 0
    expected = oracle_hits(base.cpu.write_trace, regions)
    got = [(a, s) for a, s, _r in hits]
    assert got == expected


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(["sym", "full", "ipa"]),
       symbols=st.sets(st.sampled_from(["accum", "table", "boxes",
                                        "cursor"]),
                       min_size=1, max_size=3))
def test_differential_modes_agree_on_monitor_hits(mode, symbols):
    """Differential soundness: under every elimination mode, the hits
    on watched symbols must equal the unoptimized oracle — the §4.2
    pre-monitor protocol is exercised exactly as the debugger does."""
    base = _baseline()
    _stmts, plan = build_plan(_ASM, mode=mode)
    session = DebugSession.from_asm(
        _ASM, strategy="BitmapInlineRegisters", plan=plan)
    symtab = session.program.symtab
    session.mrs.enable()
    regions = []
    for name in sorted(symbols):
        entry = symtab.lookup(name)
        session.mrs.pre_monitor(name)
        session.mrs.create_region(entry.address, entry.size)
        regions.append((entry.address, entry.size))
    hits = notifications(session.mrs)
    assert session.run() == 0
    assert session.output == base.output
    expected = oracle_hits(base.cpu.write_trace, regions)
    got = [(a, s) for a, s, _r in hits]
    assert got == expected


#: adversarial aliasing corpus: programs whose stores mix heap, frame
#: and multiple labels through shared pointers — ipa must *refuse*
#: (registering everywhere or leaving the check) and stay sound
ADVERSARIAL_SOURCES = [
    # one callee pokes both a global table and an sbrk block
    """
    int table[8];
    int mark;
    int poke(int *dest, int k) {
        dest[k % 8] = k;
        return k;
    }
    int main() {
        int *heap;
        poke(table, 3);
        heap = sbrk(32);
        poke(heap, 5);
        mark = table[3];
        print(mark);
        return 0;
    }
    """,
    # pointer selected by data-dependent branch between two labels
    """
    int left;
    int right;
    int trace[4];
    int main() {
        int *p;
        int i;
        for (i = 0; i < 4; i = i + 1) {
            if (i % 2) { p = &left; } else { p = &right; }
            *p = i;
            trace[i] = left + right;
        }
        print(trace[3]);
        return 0;
    }
    """,
]


@pytest.mark.parametrize("source_index",
                         range(len(ADVERSARIAL_SOURCES)))
def test_adversarial_aliasing_stays_sound_under_ipa(source_index):
    source = ADVERSARIAL_SOURCES[source_index]
    asm = compile_source(source)
    _code, base = run_uninstrumented(asm, record_writes=True)
    _stmts, plan = build_plan(asm, mode="ipa")
    session = DebugSession.from_asm(
        asm, strategy="BitmapInlineRegisters", plan=plan)
    symtab = session.program.symtab
    session.mrs.enable()
    regions = []
    for entry in symtab.globals():
        if entry.address is None:
            continue
        session.mrs.pre_monitor(entry.name)
        session.mrs.create_region(entry.address, entry.size)
        regions.append((entry.address, entry.size))
    hits = notifications(session.mrs)
    assert session.run() == 0
    assert session.output == base.output
    expected = oracle_hits(base.cpu.write_trace, regions)
    got = [(a, s) for a, s, _r in hits]
    assert got == expected


@settings(max_examples=8, deadline=None)
@given(lo=st.integers(min_value=0, max_value=20),
       span=st.integers(min_value=1, max_value=6))
def test_random_regions_with_full_optimization(lo, span):
    base = _baseline()
    entry = base.program.symtab.lookup("table")
    size = min(4 * span, entry.size - 4 * lo)
    if size <= 0:
        return
    regions = [(entry.address + 4 * lo, size)]
    _stmts, plan = build_plan(_ASM, mode="full")
    session = DebugSession.from_asm(
        _ASM, strategy="BitmapInlineRegisters", plan=plan)
    session.mrs.enable()
    session.mrs.pre_monitor("table")
    for start, rsize in regions:
        session.mrs.create_region(start, rsize)
    hits = notifications(session.mrs)
    assert session.run() == 0
    expected = oracle_hits(base.cpu.write_trace, regions)
    got = [(a, s) for a, s, _r in hits]
    assert got == expected
