"""Property-based tests of loop optimization: randomized affine loops
must keep exact hit detection, and eliminated checks must actually be
eliminated when no region is monitored."""

from hypothesis import assume, given, settings, strategies as st

from helpers import notifications, oracle_hits
from repro.minic.codegen import compile_source
from repro.optimizer.pipeline import build_plan
from repro.session import DebugSession, run_uninstrumented

ARRAY_WORDS = 96

_TEMPLATE = """
int a[%(words)d];
int main() {
    int i;
    for (i = %(lo)d; i %(cmp)s %(hi)d; i = i + %(stride)d) {
        a[%(offset)d + %(coef)d * i] = i;
    }
    print(a[%(probe)d]);
    return 0;
}
"""


def build_program(lo, hi, stride, coef, offset, increasing):
    if increasing:
        params = dict(lo=lo, hi=hi, cmp="<", stride=stride)
        indices = range(lo, hi, stride)
    else:
        params = dict(lo=hi - 1, hi=lo, cmp=">=", stride=-stride)
        indices = range(hi - 1, lo - 1, -stride)
    touched = [offset + coef * i for i in indices]
    if not touched:
        return None, None
    if min(touched) < 0 or max(touched) >= ARRAY_WORDS:
        return None, None
    params.update(words=ARRAY_WORDS, coef=coef, offset=offset,
                  probe=touched[0])
    return _TEMPLATE % params, touched


@settings(max_examples=25, deadline=None)
@given(lo=st.integers(0, 6), span=st.integers(1, 12),
       stride=st.integers(1, 3), coef=st.sampled_from([1, 2, 3, 4, 6]),
       offset=st.integers(0, 8), increasing=st.booleans(),
       region_word=st.integers(0, ARRAY_WORDS - 1),
       region_words=st.integers(1, 8))
def test_randomized_affine_loops_stay_sound(lo, span, stride, coef,
                                            offset, increasing,
                                            region_word, region_words):
    source, touched = build_program(lo, lo + span, stride, coef, offset,
                                    increasing)
    assume(source is not None)
    asm = compile_source(source)
    _code, base = run_uninstrumented(asm, record_writes=True)

    _stmts, plan = build_plan(asm, mode="full")
    session = DebugSession.from_asm(asm,
                                    strategy="BitmapInlineRegisters",
                                    plan=plan)
    entry = session.program.symtab.lookup("a")
    size = min(4 * region_words, entry.size - 4 * region_word)
    assume(size > 0)
    regions = [(entry.address + 4 * region_word, size)]
    session.mrs.enable()
    session.mrs.pre_monitor("a")
    for start, rsize in regions:
        session.mrs.create_region(start, rsize)
    hits = notifications(session.mrs)
    assert session.run() == 0
    assert session.output == base.output

    expected = oracle_hits(base.cpu.write_trace, regions)
    got = [(addr, s) for addr, s, _r in hits]
    assert got == expected


@settings(max_examples=15, deadline=None)
@given(lo=st.integers(0, 4), span=st.integers(2, 10),
       stride=st.integers(1, 2), coef=st.sampled_from([1, 2, 4]),
       offset=st.integers(0, 6), increasing=st.booleans())
def test_eliminated_loops_run_check_free(lo, span, stride, coef, offset,
                                         increasing):
    """When the loop write was range-eliminated and nothing is
    monitored, zero check instructions execute inside the loop."""
    source, touched = build_program(lo, lo + span, stride, coef, offset,
                                    increasing)
    assume(source is not None)
    asm = compile_source(source)
    _stmts, plan = build_plan(asm, mode="full")
    assume("range" in plan.eliminate.values() or
           plan.summary()["range"] > 0)
    session = DebugSession.from_asm(asm,
                                    strategy="BitmapInlineRegisters",
                                    plan=plan)
    session.mrs.enable()
    assert session.run() == 0
    assert session.cpu.tag_counts.get("check", 0) == 0
    # one pre-header range check per loop entry
    assert session.cpu.tag_counts.get("phead_range", 0) == 1
