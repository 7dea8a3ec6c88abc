"""Property suite for the fault-injection harness.

The two robustness properties:

* **atomicity** — under *any* fault schedule, every MRS operation
  either completes fully or leaves the debuggee + host bookkeeping
  bit-identical to the pre-call state;
* **soundness survives faults** — after arbitrary injected failures
  and rollbacks, the notifications on the surviving regions still
  equal the write-trace oracle.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from helpers import notifications, oracle_hits
from repro.core.regions import MonitoredRegion
from repro.errors import (InjectedFault, MrsTransactionError, ReproError)
from repro.faults import (BITMAP_ALLOC, BITMAP_PUBLISH, FaultPlan,
                          MEMORY_WRITE, PATCH_INSTALL, PATCH_REMOVE,
                          SERVICE_CREATE, SERVICE_DELETE,
                          SERVICE_POST_MONITOR, SERVICE_PRE_MONITOR)
from repro.minic.codegen import compile_source
from repro.optimizer.pipeline import build_plan
from repro.session import DebugSession, run_uninstrumented

PROGRAM = """
int g;
int buf[32];

int poke(int *p, int v) {
    *p = v;
    return v;
}

int main() {
    register int i;
    g = 1;
    for (i = 0; i < 32; i = i + 1) {
        buf[i] = i;
    }
    poke(&g, 42);
    print(g);
    return 0;
}
"""

_ASM = compile_source(PROGRAM)
_PLAN = None
_BASE = None


def _optimization_plan():
    global _PLAN
    if _PLAN is None:
        _stmts, _PLAN = build_plan(_ASM, mode="full")
    return _PLAN


def _baseline():
    global _BASE
    if _BASE is None:
        _code, _BASE = run_uninstrumented(_ASM, record_writes=True)
    return _BASE


def _session(faults=None, optimized=False):
    if optimized:
        return DebugSession.from_asm(_ASM, strategy="BitmapInlineRegisters",
                                     plan=_optimization_plan(),
                                     faults=faults)
    return DebugSession.from_asm(_ASM, strategy="Bitmap", faults=faults)


def _fingerprint(session):
    """Every piece of state an MRS operation may touch, bit-exactly."""
    cpu, mrs = session.cpu, session.mrs
    return (
        dict(cpu.mem.words),
        tuple(cpu.code.insns),
        tuple(sorted(r.key() for r in mrs.regions)),
        dict(mrs.bitmap._segments),
        mrs.bitmap._arena_next,
        copy.deepcopy(mrs.patches.reasons),
        tuple(cpu.regs.globals),
        tuple(cpu.regs.monitors),
    )


MRS_FAILURES = (InjectedFault, MrsTransactionError)


class TestAtomicity:
    """Fault every occurrence of every injection point an operation
    trips; the operation must roll back bit-identically each time."""

    def _trips_during(self, operate, optimized=False):
        """(counts before, counts after) of a clean run of *operate*."""
        probe = _session(faults=FaultPlan(), optimized=optimized)
        before = dict(probe.mrs.faults.counts)
        operate(probe)
        return probe, before, dict(probe.mrs.faults.counts)

    def test_create_region_atomic_at_every_fault(self):
        def create(session):
            sym = session.symbol("buf")
            session.mrs.create_region(sym.address, 16)
        _probe, c0, c1 = self._trips_during(create)
        points = [p for p in (SERVICE_CREATE, BITMAP_ALLOC, BITMAP_PUBLISH,
                              MEMORY_WRITE)
                  if c1.get(p, 0) > c0.get(p, 0)]
        assert SERVICE_CREATE in points and BITMAP_ALLOC in points \
            and MEMORY_WRITE in points
        for point in points:
            for n in range(c0.get(point, 0), c1.get(point, 0)):
                session = _session(faults=FaultPlan.nth(point, n))
                before = _fingerprint(session)
                with pytest.raises(MRS_FAILURES):
                    create(session)
                assert _fingerprint(session) == before, \
                    "create not rolled back for %s[%d]" % (point, n)

    def test_delete_region_atomic_at_every_fault(self):
        def setup(session):
            sym = session.symbol("buf")
            return session.mrs.create_region(sym.address, 16)
        probe, _c0, after_create = self._trips_during(setup)
        probe.mrs.delete_region(MonitoredRegion(
            probe.symbol("buf").address, 16))
        after_delete = dict(probe.mrs.faults.counts)
        for point in (SERVICE_DELETE, MEMORY_WRITE):
            lo = after_create.get(point, 0)
            hi = after_delete.get(point, 0)
            assert hi > lo, "delete trips no %s" % point
            for n in range(lo, hi):
                session = _session(faults=FaultPlan.nth(point, n))
                region = setup(session)   # occurrences < lo: no fault
                before = _fingerprint(session)
                with pytest.raises(MRS_FAILURES):
                    session.mrs.delete_region(region)
                assert _fingerprint(session) == before
                assert region in session.mrs.regions

    def test_pre_monitor_atomic_at_every_fault(self):
        def pre(session):
            assert session.mrs.pre_monitor("g") >= 1
        _probe, c0, c1 = self._trips_during(pre, optimized=True)
        for point in (SERVICE_PRE_MONITOR, PATCH_INSTALL):
            lo, hi = c0.get(point, 0), c1.get(point, 0)
            assert hi > lo
            for n in range(lo, hi):
                session = _session(faults=FaultPlan.nth(point, n),
                                   optimized=True)
                before = _fingerprint(session)
                with pytest.raises(MRS_FAILURES):
                    session.mrs.pre_monitor("g")
                assert _fingerprint(session) == before
                assert not session.mrs.active_sites()

    def test_post_monitor_atomic_at_every_fault(self):
        def setup(session):
            session.mrs.pre_monitor("g")
        probe, _c0, after_pre = self._trips_during(setup, optimized=True)
        probe.mrs.post_monitor("g")
        after_post = dict(probe.mrs.faults.counts)
        for point in (SERVICE_POST_MONITOR, PATCH_REMOVE):
            lo = after_pre.get(point, 0)
            hi = after_post.get(point, 0)
            assert hi > lo
            for n in range(lo, hi):
                session = _session(faults=FaultPlan.nth(point, n),
                                   optimized=True)
                setup(session)
                before = _fingerprint(session)
                with pytest.raises(MRS_FAILURES):
                    session.mrs.post_monitor("g")
                assert _fingerprint(session) == before
                assert session.mrs.active_sites()   # patches kept

    def test_multi_segment_create_rolls_back_partial_allocation(self):
        """A region spanning two bitmap segments faults on the *second*
        allocation; the first segment's allocation must be unwound too
        (including the arena pointer)."""
        session = _session(faults=FaultPlan.nth(BITMAP_ALLOC, 1))
        layout = session.mrs.layout
        start = 0x60000000 + layout.segment_bytes - 8
        assert layout.segment_of(start) != layout.segment_of(start + 12)
        before = _fingerprint(session)
        with pytest.raises(MRS_FAILURES):
            session.mrs.create_region(start, 16)
        assert _fingerprint(session) == before
        assert session.mrs.bitmap._arena_next == \
            session.mrs.layout.arena_base
        # the schedule is spent, so the retry succeeds
        region = session.mrs.create_region(start, 16)
        assert region in session.mrs.regions
        assert len(session.mrs.bitmap._segments) == 2


class TestRecovery:
    def test_retry_after_rollback_succeeds_and_stays_sound(self):
        base = _baseline()
        session = _session(faults=FaultPlan.nth(BITMAP_ALLOC, 0))
        sym = session.symbol("g")
        session.mrs.enable()
        with pytest.raises(MRS_FAILURES):
            session.mrs.create_region(sym.address, 4)
        # the occurrence counter advanced past the scheduled fault, so
        # the retry — the client-visible recovery story — succeeds
        session.mrs.create_region(sym.address, 4)
        session.cpu.mem.faults = None
        hits = notifications(session.mrs)
        assert session.run() == 0
        expected = oracle_hits(base.cpu.write_trace, [(sym.address, 4)])
        got = [(a, s) for a, s, _r in hits]
        assert got == expected

    def test_optimized_pre_monitor_retry_stays_sound(self):
        base = _baseline()
        session = _session(faults=FaultPlan.nth(PATCH_INSTALL, 0),
                           optimized=True)
        sym = session.symbol("g")
        session.mrs.enable()
        with pytest.raises(MRS_FAILURES):
            session.mrs.pre_monitor("g")
        session.mrs.pre_monitor("g")
        session.mrs.create_region(sym.address, 4)
        session.cpu.mem.faults = None
        hits = notifications(session.mrs)
        assert session.run() == 0
        expected = oracle_hits(base.cpu.write_trace, [(sym.address, 4)])
        got = [(a, s) for a, s, _r in hits]
        assert got == expected

    def test_injected_fault_carries_context_and_is_logged(self):
        plan = FaultPlan.nth(SERVICE_CREATE, 0)
        session = _session(faults=plan)
        sym = session.symbol("g")
        with pytest.raises(InjectedFault) as excinfo:
            session.mrs.create_region(sym.address, 4)
        fault = excinfo.value
        assert fault.point == SERVICE_CREATE
        assert fault.occurrence == 0
        assert fault.context["region"] == (sym.address, 4)
        assert "pc" in fault.context
        point, occurrence, context = plan.fired[0]
        assert (point, occurrence) == (SERVICE_CREATE, 0)
        assert context == {"region": (sym.address, 4),
                           "pc": session.cpu.pc}

    def test_max_faults_caps_a_hostile_schedule(self):
        plan = FaultPlan(seed=3, rate=1.0, max_faults=1)
        session = _session(faults=plan)
        sym = session.symbol("g")
        with pytest.raises(MRS_FAILURES):
            session.mrs.create_region(sym.address, 4)
        assert len(plan.fired) == 1
        # the cap is reached: everything after succeeds
        region = session.mrs.create_region(sym.address, 4)
        session.mrs.delete_region(region)

    def test_debuggee_store_is_an_injection_point(self):
        plan = FaultPlan.nth(MEMORY_WRITE, 0)
        session = _session(faults=plan)
        session.mrs.enable()
        with pytest.raises(InjectedFault) as excinfo:
            session.run()
        assert "addr" in excinfo.value.context


class TestDeterminism:
    def test_seeded_schedule_is_reproducible(self):
        logs = []
        for _ in range(2):
            plan = FaultPlan(seed=99, rate=0.5)
            session = _session(faults=plan)
            sym = session.symbol("buf")
            for k in range(4):
                try:
                    session.mrs.create_region(sym.address + 8 * k, 4)
                except ReproError:
                    pass
            logs.append(list(plan.fired))
        assert logs[0] == logs[1]
        assert logs[0]   # rate 0.5 over dozens of trips: some fired


# -- the headline property, over random op sequences and schedules -----------

_OPS = ["create:g", "create:buf0", "create:buf1", "delete:g",
        "delete:buf0", "pre", "post"]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       rate=st.sampled_from([0.15, 0.4, 0.8]),
       ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=8))
def test_any_schedule_leaves_state_atomic_and_sound(seed, rate, ops):
    base = _baseline()
    plan = FaultPlan(seed=seed, rate=rate)
    session = _session(faults=plan)
    session.mrs.enable()
    symtab = session.program.symtab
    spans = {"g": (symtab.lookup("g").address, 4),
             "buf0": (symtab.lookup("buf").address, 8),
             "buf1": (symtab.lookup("buf").address + 16, 8)}
    live = {}
    for op in ops:
        before = _fingerprint(session)
        try:
            if op.startswith("create:"):
                name = op.split(":")[1]
                start, size = spans[name]
                live[name] = session.mrs.create_region(start, size)
            elif op.startswith("delete:"):
                name = op.split(":")[1]
                start, size = spans[name]
                session.mrs.delete_region(MonitoredRegion(start, size))
                live.pop(name, None)
            elif op == "pre":
                session.mrs.pre_monitor("g")
            else:
                session.mrs.post_monitor("g")
        except ReproError:
            # atomicity: a failed op must be a perfect no-op
            assert _fingerprint(session) == before
    # soundness of whatever survived: disarm injection and run
    session.cpu.mem.faults = None
    hits = notifications(session.mrs)
    assert session.run() == 0
    regions = [region.key() for region in live.values()]
    expected = oracle_hits(base.cpu.write_trace, regions)
    got = [(a, s) for a, s, _r in hits]
    assert got == expected
