"""Tests for the monitored region service: regions, notifications,
enable/disable, segment-cache invalidation, PreMonitor/PostMonitor
patching, and space accounting."""

import pytest

from repro.core.regions import RegionError
from repro.core.runtime_asm import INVALID_SEGMENT
from repro.isa.registers import REGISTER_IDS
from repro.minic.codegen import compile_source
from repro.optimizer.pipeline import build_plan
from repro.session import DebugSession

SOURCE = """
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


def make_session(strategy="Bitmap", plan=None, **kwargs):
    return DebugSession.from_minic(SOURCE, strategy=strategy, plan=plan,
                                   **kwargs)


class TestRegions:
    def test_create_and_hit(self):
        session = make_session()
        sym = session.symbol("g")
        session.mrs.enable()
        session.mrs.create_region(sym.address, 4)
        session.run()
        assert session.mrs.hit_count() == 2  # g=1 and poke

    def test_delete_stops_hits(self):
        session = make_session()
        sym = session.symbol("g")
        session.mrs.enable()
        region = session.mrs.create_region(sym.address, 4)
        session.mrs.delete_region(region)
        session.run()
        assert session.mrs.hit_count() == 0

    def test_overlapping_regions_rejected(self):
        session = make_session()
        sym = session.symbol("buf")
        session.mrs.create_region(sym.address, 16)
        with pytest.raises(RegionError):
            session.mrs.create_region(sym.address + 8, 16)

    def test_disabled_service_reports_nothing(self):
        session = make_session()
        sym = session.symbol("g")
        session.mrs.create_region(sym.address, 4)  # not enabled
        session.run()
        assert session.mrs.hit_count() == 0

    def test_callbacks_invoked_in_order(self):
        session = make_session()
        sym = session.symbol("buf")
        session.mrs.enable()
        session.mrs.create_region(sym.address, 8)
        seen = []
        session.mrs.add_callback(
            lambda addr, size, is_read: seen.append(addr))
        session.run()
        assert seen == [sym.address, sym.address + 4]

    def test_overhead_independent_of_region_count(self):
        # Table 1's property: more monitored regions (unwritten) do not
        # add instructions to the checks
        base = make_session(strategy="BitmapInlineRegisters")
        base.mrs.enable()
        base.run()
        many = make_session(strategy="BitmapInlineRegisters")
        many.mrs.enable()
        for k in range(8):
            many.mrs.create_region(0x60000000 + 1024 * k, 64)
        many.run()
        assert many.cpu.instructions == base.cpu.instructions


class TestSegmentCaches:
    def test_create_invalidates_matching_cache(self):
        session = make_session(strategy="Cache")
        sym = session.symbol("g")
        layout = session.mrs.layout
        segment = layout.segment_of(sym.address)
        rid = REGISTER_IDS["%m1"]
        session.cpu.regs.write(rid, segment)  # simulate a cached segment
        session.mrs.create_region(sym.address, 4)
        assert session.cpu.regs.read(rid) == INVALID_SEGMENT

    def test_create_keeps_unrelated_cache(self):
        session = make_session(strategy="Cache")
        sym = session.symbol("g")
        rid = REGISTER_IDS["%m1"]
        session.cpu.regs.write(rid, 12345)
        session.mrs.create_region(sym.address, 4)
        assert session.cpu.regs.read(rid) == 12345

    def test_cache_strategy_detects_hits_after_miss_cycle(self):
        session = make_session(strategy="CacheInline",
                               record_writes=True)
        sym = session.symbol("buf")
        session.mrs.enable()
        session.mrs.create_region(sym.address + 16, 8)  # buf[4], buf[5]
        session.run()
        assert session.mrs.hit_count() == 2


class TestPreMonitor:
    def _optimized_session(self):
        asm = compile_source(SOURCE)
        _stmts, plan = build_plan(asm, mode="full")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        return session, plan

    def test_eliminated_sites_unchecked_without_premonitor(self):
        session, plan = self._optimized_session()
        sym = session.symbol("g")
        session.mrs.enable()
        # create region only: known writes to g are NOT patched, so the
        # direct writes are missed (aliased poke() write is still seen)
        session.mrs.create_region(sym.address, 4)
        session.run()
        assert session.mrs.hit_count() == 1

    def test_premonitor_restores_known_write_checks(self):
        session, plan = self._optimized_session()
        sym = session.symbol("g")
        session.mrs.enable()
        patched = session.mrs.pre_monitor("g")
        assert patched >= 1
        session.mrs.create_region(sym.address, 4)
        session.run()
        assert session.mrs.hit_count() == 2

    def test_postmonitor_reverses_patching(self):
        session, plan = self._optimized_session()
        session.mrs.pre_monitor("g")
        assert session.mrs.active_sites()
        session.mrs.post_monitor("g")
        assert not session.mrs.active_sites()

    def test_nested_activation_refcounts(self):
        session, plan = self._optimized_session()
        session.mrs.pre_monitor("g")
        session.mrs.pre_monitor("g")
        session.mrs.post_monitor("g")
        assert session.mrs.active_sites()  # second reference keeps it
        session.mrs.post_monitor("g")
        assert not session.mrs.active_sites()

    def test_patch_restores_original_instruction(self):
        session, plan = self._optimized_session()
        info = next(iter(session.mrs.inst.patchable.values()))
        original = session.cpu.code.at(info.addr)
        session.mrs._activate(info.site, "symbol")
        assert session.cpu.code.at(info.addr) is not original
        session.mrs._deactivate(info.site, "symbol")
        assert session.cpu.code.at(info.addr) is original

    def test_reinstall_puts_back_the_same_patch_object(self):
        # compiled blocks revalidate by slot identity, so a replayed
        # re-install must not look like changed code
        session, plan = self._optimized_session()
        info = next(iter(session.mrs.inst.patchable.values()))
        session.mrs._activate(info.site, "symbol")
        patch = session.cpu.code.at(info.addr)
        session.mrs._deactivate(info.site, "symbol")
        session.mrs._activate(info.site, "symbol")
        assert session.cpu.code.at(info.addr) is patch


class TestIdempotency:
    """Delete/disable misuse gets clear errors or no-ops, never
    corrupted bookkeeping."""

    def test_delete_unknown_region_raises_region_error(self):
        from repro.core.regions import MonitoredRegion
        session = make_session()
        ghost = MonitoredRegion(0x60000000, 16)
        with pytest.raises(RegionError) as excinfo:
            session.mrs.delete_region(ghost)
        assert "not currently monitored" in str(excinfo.value)
        assert excinfo.value.context["region"] == (0x60000000, 16)

    def test_double_delete_raises_not_corrupts(self):
        session = make_session()
        sym = session.symbol("g")
        region = session.mrs.create_region(sym.address, 4)
        session.mrs.delete_region(region)
        with pytest.raises(RegionError):
            session.mrs.delete_region(region)
        # the bitmap survived the misuse: recreate and monitor normally
        session.mrs.enable()
        session.mrs.create_region(sym.address, 4)
        session.run()
        assert session.mrs.hit_count() == 2

    def test_double_post_monitor_is_a_noop(self):
        asm = compile_source(SOURCE)
        _stmts, plan = build_plan(asm, mode="full")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        session.mrs.pre_monitor("g")
        assert session.mrs.post_monitor("g") >= 1
        before = dict(session.mrs.patches.reasons)
        assert session.mrs.post_monitor("g") >= 1
        assert session.mrs.patches.reasons == before
        assert not session.mrs.active_sites()

    def test_double_disable_and_enable_idempotent(self):
        session = make_session()
        session.mrs.disable()
        session.mrs.disable()
        assert not session.mrs.enabled
        session.mrs.enable()
        session.mrs.enable()
        assert session.mrs.enabled
        sym = session.symbol("g")
        session.mrs.create_region(sym.address, 4)
        session.run()
        assert session.mrs.hit_count() == 2


class TestSpaceAccounting:
    def test_space_overhead_reported(self):
        session = make_session()
        sym = session.symbol("buf")
        session.mrs.create_region(sym.address, sym.size)
        bitmap_bytes, program_bytes = session.mrs.space_overhead()
        assert bitmap_bytes > 0
        assert bitmap_bytes < program_bytes * 0.1


class TestMidRunRegionCreation:
    def test_region_created_inside_loop_still_catches_writes(self):
        """A region created while stopped inside an optimized loop (the
        pre-header already ran) conservatively restores the eliminated
        in-loop checks."""
        from repro.debugger import Debugger
        source = """
        int data[40];
        int phase;
        int main() {
            int i;
            phase = 1;
            for (i = 0; i < 40; i = i + 1) {
                if (i == 10) { phase = 2; }
                data[i] = i;
            }
            print(data[39]);
            return 0;
        }
        """
        debugger = Debugger.for_source(source, optimize="full")
        debugger.watch("phase", action="stop",
                       condition=lambda v: v == 2)
        assert debugger.run() == "watch"   # stopped mid-loop, i == 10
        late = debugger.watch("data[20]")
        assert debugger.run() == "exited"
        assert late.hit_count() == 1       # caught despite elimination
        assert late.last_value() == 20
