"""Tests for checkpoint/restore and replayed execution (§5)."""

import json

from repro.debugger import Debugger
from repro.machine.checkpoint import Checkpoint
from repro.minic.codegen import compile_source
from repro.session import DebugSession

from helpers import notifications

PROGRAM = """
int grid[8];
int steps;

int advance() {
    register int i;
    for (i = 0; i < 8; i++) {
        grid[i] = grid[i] + i;
    }
    steps = steps + 1;
    return steps;
}

int main() {
    register int r;
    for (r = 0; r < 5; r++) {
        advance();
    }
    print(steps);
    print(grid[7]);
    return 0;
}
"""


class TestCpuCheckpoint:
    def _session(self):
        session = DebugSession.from_minic(PROGRAM, strategy="Bitmap")
        session.mrs.enable()
        return session

    def test_restore_reproduces_execution_exactly(self):
        session = self._session()
        snapshot = Checkpoint(session.cpu, output=session.output)
        session.run()
        first = (list(session.output), session.cpu.cycles,
                 session.cpu.instructions)
        snapshot.restore(session.cpu, output=session.output)
        session.cpu.run()
        second = (list(session.output), session.cpu.cycles,
                  session.cpu.instructions)
        assert first == second

    def test_restore_rewinds_memory(self):
        session = self._session()
        sym = session.symbol("steps")
        snapshot = Checkpoint(session.cpu)
        session.run()
        assert session.cpu.mem.read_word(sym.address) == 5
        snapshot.restore(session.cpu)
        assert session.cpu.mem.read_word(sym.address) == 0

    def test_restore_rewinds_registers_and_windows(self):
        session = self._session()
        regs = session.cpu.regs
        regs.write(17, 1234)  # %l1
        regs.save_window()
        regs.write(17, 5678)
        snapshot = Checkpoint(session.cpu)
        regs.write(17, 9)
        regs.restore_window()
        snapshot.restore(session.cpu)
        assert regs.read(17) == 5678
        regs.restore_window()
        assert regs.read(17) == 1234

    def test_restore_rewinds_code_patches(self):
        """Dynamic Kessler patches are part of the checkpoint."""
        from repro.optimizer.pipeline import build_plan
        asm = compile_source(PROGRAM)
        _stmts, plan = build_plan(asm, mode="full")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        session.mrs.enable()
        snapshot = Checkpoint(session.cpu, mrs=session.mrs)
        info = next(iter(session.mrs.inst.patchable.values()))
        original = session.cpu.code.at(info.addr)
        session.mrs._activate(info.site, "symbol")
        assert session.cpu.code.at(info.addr) is not original
        snapshot.restore(session.cpu, mrs=session.mrs)
        assert session.cpu.code.at(info.addr) is original
        assert not session.mrs.active_sites()


class TestMonitorRoundTrip:
    """Checkpoint/restore with active monitored regions and pending
    dynamic patches reproduces the monitor-hit trace exactly."""

    def _optimized_session(self):
        from repro.optimizer.pipeline import build_plan
        asm = compile_source(PROGRAM)
        _stmts, plan = build_plan(asm, mode="full")
        session = DebugSession.from_asm(
            asm, strategy="BitmapInlineRegisters", plan=plan)
        session.mrs.enable()
        return session

    def test_hit_trace_identical_after_restore(self):
        session = self._optimized_session()
        sym = session.symbol("steps")
        session.mrs.pre_monitor("steps")
        session.mrs.create_region(sym.address, 4)
        snapshot = Checkpoint(session.cpu, output=session.output,
                              mrs=session.mrs)
        hits = notifications(session.mrs)
        assert session.run() == 0
        first_hits = list(hits)
        first_output = list(session.output)
        assert len(first_hits) == 5
        assert session.mrs.hit_count() == 5

        snapshot.restore(session.cpu, output=session.output,
                         mrs=session.mrs)
        assert session.mrs.hit_count() == 0
        hits.clear()
        assert session.cpu.run() == 0
        assert hits == first_hits
        assert session.output == first_output

    def test_pending_patches_survive_restore(self):
        """A patch activated before the snapshot must still be active —
        code *and* activation refcounts — after a restore that crosses a
        deactivation."""
        session = self._optimized_session()
        session.mrs.pre_monitor("steps")
        active = list(session.mrs.active_sites())
        assert active
        reasons = {site: dict(counts) for site, counts
                   in session.mrs.patches.reasons.items()}
        patched = {site: session.cpu.code.at(
            session.mrs.inst.patchable[site].addr) for site in active}
        snapshot = Checkpoint(session.cpu, mrs=session.mrs)
        session.mrs.post_monitor("steps")
        assert not session.mrs.active_sites()
        snapshot.restore(session.cpu, mrs=session.mrs)
        assert session.mrs.active_sites() == active
        assert session.mrs.patches.reasons == reasons
        for site in active:
            info = session.mrs.inst.patchable[site]
            assert session.cpu.code.at(info.addr) is patched[site]
        # and the patches still work: deactivation restores the original
        session.mrs.post_monitor("steps")
        assert not session.mrs.active_sites()

    def test_regions_created_after_restore_still_monitor(self):
        session = self._optimized_session()
        snapshot = Checkpoint(session.cpu, output=session.output,
                              mrs=session.mrs)
        assert session.run() == 0
        snapshot.restore(session.cpu, output=session.output,
                         mrs=session.mrs)
        sym = session.symbol("steps")
        session.mrs.pre_monitor("steps")
        session.mrs.create_region(sym.address, 4)
        assert session.cpu.run() == 0
        assert session.mrs.hit_count() == 5


class TestDebuggerReplay:
    def test_watchpoints_can_change_between_replays(self):
        debugger = Debugger.for_source(PROGRAM, optimize=None)
        checkpoint = debugger.checkpoint()

        coarse = debugger.watch("grid")
        assert debugger.run() == "exited"
        total_hits = coarse.hit_count()
        assert total_hits == 40

        debugger.restore(checkpoint)
        coarse.delete()
        precise = debugger.watch("grid[3]")
        assert debugger.run() == "exited"
        assert precise.hit_count() == 5
        assert precise.last_value() == 15

    def test_output_rewound(self):
        debugger = Debugger.for_source(PROGRAM, optimize=None)
        checkpoint = debugger.checkpoint()
        debugger.run()
        first_output = list(debugger.output)
        debugger.restore(checkpoint)
        assert debugger.output == []
        debugger.run()
        assert debugger.output == first_output

    def test_midrun_checkpoint(self):
        debugger = Debugger.for_source(PROGRAM, optimize=None)
        watchpoint = debugger.watch("steps", action="stop",
                                    condition=lambda v: v == 2)
        assert debugger.run() == "watch"
        checkpoint = debugger.checkpoint()
        watchpoint.condition = lambda v: v == 4
        assert debugger.run() == "watch"
        assert watchpoint.last_value() == 4
        debugger.restore(checkpoint)
        watchpoint.condition = lambda v: v == 3
        assert debugger.run() == "watch"
        assert watchpoint.last_value() == 3
        # steps then advances past 3 without matching again
        assert debugger.run() == "exited"

    def test_state_survives_json_round_trip(self):
        """The state half of a debugger checkpoint is plain data:
        restore() takes it back from JSON with every watchpoint's hits
        and engine state, a disarmed one's error included."""
        debugger = Debugger.for_source(PROGRAM, optimize=None)
        debugger.watch("steps", action="stop", expr="$value >= 2",
                       when="rise")
        # grid[7] becomes 7 in the first advance(): division by zero
        broken = debugger.watch("grid[7]", expr="100 / ($value - 7) > 0")

        def facts():
            return [(list(w.hits), w.enabled, w.truth,
                     w.stats.as_tuple(), w.cached_truth,
                     None if w.disarm_error is None else
                     (w.disarm_error.args[0], w.disarm_error.reason))
                    for w in debugger.watchpoints] + [
                        dict(debugger.shadow), list(debugger.log)]

        assert debugger.run() == "watch"
        assert broken.disarm_error.reason == "div_zero"
        snapshot, watchpoints, state = debugger.checkpoint()
        expected = facts()
        assert debugger.run() == "exited"
        assert facts() != expected
        output = list(debugger.output)
        debugger.restore((snapshot, watchpoints,
                          json.loads(json.dumps(state))))
        assert facts() == expected
        assert debugger.run() == "exited"
        assert debugger.output == output

    def test_region_state_restored(self):
        debugger = Debugger.for_source(PROGRAM, optimize=None)
        watchpoint = debugger.watch("steps")
        checkpoint = debugger.checkpoint()
        watchpoint.delete()
        assert len(debugger.mrs.regions) == 0
        debugger.restore(checkpoint)
        assert len(debugger.mrs.regions) == 1
        assert debugger.run() == "exited"
        assert debugger.watchpoints[0].hit_count() == 5
