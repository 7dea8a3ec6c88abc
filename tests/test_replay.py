"""Time-travel record/replay: determinism, reverse execution,
last-write queries, divergence detection and fault injection.

The ISSUE acceptance criteria exercised here:

* ``reverse_continue`` stops at the most recent write to a monitored
  region; ``last_write`` returns (pc, instruction index, old/new value);
* recording a workload twice from the same seed yields byte-identical
  write-traces;
* ``last_write_to`` agrees with a brute-force forward scan;
* divergence raises :class:`DivergenceError`, never a silent wrong
  answer;
* a ``replay.keyframe`` injection fault degrades the recording (the
  keyframe is skipped and counted) but never publishes a torn keyframe.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.debugger import Debugger
from repro.errors import DivergenceError, ReplayError
from repro.faults import REPLAY_KEYFRAME, FaultPlan
from repro.replay import WriteRecord, WriteTrace, state_digest
from repro.session import DebugSession

SOURCE = """
int total;
int grid[8];

int bump(int k) {
    total = total + k;
    return total;
}

int main() {
    register int i;
    for (i = 0; i < 6; i = i + 1) {
        bump(i);
        grid[i] = total;
    }
    print(total);
    return 0;
}
"""

#: total after each loop iteration (running sum of 0..5)
TOTALS = [0, 1, 3, 6, 10, 15]


def make_debugger(source=SOURCE, faults=None):
    if faults is not None:
        session = DebugSession.from_minic(source, faults=faults)
        return Debugger(session)
    return Debugger.for_source(source, optimize="full")


def value_of(debugger, expression):
    _entry, _addr, value = debugger.evaluate(expression)
    return value


def record_run(stride=200, faults=None, watches=("total",),
               action="log", **record_options):
    debugger = make_debugger(faults=faults)
    watchpoints = {expr: debugger.watch(expr, action=action)
                   for expr in watches}
    recorder = debugger.record(stride=stride, **record_options)
    reason = debugger.run()
    while reason != "exited":
        reason = debugger.run()
    return debugger, recorder, watchpoints


class TestWriteTrace:
    def test_record_round_trips_through_bytes(self):
        record = WriteRecord(12345, 0x10214, 0x10004000, 4, 7, 9, False)
        assert WriteRecord.unpack(record.pack()) == record
        assert record.stop_index == 12346
        assert record.overlaps(0x10004000, 4)
        assert record.overlaps(0x10003FFD, 4)
        assert not record.overlaps(0x10004004, 4)

    def test_trace_round_trips_and_digest_is_canonical(self):
        trace = WriteTrace(max_records=16)
        for index in range(5):
            trace.append(WriteRecord(index * 10, 0x100, 0x200 + index,
                                     4, index, index + 1, False))
        clone = WriteTrace.from_bytes(trace.to_bytes())
        assert list(clone) == list(trace)
        assert clone.base == trace.base
        assert clone.digest() == trace.digest()

    def test_ring_eviction_keeps_absolute_positions(self):
        trace = WriteTrace(max_records=3)
        for index in range(7):
            trace.append(WriteRecord(index, 0, 0, 4, 0, index, False))
        assert len(trace) == 3
        assert trace.dropped == 4
        assert trace.at(3) is None            # evicted
        assert trace.at(4).new == 4           # oldest survivor
        assert trace.at(6).new == 6
        assert trace.at(7) is None            # not yet written

    def test_last_write_to_respects_before_index(self):
        trace = WriteTrace()
        trace.append(WriteRecord(10, 0, 0x100, 4, 0, 1, False))
        trace.append(WriteRecord(20, 0, 0x100, 4, 1, 2, False))
        trace.append(WriteRecord(30, 0, 0x100, 4, 2, 3, True))  # a read
        assert trace.last_write_to(0x100, 4).new == 2
        # stop_index (index+1) is the comparison point
        assert trace.last_write_to(0x100, 4, before_index=21).new == 2
        assert trace.last_write_to(0x100, 4, before_index=20).new == 1
        assert trace.last_write_to(0x100, 4, before_index=10) is None
        assert trace.last_write_to(0x500, 4) is None

    def test_truncate_drops_the_future(self):
        trace = WriteTrace()
        for index in range(4):
            trace.append(WriteRecord(index, 0, 0x100, 4, 0, index, False))
        trace.truncate(2)
        assert len(trace) == 2
        assert trace.at(1).new == 1
        assert trace.at(2) is None


class TestReverseExecution:
    def test_reverse_continue_stops_at_most_recent_write(self):
        debugger, recorder, watchpoints = record_run()
        watchpoint = watchpoints["total"]
        # walking backwards visits every recorded write, newest first
        for expected in reversed(TOTALS):
            assert debugger.reverse_continue() == "watch"
            assert debugger.stop_reason == "watch"
            assert debugger.stopped_watch is watchpoint
            assert value_of(debugger, "total") == expected
        assert debugger.reverse_continue() == "replay-start"
        assert debugger.cpu.instructions == recorder.start_index

    def test_reverse_step_lands_exactly_n_back(self):
        debugger, _recorder, _w = record_run()
        end = debugger.cpu.instructions
        assert debugger.reverse_step(10) == "step"
        assert debugger.cpu.instructions == end - 10
        assert debugger.reverse_step() == "step"
        assert debugger.cpu.instructions == end - 11
        # clamped at the start of the recording
        assert debugger.reverse_step(10 ** 9) == "replay-start"
        assert debugger.cpu.instructions == 0

    def test_forward_resume_after_travel_reaches_same_end(self):
        debugger, recorder, _w = record_run()
        end = debugger.cpu.instructions
        end_digest = state_digest(debugger.cpu)
        output = list(debugger.output)
        debugger.reverse_continue()
        debugger.reverse_continue()
        assert debugger.run() == "exited"
        assert debugger.cpu.instructions == end
        assert state_digest(debugger.cpu) == end_digest
        assert list(debugger.output) == output
        assert recorder.mode == "record"

    def test_reverse_continue_skips_unwatched_writes(self):
        # grid is written 6 times but never watched: reverse_continue
        # must ignore it and walk total's writes only
        debugger, _recorder, watchpoints = record_run()
        assert debugger.reverse_continue() == "watch"
        assert debugger.stopped_watch is watchpoints["total"]

    def test_requires_a_recording(self):
        debugger = make_debugger()
        debugger.watch("total", action="log")
        with pytest.raises(ReplayError) as excinfo:
            debugger.reverse_continue()
        assert excinfo.value.context["reason"] == "not_recording"
        with pytest.raises(ReplayError):
            debugger.reverse_step()
        with pytest.raises(ReplayError):
            debugger.last_write("total")

    def test_watch_change_while_travelled_forks_the_timeline(self):
        debugger, recorder, _w = record_run()
        end = recorder.end_index
        debugger.reverse_continue()
        here = debugger.cpu.instructions
        debugger.watch("grid[5]", action="log")
        # the stale future (recorded under the old monitor set) is gone
        assert recorder.end_index == here
        assert all(record.stop_index <= here
                   for record in recorder.trace)
        # ... and the forked timeline records and completes normally
        assert debugger.run() == "exited"
        assert recorder.end_index >= end
        answer = debugger.last_write("grid[5]")
        assert answer is not None and answer.new == 15

    def test_breakpoint_change_forks_the_timeline(self):
        """A control breakpoint patches code, which re-execution cannot
        reproduce: travelling back past ``break`` and continuing records
        a new timeline instead of diverging at the next keyframe."""
        debugger = make_debugger()
        recorder = debugger.record(stride=20)
        assert debugger.step(150) == "step"
        placed = debugger.cpu.instructions
        debugger.break_at("bump")
        assert placed in recorder.monitor_changes
        assert debugger.run() == "breakpoint:bump"
        entered = debugger.cpu.instructions
        # back to after the break: the patched keyframe replays to it
        debugger.reverse_step(entered - placed - 5)
        assert debugger.run() == "breakpoint:bump"
        assert debugger.cpu.instructions == entered
        # back to before it: the future recorded with the patch is gone
        debugger.reverse_step(entered - placed + 20)
        assert recorder.end_index == placed - 20
        reason = debugger.run()
        while reason != "exited":
            reason = debugger.run()
        assert "".join(debugger.output).strip() == "15"


class TestLastWrite:
    def test_last_write_from_trace(self):
        debugger, _recorder, _w = record_run()
        answer = debugger.last_write("total")
        assert answer.source == "trace"
        assert (answer.old, answer.new) == (10, 15)
        assert answer.pc >= 0x10000
        assert 0 < answer.index < debugger.cpu.instructions

    def test_last_write_scan_for_unmonitored_region(self):
        debugger, _recorder, _w = record_run()
        answer = debugger.last_write("grid[3]")
        assert answer.source == "scan"
        assert (answer.old, answer.new) == (0, 6)

    def test_scan_agrees_with_brute_force_trace(self):
        """The re-execution scan must agree with a recording where the
        region was monitored (= brute-force forward scan) all along."""
        scanned, _r, _w = record_run(watches=("total",))
        brute, _r2, _w2 = record_run(watches=("total", "grid[4]"))
        for expression in ("grid[4]",):
            from_scan = scanned.last_write(expression)
            from_trace = brute.last_write(expression)
            assert from_scan.source == "scan"
            assert from_trace.source == "trace"
            assert (from_scan.pc, from_scan.index, from_scan.old,
                    from_scan.new, from_scan.addr, from_scan.size) == \
                   (from_trace.pc, from_trace.index, from_trace.old,
                    from_trace.new, from_trace.addr, from_trace.size)

    def test_scan_answers_as_of_the_travelled_point(self):
        debugger, _recorder, _w = record_run()
        debugger.reverse_continue()   # before total's final write
        answer = debugger.last_write("grid[3]")
        assert answer is not None     # grid[3] written earlier still
        debugger.reverse_step(debugger.cpu.instructions - 1)
        # near the start nothing has touched grid yet
        assert debugger.last_write("grid[3]") is None

    def test_scan_does_not_perturb_the_present(self):
        debugger, recorder, _w = record_run()
        digest = state_digest(debugger.cpu)
        watch_count = len(debugger.watchpoints)
        trace_bytes = recorder.trace.to_bytes()
        debugger.last_write("grid[2]")
        assert state_digest(debugger.cpu) == digest
        assert len(debugger.watchpoints) == watch_count
        assert recorder.trace.to_bytes() == trace_bytes
        assert recorder.mode == "record"

    def test_never_written_is_none_not_a_guess(self):
        debugger, _recorder, _w = record_run(watches=("total", "grid[7]"))
        # grid[7] is monitored for the whole run and never written
        # (the loop stops at i == 5)
        assert debugger.last_write("grid[7]") is None


class TestDeterminism:
    def test_same_program_records_identical_traces(self):
        _d1, first, _w1 = record_run()
        _d2, second, _w2 = record_run()
        assert first.trace.to_bytes() == second.trace.to_bytes()
        assert first.trace.digest() == second.trace.digest()

    def test_trace_is_stride_invariant(self):
        # keyframe cadence is bookkeeping, not semantics
        _d1, first, _w1 = record_run(stride=97)
        _d2, second, _w2 = record_run(stride=2000)
        assert first.trace.to_bytes() == second.trace.to_bytes()

    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           stride=st.integers(min_value=50, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_seeded_workload_replays_byte_identical(self, seed, stride):
        source = """
        int cells[16];
        int state;
        int step() {
            state = (state * 69069 + 12345) % 2048;
            cells[state % 16] = state;
            return state;
        }
        int main() {
            register int i;
            state = SEED;
            for (i = 0; i < 12; i = i + 1) step();
            print(state);
            return 0;
        }
        """.replace("SEED", str(seed % 2048))
        traces = []
        for _ in range(2):
            debugger = Debugger.for_source(source, optimize="full")
            debugger.watch("state", action="log")
            debugger.watch("cells", action="log")
            recorder = debugger.record(stride=stride)
            reason = debugger.run()
            while reason != "exited":
                reason = debugger.run()
            traces.append(recorder.trace.to_bytes())
        assert traces[0] == traces[1]


class TestDivergenceDetection:
    def test_tampered_trace_raises_divergence_error(self):
        debugger, recorder, _w = record_run()
        position = recorder.trace.total - 2
        genuine = recorder.trace.at(position)
        recorder.trace.replace(position,
                               genuine._replace(new=genuine.new ^ 0xFF))
        with pytest.raises(DivergenceError) as excinfo:
            for _ in range(len(TOTALS) + 1):
                debugger.reverse_continue()
        assert excinfo.value.expected["new"] != \
            excinfo.value.observed["new"]
        assert excinfo.value.observed["new"] == genuine.new

    def test_tampered_keyframe_digest_raises_divergence_error(self):
        debugger, recorder, _w = record_run(stride=100)
        assert len(recorder.keyframes) > 2
        tampered = recorder.keyframes[1]
        tampered.digest ^= 0xDEAD
        back_to_keyframe = debugger.cpu.instructions - tampered.index
        with pytest.raises(DivergenceError) as excinfo:
            debugger.reverse_step(back_to_keyframe)
        assert "expected_digest" in excinfo.value.context

    def test_memory_only_divergence_raises_at_next_keyframe(self):
        """grid[7] is never read (nor written): flipping it after a
        keyframe restore leaves the executed path and every monitor hit
        unchanged, and only the state digest's memory coverage sees
        it."""
        debugger, recorder, _w = record_run(stride=100)
        assert len(recorder.keyframes) > 2
        unread = debugger.session.symbol("grid").address + 4 * 7
        recorder.restore_keyframe(recorder.keyframes[1])
        memory = debugger.cpu.mem
        memory.write_word(unread, memory.read_word(unread) ^ 1)
        with pytest.raises(DivergenceError) as excinfo:
            recorder.resume()
        assert excinfo.value.context["index"] == recorder.keyframes[2].index
        assert excinfo.value.expected["pc"] == excinfo.value.observed["pc"]

    def test_divergence_error_carries_expected_and_observed(self):
        error = DivergenceError("drift", expected_pc=1, observed_pc=2,
                                index=7)
        assert error.expected == {"pc": 1}
        assert error.observed == {"pc": 2}
        assert error.context["index"] == 7


class TestKeyframeFaultInjection:
    def test_faulted_capture_skips_keyframe_but_recording_survives(self):
        plan = FaultPlan.nth(REPLAY_KEYFRAME, 1)
        debugger, recorder, _w = record_run(stride=100, faults=plan)
        assert len(recorder.capture_faults) == 1
        assert plan.fired and plan.fired[0][0] == REPLAY_KEYFRAME
        # no torn keyframes: every published keyframe restores and
        # digest-verifies
        assert recorder.keyframes
        for keyframe in list(recorder.keyframes):
            recorder.restore_keyframe(keyframe)
            recorder.check_keyframe_digest(keyframe)
        # ... and time travel still answers correctly
        assert debugger.run() == "exited"
        assert debugger.reverse_continue() == "watch"
        assert value_of(debugger, "total") == 15

    def test_every_capture_faulting_degrades_to_structured_error(self):
        plan = FaultPlan(schedule={REPLAY_KEYFRAME: True})
        debugger, recorder, _w = record_run(stride=100, faults=plan)
        assert recorder.keyframes == []
        assert len(recorder.capture_faults) >= 1
        with pytest.raises(ReplayError) as excinfo:
            debugger.reverse_continue()
        assert "capture faults" in str(excinfo.value)

    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=8, deadline=None)
    def test_random_capture_faults_never_tear_a_keyframe(self, seed):
        plan = FaultPlan(seed=seed, rate=0.5, points=[REPLAY_KEYFRAME])
        debugger, recorder, _w = record_run(stride=60, faults=plan)
        assert len(recorder.capture_faults) == len(plan.fired)
        end = debugger.cpu.instructions
        end_digest = state_digest(debugger.cpu)
        try:
            reason = debugger.reverse_continue()
        except ReplayError as excinfo:
            # acceptable degradation: every keyframe capture faulted
            assert recorder.keyframes == []
            return
        assert reason in ("watch", "replay-start")
        if reason == "watch":
            assert value_of(debugger, "total") in TOTALS
        # forward replay reconverges bit-exactly on the frontier
        while debugger.cpu.instructions < end:
            assert debugger.run() == "exited"
        assert state_digest(debugger.cpu) == end_digest


class TestRecorderBounds:
    def test_keyframe_ring_thins_and_doubles_stride(self):
        debugger, recorder, _w = record_run(stride=20, max_keyframes=4)
        assert len(recorder.keyframes) <= 4
        assert recorder.stride > 20
        # history coverage: first keyframe kept, frontier kept
        assert recorder.keyframes[0].index == 0
        assert recorder.keyframes[-1].index <= recorder.end_index
        # travel to the oldest point still works
        assert debugger.reverse_step(debugger.cpu.instructions - 1) \
            == "step"
        assert debugger.cpu.instructions == 1

    def test_trace_ring_eviction_disables_only_dropped_prefix(self):
        debugger, recorder, _w = record_run(max_trace=3)
        assert recorder.trace.dropped == len(TOTALS) - 3
        # recent history still travels with full verification
        assert debugger.reverse_continue() == "watch"
        assert value_of(debugger, "total") == 15


class TestSessionRewindHooks:
    """Satellite: entry-checkpoint rewind must reset debugger and
    recorder statistics, not just machine state."""

    def test_fresh_session_run_resets_watch_hits_and_recording(self):
        debugger = make_debugger()
        watchpoint = debugger.watch("total", action="log")
        debugger.record(stride=200)
        assert debugger.run() == "exited"
        assert watchpoint.hit_count() == len(TOTALS)
        assert debugger.recording
        first = (debugger.cpu.instructions, list(debugger.output))
        # a fresh DebugSession.run() rewinds to the entry checkpoint:
        # watchpoint statistics and the recording reset with it, so the
        # re-run's hits are counted once, not stacked on the old run's
        assert debugger.session.run() == 0
        assert watchpoint.hit_count() == len(TOTALS)
        assert not debugger.recording
        assert (debugger.cpu.instructions, list(debugger.output)) \
            == first
        # stable across any number of fresh runs
        assert debugger.session.run() == 0
        assert watchpoint.hit_count() == len(TOTALS)
        assert (debugger.cpu.instructions, list(debugger.output)) \
            == first

    def test_checkpoint_round_trips_window_depth(self):
        from repro.machine.checkpoint import Checkpoint
        debugger = make_debugger()
        debugger.step(120)  # inside bump(): window depth is live
        cpu = debugger.cpu
        checkpoint = Checkpoint(cpu)
        saved = (cpu._window_depth, cpu.max_window_depth,
                 cpu.running, cpu.exit_code)
        assert debugger.run() == "exited"
        assert (cpu.running, cpu.exit_code) != (saved[2], saved[3])
        checkpoint.restore(cpu)
        assert (cpu._window_depth, cpu.max_window_depth,
                cpu.running, cpu.exit_code) == saved
