"""Time-travel record/replay: determinism, reverse execution,
last-write queries, divergence detection and fault injection.

The ISSUE acceptance criteria exercised here:

* ``reverse_continue`` stops at the most recent write to a monitored
  region; ``last_write`` returns (pc, instruction index, old/new value);
* recording a workload twice from the same seed yields byte-identical
  write-traces;
* ``last_write_to`` agrees with a brute-force forward scan, and every
  answer is a point of the user's own timeline;
* divergence raises :class:`DivergenceError`, never a silent wrong
  answer;
* a ``replay.keyframe`` injection fault degrades the recording (the
  keyframe is skipped and counted) but never publishes a torn keyframe.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.debugger import Debugger
from repro.errors import DivergenceError, ReplayError
from repro.faults import REPLAY_KEYFRAME, FaultPlan
from repro.isa.instructions import StoreInsn
from repro.replay import (ReplayController, WriteRecord, WriteTrace,
                          state_digest)
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


def run_to_exit(debugger):
    while debugger.run() != "exited":
        pass


def value_of(debugger, expression):
    _entry, _addr, value = debugger.evaluate(expression)
    return value


def record_run(stride=200, faults=None, watches=("total",),
               action="log", **record_options):
    debugger = make_debugger(faults=faults)
    watchpoints = {expr: debugger.watch(expr, action=action)
                   for expr in watches}
    recorder = debugger.record(stride=stride, **record_options)
    run_to_exit(debugger)
    return debugger, recorder, watchpoints


def check_answer(debugger, recorder, answer):
    """A ``last_write`` answer is a point of the user's own timeline:
    below now, and the region holds ``new`` one instruction after it
    (a scan answer's ``index`` is the store's, where it still holds
    ``old``).  Travel may fork the timeline, so it goes last."""
    travel = ReplayController(debugger, recorder).travel_to
    memory = debugger.cpu.mem
    assert answer.index < debugger.cpu.instructions
    travel(answer.index + 1)
    assert memory.read_word(answer.addr & ~3) == answer.new
    if answer.source == "scan":
        travel(answer.index)
        assert debugger.cpu.pc == answer.pc
        assert memory.read_word(answer.addr & ~3) == answer.old


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
        """The re-execution scan finds the write a recording where the
        region was monitored all along (= brute-force forward scan)
        found, and dates it in its own timeline: the store's index and
        pc, where the region holds ``old``, and ``new`` one instruction
        later.  (The brute-force run's index is its notification trap's,
        in a timeline with different checks, so it is no reference.)"""
        for watched, expression in (("total", "grid[4]"),
                                    ("grid[4]", "total")):
            scanned, recorder, _w = record_run(watches=(watched,))
            brute, _r2, _w2 = record_run(watches=(watched, expression))
            from_scan = scanned.last_write(expression)
            from_trace = brute.last_write(expression)
            assert from_scan.source == "scan"
            assert from_trace.source == "trace"
            assert (from_scan.old, from_scan.new, from_scan.addr,
                    from_scan.size) == \
                   (from_trace.old, from_trace.new, from_trace.addr,
                    from_trace.size)
            store = scanned.cpu.code.at(from_scan.pc)
            assert isinstance(store, StoreInsn) and store.tag == "orig"
            check_answer(scanned, recorder, from_scan)

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


class TestLastWriteInTheUsersTimeline:
    """The scan re-executes the timeline the user recorded, so its
    answer is a travel target there, whatever was watched when."""

    @pytest.mark.parametrize("history", ["grid-watched-a-while",
                                         "total-never-watched"])
    def test_scan_answer_is_a_travel_target(self, history):
        debugger = make_debugger()
        recorder = debugger.record(stride=50)
        if history == "grid-watched-a-while":
            debugger.step(100)
            watchpoint = debugger.watch("grid[1]")
            debugger.step(150)
            debugger.unwatch(watchpoint)
        run_to_exit(debugger)
        answer = debugger.last_write("total")
        assert answer.source == "scan"
        assert (answer.old, answer.new) == (10, 15)
        check_answer(debugger, recorder, answer)

    @pytest.mark.parametrize("tamper", ["trace", "keyframe"])
    def test_tampered_scan_window_raises_and_keeps_the_present(self,
                                                               tamper):
        """The scan replays through the verifying loop: a tampered
        trace record or keyframe digest in the window it re-executes
        raises instead of answering, and the present comes back."""
        debugger, recorder, _w = record_run(stride=100)
        if tamper == "trace":
            position = recorder.trace.total - 2
            genuine = recorder.trace.at(position)
            recorder.trace.replace(
                position, genuine._replace(new=genuine.new ^ 0xFF))
        else:
            recorder.keyframes[1].digest ^= 0xDEAD

        def present():
            return (debugger.cpu.instructions, state_digest(debugger.cpu),
                    recorder.trace.to_bytes(), recorder.mode,
                    debugger.stop_reason)

        before = present()
        with pytest.raises(DivergenceError):
            # grid[7] is unwatched and never written: the scan
            # re-executes the whole recording
            debugger.last_write("grid[7]")
        assert present() == before

    @pytest.mark.parametrize("faulted", ["first", "at-a-change"])
    def test_scan_refuses_a_window_it_cannot_replay(self, faulted):
        """With the recording's first keyframe, or the keyframe of a
        watch placed later, lost to a capture fault, the scan refuses
        rather than answer from part of the timeline or across the
        change."""
        if faulted == "first":
            plan = FaultPlan.nth(REPLAY_KEYFRAME, 0)
            debugger, recorder, _w = record_run(stride=100, faults=plan)
        else:
            plan = FaultPlan.nth(REPLAY_KEYFRAME, 1)
            debugger = make_debugger(faults=plan)
            recorder = debugger.record(stride=1000)
            debugger.step(100)
            debugger.watch("grid[1]")
            run_to_exit(debugger)
            assert recorder.monitor_changes == [100]
        assert len(recorder.capture_faults) == 1
        end = (debugger.cpu.instructions, state_digest(debugger.cpu))
        with pytest.raises(ReplayError):
            debugger.last_write("grid[7]")
        assert (debugger.cpu.instructions,
                state_digest(debugger.cpu)) == end


#: watched and unwatched in the random histories
HISTORY_WATCHES = ("total", "grid[1]", "grid[3]", "grid[4]")
#: asked about at the end of each history
HISTORY_QUERIES = ("total", "grid[1]", "grid[2]", "grid[3]", "grid[4]",
                   "grid[5]")


def random_history(seed):
    """SOURCE recorded under 12 seeded operations: steps, watches and
    unwatches, and excursions that travel back and step to the same
    index again."""
    rng = random.Random(seed)
    debugger = make_debugger()
    recorder = debugger.record(stride=rng.choice((10, 25, 50)),
                               max_keyframes=rng.choice((4, 8, 64)))
    for _ in range(12):
        operation = rng.choice(("step", "watch", "excursion"))
        if operation == "step":
            debugger.step(rng.randint(1, 60))
        elif operation == "watch":
            name = rng.choice(HISTORY_WATCHES)
            armed = [watchpoint for watchpoint in debugger.watchpoints
                     if watchpoint.name == name]
            if armed:
                debugger.unwatch(armed[0])
            else:
                debugger.watch(name, action=rng.choice(("log", "stop")))
        else:
            here = debugger.cpu.instructions
            if rng.random() < 0.5:
                debugger.reverse_step(rng.randint(1, 80))
            else:
                debugger.reverse_continue()
            while debugger.cpu.instructions < here:
                debugger.step(here - debugger.cpu.instructions)
    return debugger, recorder


class TestLastWriteHistories:
    """A seeded model check: after any history of steps, watch changes
    and excursions, every ``last_write`` answer is a travel target in
    the user's timeline.  A trace answer is dated by its notification
    trap, some 20 instructions after the store, so the region need not
    hold ``new`` at now."""

    def test_answers_are_travel_targets(self):
        for seed in range(40):
            debugger, recorder = random_history(seed)
            answers = [answer for answer in map(debugger.last_write,
                                                HISTORY_QUERIES)
                       if answer is not None]
            # travel may fork the timeline: check the newest first
            for answer in sorted(answers, key=lambda a: -a.index):
                check_answer(debugger, recorder, answer)


class TestOneOldValueShadow:
    """``$old`` and the trace's old values read the debugger's one
    shadow, so both agree even after a region is unwatched and
    watched again."""

    def test_rewatch_old_value_is_the_value_at_re_arm(self):
        debugger = make_debugger()
        recorder = debugger.record(stride=50)
        watchpoint = debugger.watch("total", action="stop")
        for _ in range(2):
            assert debugger.run() == "watch"
        assert value_of(debugger, "total") == 1
        debugger.unwatch(watchpoint)
        assert debugger.shadow == {}
        # 1 -> 3 -> 6 with nothing watching total
        while value_of(debugger, "total") != 6:
            assert debugger.step() == "step"
        debugger.watch("total", expr="$value - $old == 4", action="stop")
        assert debugger.run() == "watch"
        assert value_of(debugger, "total") == 10
        stopped = debugger.cpu.instructions
        last = list(recorder.trace)[-1]
        assert last.stop_index == stopped
        assert (last.old, last.new) == (6, 10)
        reason = debugger.run()
        while reason != "exited":
            reason = debugger.run()
        # reverse_continue stops where the live firing stopped the run
        assert debugger.reverse_continue() == "watch"
        assert debugger.cpu.instructions == stopped


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

    def test_window_register_divergence_raises_on_landing(self):
        """One flipped %l in a keyframe's checkpoint: travel that lands
        on that keyframe by restore alone checks only the state digest,
        so only its register-window coverage sees the flip."""
        debugger, recorder, _w = record_run(stride=100)
        assert len(recorder.keyframes) > 2
        keyframe = recorder.keyframes[1]
        _outs, locals_ = keyframe.checkpoint[0].windows[0]
        locals_[0] ^= 1
        with pytest.raises(DivergenceError) as excinfo:
            ReplayController(debugger, recorder).travel_to(keyframe.index)
        assert excinfo.value.context["index"] == keyframe.index
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

    def test_thinning_keeps_the_keyframe_a_watch_captured(self):
        """Replay never re-executes across a monitor-set change, so the
        keyframe a change captured survives thinning, and it does not
        count against the ring's bound."""
        debugger = make_debugger()
        recorder = debugger.record(stride=10, max_keyframes=4)
        assert debugger.step(95) == "step"
        debugger.watch("total")
        reason = debugger.run()
        while reason != "exited":
            reason = debugger.run()
        indexes = [keyframe.index for keyframe in recorder.keyframes]
        assert recorder.monitor_changes == [95]
        assert 95 in indexes
        assert len([index for index in indexes if index != 95]) <= 4
        assert debugger.reverse_step(debugger.cpu.instructions - 100) \
            == "step"
        assert debugger.cpu.instructions == 100

    def test_change_keyframes_are_bounded(self):
        """Change keyframes never thin, but at most ``max_keyframes`` of
        them are kept: past that the recording forgets its oldest
        history and starts at the oldest change keyframe it keeps."""
        debugger = make_debugger()
        recorder = debugger.record(stride=10, max_keyframes=4)
        for _ in range(40):
            debugger.step(5)
            watchpoint = debugger.watch("grid[1]")
            debugger.step(5)
            debugger.unwatch(watchpoint)
        changes = [keyframe for keyframe in recorder.keyframes
                   if keyframe.index in recorder.monitor_changes]
        assert len(changes) <= 4
        assert len(recorder.keyframes) <= 8
        start = recorder.start_index
        assert start > 0
        assert recorder.keyframes[0] is changes[0]
        assert changes[0].index == start
        assert recorder.monitor_changes == [keyframe.index
                                            for keyframe in changes]
        assert debugger.reverse_step(10 ** 9) == "replay-start"
        assert debugger.cpu.instructions == start
        reason = debugger.run()
        while reason != "exited":
            reason = debugger.run()
        assert "".join(debugger.output).strip() == "15"

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

    def test_fresh_session_run_restores_the_start_snapshot(self):
        """The rewind restores the snapshot the debugger took when it
        started the program: a watch and a control breakpoint placed
        later leave with their region and their code patch."""
        debugger = make_debugger()
        assert debugger.step(50) == "step"
        watchpoint = debugger.watch("total")
        breakpoint = debugger.break_at("bump")
        reason = debugger.run()
        while reason != "exited":
            reason = debugger.run()
        assert debugger.session.run() == 0
        assert debugger.watchpoints == [] and not debugger.mrs.regions
        debugger.unwatch(watchpoint)
        assert debugger.breakpoints == {}
        assert debugger.cpu.code.at(breakpoint.addr) is breakpoint.original
        assert "".join(debugger.output).strip() == "15"

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


def record_steps(stride, count, steps=None):
    """A recording of SOURCE driven by ``step(count)`` until it exits
    (or for *steps* calls)."""
    debugger = make_debugger()
    debugger.watch("total", action="log")
    recorder = debugger.record(stride=stride)
    calls = 0
    while debugger.step(count) != "exited":
        calls += 1
        if calls == steps:
            break
    return debugger, recorder


class TestOneForwardLoop:
    """``run``, ``step`` and time travel all move a recorded debuggee
    through ``Recorder.resume``: stepping verifies, records and captures
    keyframes exactly as running does."""

    def test_step_past_the_frontier_after_travel_records(self):
        debugger, recorder = record_steps(50, 200, steps=1)
        frontier = recorder.end_index
        recorded = recorder.trace.total
        debugger.reverse_step(30)
        # crosses one recorded hit (verified), the frontier, then new
        # hits (recorded)
        assert debugger.step(400) == "step"
        assert recorder.mode == "record"
        assert recorder.end_index == frontier - 30 + 400
        new = [record for record in recorder.trace
               if record.stop_index > frontier]
        assert new and recorder.trace.total == recorded + len(new)
        reference, straight = record_steps(50, frontier - 30 + 400,
                                           steps=1)
        assert recorder.trace.to_bytes() == straight.trace.to_bytes()
        assert state_digest(debugger.cpu) == state_digest(reference.cpu)

    def test_stepping_captures_keyframes_as_run_does(self):
        _debugger, ran, _w = record_run(stride=50)
        debugger, stepped = record_steps(50, 37)
        assert len(stepped.keyframes) > 1
        assert [keyframe.index for keyframe in stepped.keyframes] == \
            [keyframe.index for keyframe in ran.keyframes]
        assert [keyframe.digest for keyframe in stepped.keyframes] == \
            [keyframe.digest for keyframe in ran.keyframes]
        assert stepped.trace.to_bytes() == ran.trace.to_bytes()
        # a step back re-executes less than a stride, not the recording
        assert debugger.reverse_step(1) == "step"
        here = debugger.cpu.instructions
        assert here - stepped.nearest_keyframe(here).index < 50

    @pytest.mark.parametrize("forward", ["run", "step"])
    def test_tampered_keyframe_digest_stops_forward_replay(self, forward):
        debugger, recorder, _w = record_run(stride=100)
        tampered = recorder.keyframes[3]
        tampered.digest ^= 0xDEAD
        debugger.reverse_step(debugger.cpu.instructions
                              - (tampered.index - 50))
        with pytest.raises(DivergenceError) as excinfo:
            getattr(debugger, forward)(10 ** 6)
        assert excinfo.value.context["index"] == tampered.index
        assert debugger.cpu.instructions == tampered.index

    @pytest.mark.parametrize("recorded", [False, True])
    def test_run_and_step_after_exit_return_exited(self, recorded):
        debugger = make_debugger()
        debugger.watch("total", action="log")
        if recorded:
            debugger.record(stride=50)
        assert debugger.run() == "exited"
        end = (debugger.cpu.instructions, list(debugger.output))
        for forward in (debugger.run, debugger.step,
                        lambda: debugger.step(25)):
            assert forward() == "exited"
            assert debugger.stop_reason == "exited"
            assert (debugger.cpu.instructions,
                    list(debugger.output)) == end

    def test_run_after_travel_and_exit_returns_exited(self):
        debugger, _recorder, _w = record_run(stride=50)
        end = debugger.cpu.instructions
        debugger.reverse_step(40)
        assert debugger.step(100) == "exited"
        assert debugger.cpu.instructions == end
        assert debugger.run() == "exited"
        assert debugger.step() == "exited"
        assert debugger.cpu.instructions == end

    def test_travel_leaves_recording_wall_time_unchanged(self):
        debugger, recorder, _w = record_run()
        spent = recorder.wall_time_s
        assert spent > 0
        assert debugger.reverse_continue() == "watch"
        assert debugger.reverse_step(25) == "step"
        assert debugger.reverse_continue() == "watch"
        assert recorder.wall_time_s == spent
        # forward execution under the recording is still counted
        assert debugger.run() == "exited"
        assert recorder.wall_time_s > spent

    @pytest.mark.parametrize("recorded", [False, True])
    def test_run_zero_retires_one_instruction_then_limits(self, recorded):
        from repro.machine.cpu import SimulationLimit

        debugger = make_debugger()
        if recorded:
            debugger.record(stride=50)
        with pytest.raises(SimulationLimit) as excinfo:
            debugger.run(0)
        assert excinfo.value.budget == "instructions"
        assert debugger.cpu.instructions == 1
        with pytest.raises(SimulationLimit):
            debugger.run(30)
        assert debugger.cpu.instructions == 31
        assert debugger.run() == "exited"
        assert "".join(debugger.output).strip() == "15"

    @pytest.mark.parametrize("recorded", [False, True])
    def test_step_zero_retires_nothing(self, recorded):
        debugger = make_debugger()
        if recorded:
            debugger.record(stride=50)
        assert debugger.step(0) == "step"
        assert debugger.cpu.instructions == 0
        assert debugger.step(7) == "step"
        assert debugger.step(0) == "step"
        assert debugger.cpu.instructions == 7


class TestControlBreakpointsAcrossTravel:
    def test_travel_back_past_break_at_drops_the_breakpoint(self):
        debugger = make_debugger()
        recorder = debugger.record(stride=20)
        assert debugger.step(150) == "step"
        placed = debugger.cpu.instructions
        breakpoint = debugger.break_at("bump")
        assert debugger.run() == "breakpoint:bump"
        entered = debugger.cpu.instructions
        assert breakpoint.hits == 1
        # after the break, before its first hit: listed, hit count 0
        debugger.reverse_step(entered - placed - 5)
        assert list(debugger.breakpoints.values()) == [breakpoint]
        assert breakpoint.hits == 0
        # before the break: the patch and the table entry are gone
        debugger.reverse_step(25)
        assert recorder.end_index == placed - 20
        assert debugger.breakpoints == {}
        again = debugger.break_at("bump")
        assert debugger.run() == "breakpoint:bump"
        assert again.hits == 1
        assert debugger.breakpoints == {again.block_addr: again}


class TestMonitorChangeOnAStrideBoundary:
    """A breakpoint or watchpoint set where a keyframe was just captured
    (at a stride boundary, or where the recording starts) replaces that
    keyframe, so travelling back to the change, or just after it,
    restores the changed state."""

    @pytest.mark.parametrize("after", [0, 5])
    def test_break_at_survives_travel_back(self, after):
        debugger = make_debugger()
        recorder = debugger.record(stride=20)
        assert debugger.step(160) == "step"
        placed = debugger.cpu.instructions
        assert recorder.keyframes[-1].index == placed
        breakpoint = debugger.break_at("bump")
        assert debugger.run() == "breakpoint:bump"
        entered = debugger.cpu.instructions
        debugger.reverse_step(entered - placed - after)
        assert debugger.cpu.instructions == placed + after
        assert list(debugger.breakpoints.values()) == [breakpoint]
        assert breakpoint.hits == 0
        assert debugger.run() == "breakpoint:bump"
        assert debugger.cpu.instructions == entered
        assert breakpoint.hits == 1
        assert debugger.run() == "breakpoint:bump"
        assert breakpoint.hits == 2

    @pytest.mark.parametrize("after", [0, 5])
    def test_watch_survives_travel_back(self, after):
        debugger = make_debugger()
        recorder = debugger.record(stride=20)
        assert debugger.step(160) == "step"
        placed = debugger.cpu.instructions
        assert recorder.keyframes[-1].index == placed
        watchpoint = debugger.watch("total", action="stop")
        assert debugger.run() == "watch"
        hit = debugger.cpu.instructions
        debugger.reverse_step(hit - placed - after)
        assert debugger.cpu.instructions == placed + after
        assert debugger.watchpoints == [watchpoint]
        assert debugger.run() == "watch"
        assert debugger.cpu.instructions == hit
        while debugger.run() != "exited":
            pass
        assert "".join(debugger.output).strip() == "15"

    def test_break_at_right_after_record_survives_travel_to_start(self):
        debugger = make_debugger()
        recorder = debugger.record(stride=20)
        breakpoint = debugger.break_at("bump")
        assert [keyframe.index for keyframe in recorder.keyframes] == [0]
        assert debugger.run() == "breakpoint:bump"
        entered = debugger.cpu.instructions
        assert debugger.reverse_continue() == "replay-start"
        assert debugger.cpu.instructions == 0
        assert list(debugger.breakpoints.values()) == [breakpoint]
        assert debugger.run() == "breakpoint:bump"
        assert debugger.cpu.instructions == entered


#: SOURCE with a second global written after each iteration's total
LIMITED = SOURCE.replace("int grid[8];", "int grid[8];\nint limit;").replace(
    "grid[i] = total;", "grid[i] = total;\n        limit = i;")

READS = """
int g;
int t;
int main() {
    g = 1;
    t = g;
    g = 2;
    t = t + g;
    print(t);
    return 0;
}
"""

#: (source, monitor_reads, watched name, watch options, record options)
WATCH_KINDS = {
    "plain": (SOURCE, False, "total", {}, {}),
    "predicate": (SOURCE, False, "total", {"expr": "$value > 4"}, {}),
    "callable": (SOURCE, False, "total",
                 {"condition": lambda value: value % 2 == 1}, {}),
    "reads-memory": (LIMITED, False, "total", {"expr": "limit == 2"}, {}),
    "rise-evicted": (SOURCE, False, "total",
                     {"expr": "$value > 4", "when": "rise"},
                     {"max_trace": 2}),
    "plain-reads": (READS, True, "g", {}, {}),
}


class TestOneFiringRule:
    """``reverse_continue`` lands where the live engine fired: it reads
    the watchpoints' firing logs, so every watch kind walks back over
    exactly the forward stops, whatever the trace can re-evaluate."""

    @pytest.mark.parametrize("kind", sorted(WATCH_KINDS))
    def test_reverse_lands_on_the_forward_stops(self, kind):
        source, reads, name, options, record_options = WATCH_KINDS[kind]
        debugger = Debugger.for_source(source, optimize="full",
                                       monitor_reads=reads)
        watchpoint = debugger.watch(name, action="stop", **options)
        recorder = debugger.record(stride=50, **record_options)
        forward = []
        while debugger.run() == "watch":
            forward.append(debugger.cpu.instructions)
        assert forward
        backward = []
        while debugger.reverse_continue() == "watch":
            assert debugger.stopped_watch is watchpoint
            assert debugger.stopped_watch in debugger.watchpoints
            backward.append(debugger.cpu.instructions)
        assert backward == forward[::-1]
        assert debugger.stop_reason == "replay-start"
        assert debugger.cpu.instructions == recorder.start_index

    def test_a_watch_armed_after_the_firings_never_stops_reverse(self):
        """Travel restores a keyframe from before a late watch existed,
        so its region's earlier writes are no stops; ``last_write`` is
        the query for them."""
        debugger = make_debugger()
        debugger.watch("total", expr="$value == 100")
        recorder = debugger.record(stride=50)
        assert debugger.run() == "exited"
        late = debugger.watch("total")
        assert debugger.reverse_continue() == "replay-start"
        assert debugger.stopped_watch is None
        assert debugger.cpu.instructions == recorder.start_index
        assert late not in debugger.watchpoints
