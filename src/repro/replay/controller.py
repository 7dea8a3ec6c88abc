"""Time travel: reverse-continue / reverse-step / last-write-to.

The controller answers "what happened before now?" questions with the
only primitive a deterministic simulator needs: restore a keyframe at
or before the target and re-execute forward with the MRS armed.
Re-execution goes through :meth:`Recorder.resume`, the loop ``run``
and ``step`` use, in the recorder's ``replay`` mode, so every monitor
hit is verified against the recorded trace and every keyframe crossing
checks a state digest — a drifted replay raises
:class:`~repro.errors.DivergenceError` instead of stopping at a wrong
point in time.

``reverse_continue`` decides nothing itself: it travels back to the
newest firing in the watchpoints' own firing logs (``Watchpoint.hits``,
one entry per firing with its instruction index, rewound with every
keyframe restore), so it stops exactly where the live engine fired.

``last_write_to`` has two paths:

* **trace query** — when the asked-about region has been continuously
  monitored since before the candidate write, the recorded trace
  already holds the answer, dated by its notification trap;
* **re-execution scan** — otherwise the controller checkpoints the
  present and re-executes the user's own recorded timeline, newest
  keyframe segment first, by the same verified replay travel uses.  It
  arms no watchpoint and leaves the monitor set alone; it observes the
  region's original (``orig``) stores through the memory's store hook
  (:attr:`Memory.fault_handler <repro.machine.memory.Memory.
  fault_handler>`), which runs before the store lands, so an answer
  names the store's own pc and instruction index.  The first segment
  holding such a store answers, and the present is then restored
  bit-exactly.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.errors import DivergenceError, ReplayError
from repro.replay.recorder import Keyframe, Recorder

__all__ = ["LastWrite", "ReplayController"]


class LastWrite(NamedTuple):
    """The answer to ``last_write_to``: who wrote this region last."""

    #: pc of the write's notification trap (``trace``) or of the store
    #: itself (``scan``)
    pc: int
    #: instruction index of that trap (``trace``) or store (``scan``);
    #: the region holds ``new`` from ``index + 1`` on
    index: int
    old: int      #: word value before the write
    new: int      #: word value after the write
    addr: int     #: written address
    size: int     #: access width in bytes
    source: str   #: "trace" (recorded) or "scan" (re-executed)


class ReplayController:
    """Reverse execution over one :class:`Recorder`'s history."""

    def __init__(self, debugger, recorder: Recorder):
        self.debugger = debugger
        self.recorder = recorder
        self.cpu = debugger.cpu

    # -- travel ------------------------------------------------------------

    def travel_to(self, target: int) -> None:
        """Move the debuggee back to instruction index *target* (within
        the recorded window): restore the nearest keyframe at or before
        it, then re-execute forward through :meth:`Recorder.resume`,
        which verifies each hit and keyframe on the way."""
        recorder = self.recorder
        cpu = self.cpu
        target = max(recorder.start_index,
                     min(target, recorder.end_index))
        if target == cpu.instructions:
            return
        keyframe = recorder.nearest_keyframe(target)
        if keyframe is None:
            raise ReplayError(
                "no keyframe at or before index %d (capture faults: %d)"
                % (target, len(recorder.capture_faults)), target=target)
        if any(keyframe.index < change <= target
               for change in recorder.monitor_changes):
            # the only keyframe available predates a monitor-set change
            # (its capture must have faulted); re-execution across the
            # change cannot reproduce the recording
            raise ReplayError(
                "cannot replay across a monitor-set change (keyframe at "
                "%d, target %d)" % (keyframe.index, target),
                keyframe=keyframe.index, target=target)
        self._replay(keyframe, target)
        if any(target < change <= recorder.end_index
               for change in recorder.monitor_changes):
            # the future beyond target assumed a different monitor set;
            # it cannot be verified from here, so fork the timeline
            recorder.truncate_future(target)

    def _replay(self, keyframe: Keyframe, target: int) -> None:
        """Restore *keyframe* and re-execute recorded time up to
        instruction index *target* through :meth:`Recorder.resume`."""
        recorder = self.recorder
        cpu = self.cpu
        recorder.restore_keyframe(keyframe)
        if keyframe.index == target:
            # landed by restore alone: verify it as re-execution landing
            # here would have
            recorder.check_keyframe_digest(keyframe)
        spent = recorder.wall_time_s
        try:
            while cpu.instructions < target:
                # stop-action watchpoints fire during replay too; they
                # are overridden until the target is reached
                reason = recorder.resume(target - cpu.instructions)
                if reason == "exited" and cpu.instructions < target:
                    raise DivergenceError(
                        "program exited early during replay",
                        index=cpu.instructions, target=target,
                        observed_pc=cpu.pc)
        finally:
            # re-executing recorded time is travel, not recording
            recorder.wall_time_s = spent

    # -- reverse execution --------------------------------------------------

    def reverse_step(self, count: int = 1) -> str:
        """Step *count* instructions backwards; returns the stop reason
        ("step", or "replay-start" when clamped at the recording's
        start)."""
        recorder = self.recorder
        target = self.cpu.instructions - max(1, count)
        clamped = target < recorder.start_index
        self.travel_to(target)
        self.debugger.stop_reason = ("replay-start" if clamped
                                     else "step")
        self.debugger.stopped_watch = None
        return self.debugger.stop_reason

    def reverse_continue(self) -> str:
        """Run backwards to where the newest earlier firing of an
        armed, enabled watchpoint stopped the live run, read off the
        watchpoints' firing logs, and return "watch"; with no such
        firing since the recording's start, travel there and return
        "replay-start".  A later watchpoint in list order wins a tie."""
        debugger = self.debugger
        start = self.recorder.start_index
        now = self.cpu.instructions
        best = None
        for order, watchpoint in enumerate(debugger.watchpoints):
            if not watchpoint.enabled:
                continue
            # the log holds this timeline's firings in index order, so
            # the newest one stopping before now is at its end
            for _addr, _size, _value, index in reversed(watchpoint.hits):
                if index < start:
                    break
                if index + 1 < now:
                    if best is None or (index, order) > best[0]:
                        best = ((index, order), watchpoint)
                    break
        if best is None:
            self.travel_to(start)
            debugger.stop_reason = "replay-start"
            debugger.stopped_watch = None
            return "replay-start"
        (index, _order), watchpoint = best
        self.travel_to(index + 1)
        debugger.stop_reason = "watch"
        debugger.stopped_watch = watchpoint
        return "watch"

    # -- last-write queries --------------------------------------------------

    def last_write_to(self, start: int, size: int) -> Optional[LastWrite]:
        """Most recent write to ``[start, start+size)`` before the
        current point in time, or None if it was never written while
        recorded.  Answered from the trace when the region has been
        monitored since before the candidate write, else by a
        re-execution scan of the recorded timeline."""
        recorder = self.recorder
        now = self.cpu.instructions
        record = recorder.trace.last_write_to(start, size,
                                              before_index=now)
        covered = recorder.covered_since(start, size)
        if record is not None and covered is not None \
                and covered <= record.index:
            return LastWrite(record.pc, record.index, record.old,
                             record.new, record.addr, record.size,
                             "trace")
        if record is None and covered is not None \
                and covered <= recorder.start_index \
                and recorder.trace.dropped == 0:
            return None  # provably never written while recorded
        return self._scan_last_write(start, size)

    def _scan_last_write(self, start: int, size: int
                         ) -> Optional[LastWrite]:
        """Re-execute the recorded timeline one keyframe segment at a
        time, newest first, watching the region's ``orig`` stores from
        the store hook; the newest store of the first segment that has
        one answers.  The hook runs before the store lands, so ``old``
        is read there and ``new`` is the written word at the segment's
        end, which no later store in the segment touched."""
        debugger = self.debugger
        cpu = self.cpu
        mem = cpu.mem
        recorder = self.recorder
        stores = []

        def on_store(addr: int, width: int) -> None:
            if addr < start + size and start < addr + width \
                    and cpu.code.at(cpu.pc).tag == "orig":
                stores.append((cpu.pc, cpu.instructions, addr, width,
                               mem.read_word(addr & ~3)))

        # save the present (including recorder state the scan perturbs)
        saved = debugger.checkpoint()
        saved_mode, saved_cursor = recorder.mode, recorder._cursor
        saved_stop = (debugger.stop_reason, debugger.stopped_watch)
        saved_hook = (mem.fault_handler, set(mem.protected_pages))
        end = cpu.instructions
        mem.fault_handler = on_store
        mem.protect_range(start, size)
        try:
            for keyframe in reversed(recorder.keyframes):
                if keyframe.index >= end:
                    continue
                if any(keyframe.index < change < end
                       for change in recorder.monitor_changes):
                    raise ReplayError(
                        "cannot scan across a monitor-set change "
                        "(keyframe at %d, segment end %d)"
                        % (keyframe.index, end),
                        keyframe=keyframe.index, target=end)
                self._replay(keyframe, end)
                if stores:
                    pc, index, addr, width, old = stores[-1]
                    return LastWrite(pc, index, old,
                                     mem.read_word(addr & ~3), addr,
                                     width, "scan")
                end = keyframe.index
            if end > recorder.start_index:
                # the oldest keyframe's capture faulted
                raise ReplayError(
                    "no keyframe at or before index %d (capture faults: "
                    "%d)" % (end - 1, len(recorder.capture_faults)),
                    target=end - 1)
            return None
        finally:
            mem.fault_handler, mem.protected_pages = saved_hook
            debugger.restore(saved, discard_recording=False)
            recorder.mode, recorder._cursor = saved_mode, saved_cursor
            debugger.stop_reason, debugger.stopped_watch = saved_stop
