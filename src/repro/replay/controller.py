"""Time travel: reverse-continue / reverse-step / last-write-to.

The controller answers "what happened before now?" questions with the
only primitive a deterministic simulator needs: restore the nearest
keyframe at or before the target and re-execute forward with the MRS
armed.  Re-execution goes through :meth:`Recorder.resume`, the loop
``run`` and ``step`` use, in the recorder's ``replay`` mode, so every
monitor hit is verified against the recorded trace and every keyframe
crossing checks a state digest — a drifted replay raises
:class:`~repro.errors.DivergenceError` instead of stopping at a wrong
point in time.

``reverse_continue`` decides nothing itself: it travels back to the
newest firing in the watchpoints' own firing logs (``Watchpoint.hits``,
one entry per firing with its instruction index, rewound with every
keyframe restore), so it stops exactly where the live engine fired.

``last_write_to`` has two paths:

* **trace query** — when the asked-about region has been continuously
  monitored since before the candidate write, the recorded trace
  already holds the answer;
* **re-execution scan** — otherwise the controller checkpoints the
  present, rewinds to the oldest keyframe, arms a temporary watchpoint
  over the region (``PreMonitor`` + ``CreateMonitoredRegion``, so
  optimizer-eliminated checks are re-inserted) and re-executes to the
  current point in monitoring-invariant time — the count of original
  (``orig``) instructions, which an extra monitored region cannot
  perturb, then on through inserted code up to the next original
  instruction — collecting hits; the present is then restored
  bit-exactly.  The ``lib`` count is not invariant: arming the scanned
  region activates Kessler patches whose checks call the MRS library.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.errors import DivergenceError, ReplayError
from repro.replay.recorder import Recorder
from repro.replay.trace import WriteRecord

__all__ = ["LastWrite", "ReplayController"]


class LastWrite(NamedTuple):
    """The answer to ``last_write_to``: who wrote this region last."""

    pc: int       #: notification-trap pc of the write
    index: int    #: instruction index of the write
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
        if any(target < change <= recorder.end_index
               for change in recorder.monitor_changes):
            # the future beyond target assumed a different monitor set;
            # it cannot be verified from here, so fork the timeline
            recorder.truncate_future(target)

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

    def last_write_to(self, start: int, size: int,
                      expression: Optional[str] = None,
                      func: Optional[str] = None
                      ) -> Optional[LastWrite]:
        """Most recent write to ``[start, start+size)`` at or before
        the current point in time, or None if it was never written.

        *expression* (a watchable name resolving to the region) enables
        the re-execution scan when the region was not monitored for the
        whole recording; without it, an unmonitored region raises
        :class:`ReplayError` rather than answering incompletely.
        """
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
        if expression is None:
            raise ReplayError(
                "region 0x%x+%d was not monitored for the whole "
                "recording; pass the symbol name so a re-execution "
                "scan can arm it" % (start, size),
                start=start, size=size)
        return self._scan_last_write(start, size, expression, func)

    def _scan_last_write(self, start: int, size: int, expression: str,
                         func: Optional[str]) -> Optional[LastWrite]:
        debugger = self.debugger
        cpu = self.cpu
        recorder = self.recorder
        if not recorder.keyframes:
            raise ReplayError("no keyframes to scan from",
                              capture_faults=len(recorder.capture_faults))
        origin = recorder.keyframes[0]
        target_progress = cpu.tag_counts.get("orig", 0)
        # save the present (including recorder state the scan perturbs)
        saved = debugger.checkpoint()
        saved_mode, saved_cursor = recorder.mode, recorder._cursor
        saved_stop = (debugger.stop_reason, debugger.stopped_watch)
        hits: List[WriteRecord] = []
        recorder._in_hook = True
        try:
            recorder.restore_keyframe(origin, mode="scan")
            recorder._scan_hits = hits
            # arming seeds the debugger's shadow over the region from
            # memory at the origin, so scanned hits carry true old values
            temp = debugger.watch(expression, func=func, action="log")
            exited = False
            while not exited:
                # an orig instruction advances progress by exactly one,
                # so a chunk of `remaining` instructions can reach but
                # never overshoot the target progress
                remaining = target_progress - cpu.tag_counts.get("orig", 0)
                if remaining <= 0:
                    break
                exited = debugger._step_raw(remaining) == "exited"
            # the final landed store's check sequence (and its
            # notification trap) may still be pending: drain inserted
            # instructions up to — not including — the next original one
            for _ in range(256):
                if exited:
                    break
                insn = cpu.code.at(cpu.pc)
                if insn is None or insn.tag == "orig":
                    break
                exited = debugger._step_raw(1) == "exited"
            temp.delete()
        finally:
            recorder._scan_hits = None
            recorder._in_hook = False
            debugger.restore(saved, discard_recording=False)
            recorder.mode, recorder._cursor = saved_mode, saved_cursor
            debugger.stop_reason, debugger.stopped_watch = saved_stop
        last: Optional[WriteRecord] = None
        for record in hits:
            if not record.is_read and record.overlaps(start, size):
                last = record
        if last is None:
            return None
        return LastWrite(last.pc, last.index, last.old, last.new,
                         last.addr, last.size, "scan")
