"""Recorder: keyframe ring + write-trace capture during execution.

The recorder drives the debuggee in keyframe-stride chunks, capturing
a full debugger checkpoint (machine + MRS + watchpoint bookkeeping,
the debugger's old-value shadow included) every ``stride``
instructions into a bounded ring, and logging every monitor
notification the debugger's MRS hook hands it (:meth:`Recorder.on_hit`,
with the old value read from that shadow) into a
:class:`~repro.replay.trace.WriteTrace`.  The recorder holds no watch
state of its own and registers no MRS callback.
:meth:`Recorder.resume` is the one loop that moves a recorded debuggee
forward: ``Debugger.run``, ``Debugger.step``, time travel and the
last-write scan all go through it.
The simulator has no external inputs, so a keyframe plus forward
re-execution reproduces any recorded point exactly — that is the whole
replay contract, and the recorder verifies it: while re-executing over
already-recorded time (``mode == "replay"``) each observed hit is
compared against the recorded one and each keyframe crossing checks a
state digest, raising :class:`~repro.errors.DivergenceError` on any
drift rather than silently answering from a wrong timeline.  The one
keyframe it does not check is one captured at a monitor-set change:
it holds the state after the debugger's change, and only the
last-write scan re-executes up to one from before it.

Keyframe ring eviction keeps geometric coverage: when the ring fills,
the first and newest keyframes are kept, every other interior one is
dropped, and the effective stride doubles — old history gets sparser
instead of disappearing.  Keyframes captured at a monitor-set change
are never thinned, and do not count against that bound: replay must
not re-execute across a change.  At most ``max_keyframes`` of them are
kept; past that the recording forgets its oldest history, and its
start moves up to the oldest change keyframe it keeps.

Fault injection: each keyframe capture passes through the
``replay.keyframe`` injection point *before* the keyframe is
published to the ring, so an injected fault degrades the recording
(that keyframe is skipped and counted in :attr:`capture_faults`) but
can never publish a torn keyframe.
"""

from __future__ import annotations

import hashlib
import struct
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DivergenceError, InjectedFault, ReplayError
from repro.faults import REPLAY_KEYFRAME
from repro.machine.state import memory_bytes, patch_bytes
from repro.replay.trace import WriteRecord, WriteTrace

__all__ = ["Keyframe", "Recorder", "monitor_set_digest", "state_digest"]

DEFAULT_STRIDE = 2000
DEFAULT_MAX_KEYFRAMES = 32
DEFAULT_MAX_TRACE = 65536

_WORD = 0xFFFFFFFF


def state_digest(cpu) -> int:
    """CRC-32 digest of the machine state replay must reproduce.

    Covers pc/npc, condition codes, the global registers, the outs and
    locals of every register window, window depth, the
    instruction/load/store counters, data memory and the code slots
    that differ from the program image — sensitive to any drift in the
    executed path, and to a divergence confined to registers, memory or
    patched code.  Cheap enough for every keyframe: memory is a few
    hundred words, and an unpatched code slot is one identity compare.
    """
    regs = cpu.regs
    data = struct.pack(">IIBBBBQQ", cpu.pc & _WORD, cpu.npc & _WORD,
                       cpu.icc_n & 1, cpu.icc_z & 1, cpu.icc_v & 1,
                       cpu.icc_c & 1, cpu.instructions, cpu.stores)
    words = list(regs.globals)
    window = regs._window
    while window is not None:
        words += window.outs
        words += window.locals
        window = window.parent
    data += struct.pack(">%dI" % len(words),
                        *[value & _WORD for value in words])
    data += struct.pack(">II", regs.depth & _WORD, cpu.loads & _WORD)
    crc = zlib.crc32(data)
    crc = zlib.crc32(memory_bytes(cpu.mem.words), crc)
    crc = zlib.crc32(patch_bytes(cpu.code.insns, cpu.code.image), crc)
    return crc & 0xFFFFFFFF


def monitor_set_digest(mrs) -> str:
    """Deterministic digest of the monitored-region set — part of a
    trace's run-metadata header, so two recordings are only treated as
    the same run when they watched the same addresses."""
    spans = sorted((region.start, region.size) for region in mrs.regions)
    data = ",".join("%x+%x" % span for span in spans).encode("ascii")
    return hashlib.sha256(data).hexdigest()[:16]


class Keyframe:
    """One point-in-time anchor: a checkpoint plus replay metadata."""

    __slots__ = ("index", "checkpoint", "trace_pos", "digest")

    def __init__(self, index: int, checkpoint, trace_pos: int,
                 digest: int):
        self.index = index          #: cpu.instructions at capture
        self.checkpoint = checkpoint  #: Debugger.checkpoint() payload
        self.trace_pos = trace_pos  #: trace.total at capture
        self.digest = digest        #: state_digest at capture

    def __repr__(self) -> str:
        return "<Keyframe @%d trace_pos=%d digest=0x%08x>" % (
            self.index, self.trace_pos, self.digest)


class Recorder:
    """Record (and verify re-execution of) one debugger's execution."""

    def __init__(self, debugger, stride: int = DEFAULT_STRIDE,
                 max_keyframes: int = DEFAULT_MAX_KEYFRAMES,
                 max_trace: int = DEFAULT_MAX_TRACE, faults=None):
        if stride < 1:
            raise ReplayError("keyframe stride must be positive",
                              stride=stride)
        if max_trace < 1:
            raise ReplayError("trace capacity must be positive",
                              max_trace=max_trace)
        self.debugger = debugger
        self.cpu = debugger.cpu
        self.stride = stride
        self.base_stride = stride
        self.max_keyframes = max(2, max_keyframes)
        self.trace = WriteTrace(max_records=max_trace)
        self.keyframes: List[Keyframe] = []
        self.faults = faults if faults is not None \
            else getattr(debugger.mrs, "faults", None)
        #: "record" (frontier) or "replay" (verifying re-execution over
        #: recorded time)
        self.mode = "record"
        #: (region_start, region_size) -> covered-since index
        self.coverage: Dict[Tuple[int, int], int] = {}
        #: instruction indexes at which the monitor set changed
        self.monitor_changes: List[int] = []
        #: (index, InjectedFault) per keyframe capture that faulted
        self.capture_faults: List[Tuple[int, InjectedFault]] = []
        self.start_index = 0
        #: frontier: highest instruction index recorded so far
        self.end_index = 0
        self._cursor: Optional[int] = None
        #: wall-clock seconds spent inside resume() by run and step —
        #: recording cost, reported to the store's run header (not part
        #: of the trace bytes: wall time is not deterministic); time
        #: travel leaves it unchanged
        self.wall_time_s = 0.0

    # -- run metadata ------------------------------------------------------

    def set_meta(self, **fields: Any) -> None:
        """Attach run-identity metadata to the trace header.

        Only deterministic facts (workload name, scale, seed, ...) may
        go here — the metadata is serialised into the canonical trace
        bytes, so it participates in the digest and the store's
        content address.  ``None`` values are dropped.
        """
        for key, value in fields.items():
            if value is None:
                self.trace.meta.pop(key, None)
            else:
                self.trace.meta[key] = value

    def export(self, wall_time_s: Optional[float] = None):
        """Package this recording for the persistent store.

        Returns a :class:`repro.store.ingest.RecordingExport`: the
        canonical trace bytes (run metadata completed with the
        monitor-set digest and stride, so the bytes are
        self-describing), the program image once, every keyframe's
        machine checkpoint encoded against it for content-addressed
        dedup, and the run statistics for the store's run header.
        """
        from repro.store.ingest import export_recording

        return export_recording(
            self, wall_time_s=(wall_time_s if wall_time_s is not None
                               else self.wall_time_s))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin recording from the debuggee's current state."""
        self.start_index = self.end_index = self.cpu.instructions
        for region in self.debugger.mrs.regions:
            self.coverage.setdefault(region.key(), self.start_index)
        self._capture_keyframe()

    # -- coverage ----------------------------------------------------------

    def covered_since(self, start: int, size: int) -> Optional[int]:
        """Earliest index since which every word of ``[start,
        start+size)`` has been continuously monitored, or None if any
        word is uncovered now."""
        since = self.start_index
        for word in range((start & ~3), (start + size + 3) & ~3, 4):
            entry = None
            for (rstart, rsize), rsince in self.coverage.items():
                if rstart <= word < rstart + rsize:
                    entry = rsince
                    break
            if entry is None:
                return None
            since = max(since, entry)
        return since

    def on_monitor_change(self) -> None:
        """The debugger changed the watchpoint/region set, or patched
        code for a control breakpoint.

        A change while time-travelled into recorded history forks the
        timeline: the now-stale future is discarded.  Either way a
        keyframe is captured at the change point so later replays never
        have to re-execute *across* a monitor-set change (which would
        diverge, since the change is a debugger action re-execution
        cannot reproduce).
        """
        now = self.cpu.instructions
        if now < self.end_index or self.mode == "replay":
            self.truncate_future(now)
        if not self.monitor_changes or self.monitor_changes[-1] != now:
            self.monitor_changes.append(now)
        current = {region.key() for region in self.debugger.mrs.regions}
        for key in list(self.coverage):
            if key not in current:
                del self.coverage[key]
        for key in current:
            self.coverage.setdefault(key, now)
        if self.keyframes and self.keyframes[-1].index == now:
            # captured before the change (a stride boundary, the
            # recording's start or an earlier change at this index):
            # replace it, so restoring this index yields the state the
            # change left
            self.keyframes.pop()
        self._capture_keyframe()

    def truncate_future(self, now: int) -> None:
        """Discard every recorded fact later than instruction *now*."""
        position = self.trace.total
        for record in reversed(list(self.trace)):
            if record.stop_index <= now:
                break
            position -= 1
        self.trace.truncate(position)
        self.keyframes = [keyframe for keyframe in self.keyframes
                          if keyframe.index <= now]
        self.monitor_changes = [index for index in self.monitor_changes
                                if index <= now]
        self.end_index = now
        self.mode = "record"
        self._cursor = None

    # -- keyframes ---------------------------------------------------------

    def _capture_keyframe(self) -> Optional[Keyframe]:
        """Capture a keyframe at the current instruction boundary.

        Transactional against fault injection: the ``replay.keyframe``
        point trips before anything is published, so a fault skips the
        keyframe entirely — the ring never holds a torn entry.
        """
        index = self.cpu.instructions
        if self.keyframes and self.keyframes[-1].index == index:
            return self.keyframes[-1]
        try:
            if self.faults is not None:
                self.faults.trip(REPLAY_KEYFRAME, index=index,
                                 pc=self.cpu.pc)
            keyframe = Keyframe(index, self.debugger.checkpoint(),
                                self.trace.total, state_digest(self.cpu))
        except InjectedFault as exc:
            self.capture_faults.append((index, exc))
            return None
        self.keyframes.append(keyframe)
        changes = set(self.monitor_changes)
        kept = [frame.index for frame in self.keyframes
                if frame.index in changes]
        if len(kept) > self.max_keyframes:
            # change keyframes never thin: forget the oldest history
            start = self.start_index = kept[-self.max_keyframes]
            self.keyframes = [frame for frame in self.keyframes
                              if frame.index >= start]
            self.monitor_changes = [index for index in self.monitor_changes
                                    if index >= start]
        thinnable = [frame for frame in self.keyframes
                     if frame.index not in changes]
        if len(thinnable) > self.max_keyframes:
            self._thin_keyframes(thinnable)
        return keyframe

    def _thin_keyframes(self, thinnable: List[Keyframe]) -> None:
        """Of the *thinnable* keyframes (those not captured at a
        monitor-set change, which replay must never cross), keep the
        first and newest, drop every other interior one, and double the
        stride — bounded memory with geometric history coverage."""
        dropped = thinnable[2:-1:2]
        self.keyframes = [keyframe for keyframe in self.keyframes
                          if keyframe not in dropped]
        self.stride *= 2

    def nearest_keyframe(self, target: int) -> Optional[Keyframe]:
        """Newest keyframe at or before instruction *target*."""
        best = None
        for keyframe in self.keyframes:
            if keyframe.index <= target:
                best = keyframe
        return best

    def restore_keyframe(self, keyframe: Keyframe) -> None:
        """Rewind the debugger to *keyframe* and arm verification."""
        self.debugger.restore(keyframe.checkpoint, discard_recording=False)
        self.mode = "replay"
        self._cursor = (keyframe.trace_pos
                        if keyframe.trace_pos >= self.trace.base else None)

    def check_keyframe_digest(self, keyframe: Keyframe) -> None:
        observed = state_digest(self.cpu)
        if observed != keyframe.digest:
            raise DivergenceError(
                "replay diverged at keyframe",
                index=keyframe.index,
                expected_digest=keyframe.digest,
                observed_digest=observed,
                expected_pc=keyframe.checkpoint[0].pc,
                observed_pc=self.cpu.pc)

    # -- monitor hits --------------------------------------------------------

    def on_hit(self, addr: int, size: int, is_read: bool, old: int,
               new: int) -> None:
        """Log (or, over recorded time, verify) one monitor hit; the
        debugger's MRS hook calls this with the accessed word's value
        before and after the access."""
        cpu = self.cpu
        record = WriteRecord(cpu.instructions, cpu.pc, addr, size,
                             old, new, is_read)
        if self.mode == "replay":
            self._verify_hit(record)
            return
        self.trace.append(record)
        self.end_index = max(self.end_index, record.stop_index)

    def _verify_hit(self, observed: WriteRecord) -> None:
        if self._cursor is None:
            # the recorded prefix was evicted from the trace ring;
            # hit-level verification is impossible — keyframe digests
            # remain the divergence check for this travel
            return
        expected = self.trace.at(self._cursor)
        if expected is None:
            raise DivergenceError(
                "monitor hit beyond the recorded trace during replay",
                index=observed.index, observed_pc=observed.pc,
                observed_addr=observed.addr, observed_new=observed.new)
        if expected != observed:
            raise DivergenceError(
                "replayed monitor hit differs from the recording",
                index=observed.index,
                expected_pc=expected.pc, observed_pc=observed.pc,
                expected_addr=expected.addr, observed_addr=observed.addr,
                expected_old=expected.old, observed_old=observed.old,
                expected_new=expected.new, observed_new=observed.new,
                expected_index=expected.index,
                observed_index=observed.index)
        self._cursor += 1

    # -- driving execution --------------------------------------------------

    def resume(self, count: int = 400_000_000) -> str:
        """Move the debuggee up to *count* instructions forward — the
        one loop that does so under a recording, behind
        :meth:`Debugger.run`, :meth:`Debugger.step`, time travel and the
        last-write scan.

        Steps in chunks that land exactly on keyframe boundaries.  Over
        already-recorded time it verifies (each monitor hit against the
        trace, each keyframe it lands on against its digest) and hands
        off to recording at the frontier; past it, it captures a
        keyframe at each stride boundary.  Returns the stop reason:
        "exited", "watch", "breakpoint:<func>", or "step" when *count*
        ran out with the program still live.
        """
        debugger = self.debugger
        cpu = self.cpu
        end = cpu.instructions + count
        begin = time.perf_counter()
        try:
            while True:
                boundary = self._next_boundary()
                reason = debugger._step_raw(min(boundary, end)
                                            - cpu.instructions)
                self._after_chunk(boundary)
                if reason != "step" or cpu.instructions >= end:
                    return reason
        finally:
            self.wall_time_s += time.perf_counter() - begin

    def _next_boundary(self) -> int:
        now = self.cpu.instructions
        if self.mode == "replay":
            for keyframe in self.keyframes:
                if keyframe.index > now:
                    return keyframe.index
            if self.end_index > now:
                return self.end_index
        last = self.keyframes[-1].index if self.keyframes else now
        boundary = last + self.stride
        while boundary <= now:
            boundary += self.stride
        return boundary

    def _after_chunk(self, boundary: int) -> None:
        """Verify or record what a step chunk reached, on *boundary* or
        short of it."""
        now = self.cpu.instructions
        landed = now == boundary
        if self.mode == "replay":
            # a change keyframe holds the state after the debugger's
            # change; only the last-write scan re-executes onto one
            if landed and now not in self.monitor_changes:
                for keyframe in self.keyframes:
                    if keyframe.index == now:
                        self.check_keyframe_digest(keyframe)
                        break
            if now >= self.end_index and (
                    self._cursor is None
                    or self._cursor >= self.trace.total):
                # caught up with the frontier: record from here on
                self.mode = "record"
                self._cursor = None
            return
        self.end_index = max(self.end_index, now)
        if landed:
            self._capture_keyframe()

    def stats(self) -> Dict[str, Any]:
        return {
            "keyframes": len(self.keyframes),
            "stride": self.stride,
            "trace_records": len(self.trace),
            "trace_dropped": self.trace.dropped,
            "capture_faults": len(self.capture_faults),
            "start_index": self.start_index,
            "end_index": self.end_index,
            "mode": self.mode,
        }
