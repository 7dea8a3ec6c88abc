"""Recorder: keyframe ring + write-trace capture during execution.

The recorder drives the debuggee in keyframe-stride chunks, capturing
a full debugger checkpoint (machine + MRS + watchpoint bookkeeping)
every ``stride`` instructions into a bounded ring, and logging every
monitor notification into a :class:`~repro.replay.trace.WriteTrace`.
The simulator has no external inputs, so a keyframe plus forward
re-execution reproduces any recorded point exactly — that is the whole
replay contract, and the recorder verifies it: while re-executing over
already-recorded time (``mode == "replay"``) each observed hit is
compared against the recorded one and each keyframe crossing checks a
state digest, raising :class:`~repro.errors.DivergenceError` on any
drift rather than silently answering from a wrong timeline.

Keyframe ring eviction keeps geometric coverage: when the ring fills,
the first and newest keyframes are kept, every other interior one is
dropped, and the effective stride doubles — old history gets sparser
instead of disappearing.

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
from repro.machine.cpu import SimulationLimit
from repro.machine.state import memory_bytes, patch_bytes
from repro.replay.trace import WriteRecord, WriteTrace

__all__ = ["Keyframe", "Recorder", "monitor_set_digest", "state_digest"]

DEFAULT_STRIDE = 2000
DEFAULT_MAX_KEYFRAMES = 32
DEFAULT_MAX_TRACE = 65536

_WORD = 0xFFFFFFFF


def state_digest(cpu) -> int:
    """CRC-32 digest of the machine state replay must reproduce.

    Covers pc/npc, condition codes, the global registers, window depth,
    the instruction/load/store counters, data memory and the code slots
    that differ from the program image — sensitive to any drift in the
    executed path, and to a divergence confined to memory or patched
    code.  Cheap enough for every keyframe: memory is a few hundred
    words, and an unpatched code slot is one identity compare.
    """
    regs = cpu.regs
    data = struct.pack(">IIBBBBQQ", cpu.pc & _WORD, cpu.npc & _WORD,
                       cpu.icc_n & 1, cpu.icc_z & 1, cpu.icc_v & 1,
                       cpu.icc_c & 1, cpu.instructions, cpu.stores)
    data += struct.pack(">%dI" % len(regs.globals),
                        *[value & _WORD for value in regs.globals])
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

    __slots__ = ("index", "checkpoint", "trace_pos", "shadow", "digest")

    def __init__(self, index: int, checkpoint, trace_pos: int,
                 shadow: Dict[int, int], digest: int):
        self.index = index          #: cpu.instructions at capture
        self.checkpoint = checkpoint  #: Debugger.checkpoint() payload
        self.trace_pos = trace_pos  #: trace.total at capture
        self.shadow = shadow        #: monitored-word values at capture
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
        self.debugger = debugger
        self.cpu = debugger.cpu
        self.stride = stride
        self.base_stride = stride
        self.max_keyframes = max(2, max_keyframes)
        self.trace = WriteTrace(max_records=max_trace)
        self.keyframes: List[Keyframe] = []
        self.faults = faults if faults is not None \
            else getattr(debugger.mrs, "faults", None)
        #: "record" (frontier), "replay" (verifying re-execution over
        #: recorded time), "scan" (transient last-write re-execution)
        self.mode = "record"
        self.active = False
        #: monitored-word -> last known value (for old-value capture)
        self._shadow: Dict[int, int] = {}
        #: (region_start, region_size) -> covered-since index
        self.coverage: Dict[Tuple[int, int], int] = {}
        #: instruction indexes at which the monitor set changed
        self.monitor_changes: List[int] = []
        #: (index, InjectedFault) per keyframe capture that faulted
        self.capture_faults: List[Tuple[int, InjectedFault]] = []
        self.start_index = 0
        #: frontier: highest instruction index recorded so far
        self.end_index = 0
        #: frontier progress in monitoring-invariant instructions
        #: (orig + lib tags) — the stop criterion for scan re-execution
        self.end_progress = 0
        self._cursor: Optional[int] = None
        self._scan_hits: Optional[List[WriteRecord]] = None
        self._in_hook = False
        #: wall-clock seconds spent inside resume() — recording cost,
        #: reported to the store's run header (not part of the trace
        #: bytes: wall time is not deterministic)
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
        if self.active:
            raise ReplayError("recording already active")
        self.active = True
        self.start_index = self.end_index = self.cpu.instructions
        self.end_progress = self._progress()
        for region in self.debugger.mrs.regions:
            self._cover_region(region.start, region.size,
                               self.start_index)
        self.debugger.mrs.add_callback(self._on_hit)
        self._capture_keyframe()

    def detach(self) -> None:
        """Stop recording and unhook from the MRS."""
        if not self.active:
            return
        self.active = False
        try:
            self.debugger.mrs.callbacks.remove(self._on_hit)
        except ValueError:
            pass

    def _progress(self) -> int:
        counts = self.cpu.tag_counts
        return counts.get("orig", 0) + counts.get("lib", 0)

    # -- shadow / coverage -------------------------------------------------

    def _cover_region(self, start: int, size: int, since: int) -> None:
        self.coverage.setdefault((start, size), since)
        mem = self.cpu.mem
        for word in range((start & ~3), (start + size + 3) & ~3, 4):
            self._shadow.setdefault(word, mem.read_word(word))

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
        if not self.active or self._in_hook:
            return
        now = self.cpu.instructions
        if now < self.end_index or self.mode == "replay":
            self.truncate_future(now)
        self.monitor_changes.append(now)
        current = {(region.start, region.size)
                   for region in self.debugger.mrs.regions}
        for key in list(self.coverage):
            if key not in current:
                del self.coverage[key]
        for start, size in current:
            self._cover_region(start, size, now)
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
        self.end_progress = self._progress()
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
                                self.trace.total, dict(self._shadow),
                                state_digest(self.cpu))
        except InjectedFault as exc:
            self.capture_faults.append((index, exc))
            return None
        self.keyframes.append(keyframe)
        if len(self.keyframes) > self.max_keyframes:
            self._thin_keyframes()
        return keyframe

    def _thin_keyframes(self) -> None:
        """Keep the first and newest keyframes, drop every other
        interior one, and double the stride — bounded memory with
        geometric history coverage."""
        keyframes = self.keyframes
        self.keyframes = (keyframes[:1] + keyframes[1:-1:2]
                          + keyframes[-1:])
        self.stride *= 2

    def nearest_keyframe(self, target: int) -> Optional[Keyframe]:
        """Newest keyframe at or before instruction *target*."""
        best = None
        for keyframe in self.keyframes:
            if keyframe.index <= target:
                best = keyframe
        return best

    def restore_keyframe(self, keyframe: Keyframe,
                         mode: str = "replay") -> None:
        """Rewind the debugger to *keyframe* and arm verification."""
        outer = self._in_hook
        self._in_hook = True
        try:
            self.debugger.restore(keyframe.checkpoint,
                                  discard_recording=False)
        finally:
            self._in_hook = outer
        self._shadow = dict(keyframe.shadow)
        self.mode = mode
        if mode == "replay":
            self._cursor = (keyframe.trace_pos
                            if keyframe.trace_pos >= self.trace.base
                            else None)

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

    # -- the MRS notification hook ----------------------------------------

    def _on_hit(self, addr: int, size: int, is_read: bool) -> None:
        cpu = self.cpu
        word = addr & ~3
        new = cpu.mem.read_word(word)
        old = self._shadow.get(word, new)
        record = WriteRecord(cpu.instructions, cpu.pc, addr, size,
                             old, new, is_read)
        if not is_read:
            self._shadow[word] = new
        if self.mode == "scan":
            if self._scan_hits is not None:
                self._scan_hits.append(record)
            return
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

    def resume(self, max_instructions: int = 400_000_000) -> str:
        """Run (or resume) the debuggee under recording.

        Steps in chunks that land exactly on keyframe boundaries.  Over
        already-recorded time the recorder verifies; past the frontier
        it records.  On budget exhaustion raises a resumable
        :class:`~repro.machine.cpu.SimulationLimit`, mirroring
        the watchdog contract the server's quota relies on.
        """
        debugger = self.debugger
        cpu = self.cpu
        if not cpu.running and cpu.exit_code is not None:
            return "exited"
        budget_end = cpu.instructions + max_instructions
        begin = time.perf_counter()
        try:
            while True:
                boundary = self._next_boundary()
                chunk = min(boundary, budget_end) - cpu.instructions
                reason = debugger._step_raw(max(chunk, 1))
                self._after_chunk(boundary)
                if reason != "step":
                    # exited, stopped at a watchpoint, or at a breakpoint
                    return reason
                if cpu.instructions >= budget_end:
                    raise SimulationLimit(
                        "recording: exceeded %d instructions budget"
                        % max_instructions, budget="instructions",
                        pc=cpu.pc, cycles=cpu.cycles,
                        instructions=cpu.instructions,
                        traps=cpu.traps_taken)
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

    def _after_chunk(self, boundary: int) -> bool:
        """Bookkeeping after a step chunk; True if the chunk landed
        exactly on *boundary*."""
        now = self.cpu.instructions
        landed = now == boundary
        if self.mode == "replay":
            if landed:
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
            return landed
        self.end_index = max(self.end_index, now)
        self.end_progress = max(self.end_progress, self._progress())
        if landed:
            self._capture_keyframe()
        return landed

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
