"""Crash-safe session hibernation: frozen sessions on disk.

Checkpoint hibernation keeps only the working set of sessions in
memory: an idle session is *frozen* (its digest-verified
:class:`~repro.machine.checkpoint.Checkpoint` plus the server-side
bookkeeping the wire protocol needs) to a file, destroyed in memory,
and *thawed* on the next request that names its id.  The
invariant this module enforces is the paper's soundness guarantee
carried across the freeze/thaw boundary: a resumed session either
continues **byte-identically** to a never-hibernated run, or resuming
fails with a structured error — it never silently diverges.

On-disk format (version :data:`FORMAT_VERSION`), one file per session,
``<session-id>.frozen``:

.. code-block:: text

    +--------+---------+------------+----------+-------------+--------+
    | magic  | version | header len | header   | payload len | ...    |
    | 8 B    | u32 BE  | u32 BE     | JSON     | u64 BE      |        |
    +--------+---------+------------+----------+-------------+--------+
    | payload (machine+MRS Checkpoint)         | sha256 of all above  |
    +------------------------------------------+----------------------+

The payload is :func:`repro.machine.state.encode_state`'s encoding of
the machine checkpoint, the same bytes the trace store archives for a
keyframe: code travels as the slots that differ from the program image,
which the payload names by sha-256.

The JSON header carries everything needed to rebuild the session
*around* the checkpoint: program identity (source, language, strategy,
optimization mode), one wire-level breakpoint spec per watchpoint (so
conditions are recompiled, not serialised; a session with a watchpoint
no spec describes is refused), the plain-data ``state`` of
:meth:`~repro.debugger.debugger.Debugger.checkpoint` verbatim (firing
logs and engine state per watchpoint, the debugger's one old-value
shadow, log, started flag), server bookkeeping (output, stop reason),
replay-recorder metadata, and the
:func:`~repro.replay.recorder.state_digest` of the CPU at freeze time
— re-verified after restore, so a frozen file that restores to the
wrong machine state is rejected instead of resumed.

Write path: serialize fully, write to ``<name>.tmp``, flush + fsync,
atomically ``os.replace`` over the final name, fsync the directory.  A
crash (or injected ``hibernate.write`` fault) mid-write leaves at most
a torn temp file; the previous intact frozen file survives.  Load
path: any torn, truncated or digest-mismatched file is moved into a
``quarantine/`` subdirectory and reported as a structured
:class:`~repro.errors.HibernationError` — a corrupt checkpoint is
never trusted.  Thaw rebuilds the program from its identity and
decodes the payload against the rebuilt image: a rebuild whose image
digest differs from the payload's is refused (reason ``"rebuild"``),
and bytes the codec does not accept are reason ``"format"``.  The
sha256 trailer detects torn files but does not authenticate them; the
codec holds numbers and strings only, so crafted bytes can at worst
fail to decode or restore a state that fails its digest check.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from typing import Any, Dict, List, Optional

from repro.errors import HibernationError, InjectedFault
from repro.faults import HIBERNATE_LOAD, HIBERNATE_WRITE, FaultPlan

__all__ = ["FORMAT_VERSION", "FrozenSession", "HibernationStore",
           "freeze_managed", "rebuild_managed"]

MAGIC = b"RPRHIB1\n"
FORMAT_VERSION = 6
#: refuse to parse headers larger than this (a torn length field must
#: not make us allocate gigabytes)
MAX_HEADER_BYTES = 1 << 24
MAX_PAYLOAD_BYTES = 1 << 30

_FIXED = struct.Struct(">II")       # version, header length
_PAYLOAD_LEN = struct.Struct(">Q")  # payload length
_DIGEST_BYTES = hashlib.sha256().digest_size


class FrozenSession:
    """One hibernated session: header metadata + encoded checkpoint."""

    def __init__(self, session_id: str, program: Dict[str, Any],
                 breakpoints: List[Dict[str, Any]],
                 debugger_state: Dict[str, Any],
                 record: Optional[Dict[str, Any]],
                 checkpoint_payload: bytes,
                 state_digest: int,
                 frozen_at: Optional[float] = None,
                 session_state: Optional[Dict[str, Any]] = None):
        self.session_id = session_id
        #: how to rebuild the debuggee: source/lang/strategy/optimize/...
        self.program = program
        #: wire-level breakpoint specs (dataId, condition text, when,
        #: accessType, stop, address), one per debugger watchpoint, in
        #: order
        self.breakpoints = breakpoints
        #: the plain-data state of Debugger.checkpoint(), verbatim
        self.debugger_state = debugger_state
        #: output, stop reason, stopped watchpoint, request counters
        self.session_state = session_state or {}
        #: replay-recorder settings, or None if not recording
        self.record = record
        #: repro.machine.state encoding of the machine+MRS Checkpoint
        self.checkpoint_payload = checkpoint_payload
        #: CRC-32 state digest at freeze time (re-verified)
        self.state_digest = state_digest
        self.frozen_at = time.time() if frozen_at is None else frozen_at

    def header(self) -> Dict[str, Any]:
        return {"sessionId": self.session_id,
                "program": self.program,
                "breakpoints": self.breakpoints,
                "debugger": self.debugger_state,
                "session": self.session_state,
                "record": self.record,
                "stateDigest": self.state_digest,
                "frozenAt": self.frozen_at}

    @classmethod
    def from_header(cls, header: Dict[str, Any],
                    payload: bytes) -> "FrozenSession":
        return cls(session_id=header["sessionId"],
                   program=header["program"],
                   breakpoints=header["breakpoints"],
                   debugger_state=header["debugger"],
                   record=header.get("record"),
                   checkpoint_payload=payload,
                   state_digest=header["stateDigest"],
                   frozen_at=header.get("frozenAt"),
                   session_state=header["session"])


def _encode(frozen: FrozenSession) -> bytes:
    header = json.dumps(frozen.header(),
                        separators=(",", ":")).encode("utf-8")
    body = (MAGIC + _FIXED.pack(FORMAT_VERSION, len(header)) + header
            + _PAYLOAD_LEN.pack(len(frozen.checkpoint_payload))
            + frozen.checkpoint_payload)
    return body + hashlib.sha256(body).digest()


def _decode(data: bytes, path: str) -> FrozenSession:
    def torn(what: str) -> HibernationError:
        return HibernationError(
            "frozen file %s is torn (%s)" % (path, what),
            reason="torn", path=path)

    if len(data) < len(MAGIC) + _FIXED.size + _DIGEST_BYTES:
        raise torn("truncated before header")
    if data[:len(MAGIC)] != MAGIC:
        raise HibernationError("frozen file %s has bad magic" % path,
                               reason="format", path=path)
    version, header_len = _FIXED.unpack_from(data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise HibernationError(
            "frozen file %s has unsupported format version %d" % (path,
                                                                  version),
            reason="format", path=path, version=version,
            supported=FORMAT_VERSION)
    if header_len > MAX_HEADER_BYTES:
        raise torn("implausible header length %d" % header_len)
    offset = len(MAGIC) + _FIXED.size
    if len(data) < offset + header_len + _PAYLOAD_LEN.size + _DIGEST_BYTES:
        raise torn("truncated inside header")
    header_bytes = data[offset:offset + header_len]
    offset += header_len
    (payload_len,) = _PAYLOAD_LEN.unpack_from(data, offset)
    offset += _PAYLOAD_LEN.size
    if payload_len > MAX_PAYLOAD_BYTES:
        raise torn("implausible payload length %d" % payload_len)
    if len(data) != offset + payload_len + _DIGEST_BYTES:
        raise torn("payload length mismatch")
    digest = data[-_DIGEST_BYTES:]
    if hashlib.sha256(data[:-_DIGEST_BYTES]).digest() != digest:
        raise HibernationError(
            "frozen file %s failed its digest check" % path,
            reason="digest", path=path)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        return FrozenSession.from_header(
            header, data[offset:offset + payload_len])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise HibernationError(
            "frozen file %s has an undecodable header: %s" % (path, exc),
            reason="format", path=path) from exc


class HibernationStore:
    """Directory of frozen sessions with atomic, verified writes."""

    SUFFIX = ".frozen"
    QUARANTINE_DIR = "quarantine"

    def __init__(self, directory: str,
                 faults: Optional[FaultPlan] = None):
        self.directory = os.path.abspath(directory)
        self.faults = faults
        os.makedirs(self.directory, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def path_for(self, session_id: str) -> str:
        if os.sep in session_id or session_id in ("", ".", ".."):
            raise HibernationError("invalid session id %r" % session_id,
                                   reason="format", session=session_id)
        return os.path.join(self.directory, session_id + self.SUFFIX)

    def session_ids(self) -> List[str]:
        ids = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if name.endswith(self.SUFFIX):
                ids.append(name[:-len(self.SUFFIX)])
        return sorted(ids)

    # -- save --------------------------------------------------------------

    def save(self, frozen: FrozenSession) -> str:
        """Atomically persist *frozen*; returns the final path.

        The encoded bytes are written to a temp file (with the
        ``hibernate.write`` injection point tripped mid-stream, so an
        injected fault leaves a torn temp file — exactly what a crash
        would), fsync'd, then renamed over the final name.  On any
        failure the temp file is removed and the previous intact frozen
        file, if one exists, is untouched.
        """
        final_path = self.path_for(frozen.session_id)
        tmp_path = final_path + ".tmp"
        data = _encode(frozen)
        half = len(data) // 2
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(data[:half])
                if self.faults is not None:
                    self.faults.trip(HIBERNATE_WRITE,
                                     session=frozen.session_id,
                                     path=final_path)
                handle.write(data[half:])
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, final_path)
            self._fsync_dir()
        except InjectedFault as exc:
            self._unlink(tmp_path)
            raise HibernationError(
                "frozen-session write for %s failed mid-stream"
                % frozen.session_id, reason="write_failed",
                session=frozen.session_id, path=final_path) from exc
        except OSError as exc:
            self._unlink(tmp_path)
            raise HibernationError(
                "cannot write frozen session %s: %s"
                % (frozen.session_id, exc), reason="write_failed",
                session=frozen.session_id, path=final_path) from exc
        return final_path

    # -- load --------------------------------------------------------------

    def load(self, session_id: str) -> FrozenSession:
        """Read and verify one frozen session.

        Torn / digest-mismatched / wrong-format files are moved into
        the quarantine directory before the error propagates — a bad
        file is inspected at most once and never half-resumed.
        """
        path = self.path_for(session_id)
        try:
            if self.faults is not None:
                self.faults.trip(HIBERNATE_LOAD, session=session_id,
                                 path=path)
            with open(path, "rb") as handle:
                data = handle.read()
        except InjectedFault as exc:
            # a transient (injected) IO failure: the file itself is not
            # suspect, so it stays in place for a retry
            raise HibernationError(
                "frozen-session read for %s failed" % session_id,
                reason="io", session=session_id, path=path) from exc
        except FileNotFoundError as exc:
            raise HibernationError(
                "no frozen session %s" % session_id,
                reason="missing", session=session_id, path=path) from exc
        except OSError as exc:
            raise HibernationError(
                "cannot read frozen session %s: %s" % (session_id, exc),
                reason="io", session=session_id, path=path) from exc
        try:
            frozen = _decode(data, path)
        except HibernationError as exc:
            quarantined = self._quarantine(path)
            exc.context["session"] = session_id
            if quarantined is not None:
                exc.context["quarantined"] = quarantined
            raise
        if frozen.session_id != session_id:
            quarantined = self._quarantine(path)
            raise HibernationError(
                "frozen file %s names session %r" % (path,
                                                     frozen.session_id),
                reason="format", session=session_id,
                quarantined=quarantined)
        return frozen

    def remove(self, session_id: str) -> bool:
        """Delete a frozen session (after a successful thaw, or on
        explicit disconnect).  Idempotent."""
        try:
            os.unlink(self.path_for(session_id))
        except FileNotFoundError:
            return False
        self._fsync_dir()
        return True

    def frozen_size(self, session_id: str) -> Optional[int]:
        try:
            return os.path.getsize(self.path_for(session_id))
        except OSError:
            return None

    def quarantined(self) -> List[str]:
        directory = os.path.join(self.directory, self.QUARANTINE_DIR)
        try:
            return sorted(os.listdir(directory))
        except OSError:
            return []

    # -- internals ---------------------------------------------------------

    def _quarantine(self, path: str) -> Optional[str]:
        directory = os.path.join(self.directory, self.QUARANTINE_DIR)
        try:
            os.makedirs(directory, exist_ok=True)
            target = os.path.join(
                directory, "%s.%d" % (os.path.basename(path),
                                      int(time.time() * 1000)))
            os.replace(path, target)
            self._fsync_dir()
            return target
        except OSError:
            return None

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass


# -- freeze / rebuild ---------------------------------------------------------

def freeze_managed(managed) -> FrozenSession:
    """Capture a :class:`~repro.server.manager.ManagedSession` as a
    :class:`FrozenSession`.

    The caller must hold the session lock.  Raises
    :class:`HibernationError` (reason ``"unsupported"``) for sessions
    that cannot be rebuilt deterministically — ones launched without a
    recorded program spec, with a live fault plan whose occurrence
    counters cannot be carried across the boundary, or with a
    watchpoint the wire-level spec cannot describe (a callable
    condition or callback, or a print/call action).
    """
    from repro.machine.state import encode_state
    from repro.replay.recorder import state_digest
    from repro.server.protocol import format_data_id

    debugger = managed.debugger
    program = managed.program_spec
    if program is None:
        raise HibernationError(
            "session %s has no program spec; cannot rebuild it"
            % managed.id, reason="unsupported", session=managed.id)
    if program.get("faults"):
        raise HibernationError(
            "session %s runs under a fault plan; mid-flight occurrence "
            "counters cannot hibernate" % managed.id,
            reason="unsupported", session=managed.id)
    for watchpoint in debugger.watchpoints:
        if watchpoint.condition is not None or \
                watchpoint.callback is not None or \
                watchpoint.action not in ("stop", "log"):
            # nothing callable is serialised: it would thaw as another
            # watchpoint
            raise HibernationError(
                "session %s watches %s with a callable condition, a "
                "callback or a %r action; cannot rebuild it"
                % (managed.id, watchpoint.name, watchpoint.action),
                reason="unsupported", session=managed.id)

    checkpoint, (watchpoints, _breakpoints), state = debugger.checkpoint()
    # each watchpoint as the setDataBreakpoints spec that re-creates
    # it: the predicate recompiles from its source text on thaw
    breakpoints = [{
        "dataId": format_data_id(watchpoint.name, watchpoint.func),
        "condition": None if watchpoint.predicate is None
        else watchpoint.predicate.source,
        "when": watchpoint.when, "accessType": watchpoint.access,
        "stop": watchpoint.action == "stop",
        "address": watchpoint.addr} for watchpoint in watchpoints]
    stopped = debugger.stopped_watch
    session = {"stopReason": debugger.stop_reason,
               "stoppedWatch": watchpoints.index(stopped)
               if stopped in watchpoints else None,
               "output": list(debugger.session.output),
               "outputSent": managed.output_sent,
               "instructionsSpent": managed.instructions_spent}

    record = None
    recorder = debugger.recorder
    if recorder is not None:
        record = {"stride": recorder.stride,
                  "maxKeyframes": recorder.max_keyframes,
                  "maxTrace": recorder.trace.max_records}

    return FrozenSession(session_id=managed.id, program=program,
                         breakpoints=breakpoints, debugger_state=state,
                         session_state=session, record=record,
                         checkpoint_payload=encode_state(
                             checkpoint, debugger.cpu.code.image),
                         state_digest=state_digest(debugger.cpu))


def rebuild_managed(frozen: FrozenSession):
    """Thaw *frozen*: rebuild the debuggee and restore its state.

    Returns the :class:`~repro.debugger.debugger.Debugger`; the server
    reads its dataIds off ``debugger.watchpoints``.  The program is
    built from its recorded identity by
    :func:`~repro.server.manager.build_debugger`, which serves the
    launch's build while the server still holds it, the payload decoded
    against
    the rebuilt program image, each watchpoint built by
    :meth:`~repro.debugger.debugger.Debugger.new_watchpoint` and bound
    to its region in the frozen MRS, the snapshot applied by
    :meth:`~repro.debugger.debugger.Debugger.restore`, and the CPU
    state digest re-verified — any mismatch raises
    :class:`HibernationError` (reason ``"digest"``) instead of resuming
    a divergent session.
    """
    from repro.core.regions import MonitoredRegion
    from repro.errors import ReproError, StateError
    from repro.machine.state import decode_state, state_image
    from repro.replay.recorder import state_digest
    from repro.server.manager import build_debugger
    from repro.server.protocol import parse_data_id
    from repro.watchpoints.predicate import condition_to_expr

    def undecodable(detail) -> HibernationError:
        return HibernationError(
            "frozen session %s carries an undecodable checkpoint: %s"
            % (frozen.session_id, detail), reason="format",
            session=frozen.session_id)

    payload = frozen.checkpoint_payload
    try:
        # bytes that are no state encoding are "format" even when the
        # program can no longer be rebuilt: check the header first
        state_image(payload)
    except StateError as exc:
        raise undecodable(exc) from exc
    try:
        debugger = build_debugger(frozen.program)
    except Exception as exc:
        raise HibernationError(
            "frozen session %s's program can no longer be rebuilt: %s"
            % (frozen.session_id, exc), reason="rebuild",
            session=frozen.session_id) from exc
    try:
        checkpoint = decode_state(payload, debugger.cpu.code.image)
    except StateError as exc:
        if exc.reason == "image":
            raise HibernationError(
                "frozen session %s's program rebuilds to a different "
                "image" % frozen.session_id, reason="rebuild",
                session=frozen.session_id) from exc
        raise undecodable(exc) from exc
    if checkpoint.mrs_state is None or \
            len(checkpoint.cache_lines) != debugger.cpu.cache.num_lines:
        raise undecodable("no MRS state, or another cache size")
    regions = {key: MonitoredRegion(*key)
               for key in checkpoint.mrs_state["regions"]}

    # the checkpoint already carries the MRS bookkeeping and patched
    # code, so nothing is armed again: each watchpoint only binds to
    # the region it shares in the frozen MRS
    watchpoints = []
    for spec in frozen.breakpoints:
        data_id = spec["dataId"]
        try:
            name, func = parse_data_id(data_id)
            watchpoint = debugger.new_watchpoint(
                name, func, action="stop" if spec["stop"] else "log",
                expr=condition_to_expr(spec["condition"])
                if spec["condition"] else None,
                when=spec["when"], access=spec["accessType"])
        except ReproError as exc:
            raise HibernationError(
                "frozen session %s's breakpoint %s can no longer be "
                "rebuilt: %s" % (frozen.session_id, data_id, exc),
                reason="rebuild", session=frozen.session_id,
                dataId=data_id) from exc
        # a frame-local resolves against the frame it was watched in,
        # not against the fresh machine's
        watchpoint.addr = spec["address"]
        watchpoint.region = regions.get(watchpoint.region_key)
        if watchpoint.region is None:
            raise HibernationError(
                "frozen session %s has no monitored region for %s"
                % (frozen.session_id, data_id), reason="digest",
                session=frozen.session_id, dataId=data_id)
        watchpoints.append(watchpoint)

    # the wire protocol places no control breakpoints: the table thaws
    # empty
    debugger.restore((checkpoint, (watchpoints, []),
                      frozen.debugger_state))
    session = frozen.session_state
    debugger.session.output[:] = session["output"]

    observed = state_digest(debugger.cpu)
    if observed != frozen.state_digest:
        raise HibernationError(
            "frozen session %s restored to a divergent machine state"
            % frozen.session_id, reason="digest",
            session=frozen.session_id,
            expected_digest=frozen.state_digest,
            observed_digest=observed)

    debugger.stop_reason = session["stopReason"]
    if session["stoppedWatch"] is not None:
        debugger.stopped_watch = watchpoints[session["stoppedWatch"]]

    record = frozen.record
    if record is not None:
        # recording restarts at the thaw point: keyframe history does
        # not survive hibernation (keyframes hold live host objects),
        # but the recording *contract* — time travel from here on —
        # does, anchored by a fresh keyframe of the restored state
        debugger.record(stride=record.get("stride"),
                        max_keyframes=record.get("maxKeyframes"),
                        max_trace=record.get("maxTrace"))
    return debugger
