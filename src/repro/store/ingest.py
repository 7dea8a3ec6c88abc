"""Ingest: package a live recording and write it to the store.

:func:`export_recording` turns a :class:`~repro.replay.recorder.Recorder`
into a self-contained :class:`RecordingExport`: the canonical trace
bytes (with the run-metadata header completed — monitor-set digest and
stride filled in if the caller did not set them), the program image
once, every keyframe's *machine* checkpoint encoded by
:mod:`repro.machine.state` against that image (host-side watchpoint
objects are not exported; the store serves analytics, not resumption),
and the run statistics for the run header.

:func:`ingest` writes one export inside the caller's transaction:

* the run is **content-addressed** by the sha-256 of its trace bytes
  (which embed the metadata), so re-ingesting an identical recording
  bumps ``ingest_count`` on the existing row and changes nothing else
  — an idempotent, counted no-op;
* keyframe payloads are **deduplicated** by digest: a payload already
  present (from this run or any other) is stored zero more times, and
  only the per-run reference row is added.  Two runs of the same
  deterministic program share every keyframe byte;
* the program image is stored once per digest, and the run row names
  it.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, NamedTuple, Optional

from repro.errors import StoreError
from repro.machine.state import encode_state

__all__ = ["KeyframeExport", "RecordingExport", "IngestResult",
           "export_recording", "ingest"]


class KeyframeExport(NamedTuple):
    """One keyframe, detached from its recorder."""

    index: int          #: cpu.instructions at capture
    trace_pos: int      #: trace.total at capture
    state_digest: int   #: CRC-32 control-state digest at capture
    payload: bytes      #: repro.machine.state encoding of the Checkpoint
    digest: str         #: sha-256 hex of payload (content address)


class RecordingExport(NamedTuple):
    """A recording packaged for :func:`ingest`."""

    meta: Dict[str, Any]          #: the trace's run-metadata header
    trace_bytes: bytes            #: canonical WriteTrace serialisation
    trace_digest: str             #: sha-256 hex of trace_bytes
    keyframes: List[KeyframeExport]
    stats: Dict[str, Any]         #: instructions, stores, wall time, ...
    image: Optional[bytes] = None         #: ProgramImage.encoded
    image_digest: Optional[str] = None    #: sha-256 hex of image


class IngestResult(NamedTuple):
    """What one :func:`ingest` call did."""

    run_id: int
    run_key: str
    duplicate: bool          #: True: counted no-op on an existing run
    keyframes_new: int       #: payloads actually stored
    keyframes_shared: int    #: references resolved to existing payloads


def export_recording(recorder,
                     wall_time_s: Optional[float] = None
                     ) -> RecordingExport:
    """Package *recorder*'s current recording (see module docstring)."""
    from repro.replay.recorder import monitor_set_digest

    trace = recorder.trace
    trace.meta.setdefault("monitors",
                          monitor_set_digest(recorder.debugger.mrs))
    trace.meta.setdefault("stride", recorder.base_stride)
    trace.meta.setdefault("workload", "unknown")
    trace_bytes = trace.to_bytes()
    image = recorder.debugger.cpu.code.image
    keyframes = []
    for keyframe in recorder.keyframes:
        # of the debugger's (machine snapshot, watchpoints, state)
        # triple only the machine snapshot is exported — and only it
        # is needed to anchor analytics in execution time
        payload = encode_state(keyframe.checkpoint[0], image)
        keyframes.append(KeyframeExport(
            keyframe.index, keyframe.trace_pos, keyframe.digest,
            payload, hashlib.sha256(payload).hexdigest()))
    cpu = recorder.cpu
    stats = {
        "instructions": cpu.instructions,
        "stores": cpu.stores,
        "wall_time_s": wall_time_s,
        "start_index": recorder.start_index,
        "end_index": recorder.end_index,
        "trace_records": len(trace),
        "trace_dropped": trace.dropped,
    }
    return RecordingExport(
        meta=dict(trace.meta), trace_bytes=trace_bytes,
        trace_digest=hashlib.sha256(trace_bytes).hexdigest(),
        keyframes=keyframes, stats=stats, image=image.encoded,
        image_digest=image.digest)


def ingest(conn, export: RecordingExport) -> IngestResult:
    """Write *export* through *conn* (an open transaction's
    connection); see the module docstring for the dedup semantics."""
    meta = export.meta
    workload = meta.get("workload")
    if not workload:
        raise StoreError("export carries no workload name",
                         reason="unresolvable")
    now = time.time()
    run_key = export.trace_digest
    row = conn.execute("SELECT id FROM runs WHERE run_key = ?",
                       (run_key,)).fetchone()
    if row is not None:
        conn.execute(
            "UPDATE runs SET ingest_count = ingest_count + 1, "
            "last_access = ? WHERE id = ?", (now, row[0]))
        return IngestResult(row[0], run_key, True, 0, 0)

    if export.image is not None:
        conn.execute(
            "INSERT OR IGNORE INTO images (digest, image, size, "
            "created_at) VALUES (?, ?, ?, ?)",
            (export.image_digest, export.image, len(export.image), now))
    new = shared = 0
    for keyframe in export.keyframes:
        cursor = conn.execute(
            "INSERT OR IGNORE INTO keyframes "
            "(digest, payload, size, created_at) VALUES (?, ?, ?, ?)",
            (keyframe.digest, keyframe.payload, len(keyframe.payload),
             now))
        if cursor.rowcount:
            new += 1
        else:
            shared += 1
    stats = export.stats
    cursor = conn.execute(
        "INSERT INTO runs (run_key, workload, scale, seed, monitors, "
        "stride, lang, strategy, optimize, instructions, stores, "
        "wall_time_s, start_index, end_index, trace_digest, trace, "
        "trace_records, trace_dropped, created_at, last_access, "
        "image_digest) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
        "?, ?, ?, ?)",
        (run_key, workload, meta.get("scale"), meta.get("seed"),
         meta.get("monitors"), meta.get("stride"), meta.get("lang"),
         meta.get("strategy"), meta.get("optimize"),
         stats.get("instructions", 0), stats.get("stores", 0),
         stats.get("wall_time_s"), stats.get("start_index", 0),
         stats.get("end_index", 0), export.trace_digest,
         export.trace_bytes, stats.get("trace_records", 0),
         stats.get("trace_dropped", 0), now, now, export.image_digest))
    run_id = cursor.lastrowid
    conn.executemany(
        "INSERT INTO run_keyframes "
        "(run_id, keyframe_digest, idx, trace_pos, state_digest) "
        "VALUES (?, ?, ?, ?, ?)",
        [(run_id, keyframe.digest, keyframe.index, keyframe.trace_pos,
          keyframe.state_digest) for keyframe in export.keyframes])
    return IngestResult(run_id, run_key, False, new, shared)
