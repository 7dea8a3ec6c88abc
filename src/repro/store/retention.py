"""Retention: bound the store without orphaning shared state.

A :class:`RetentionPolicy` caps the store two ways, both enforced by
LRU eviction over ``runs.last_access``:

* ``max_runs_per_workload`` — at most N stored runs per workload name
  (the cross-run queries rarely need deep history);
* ``max_bytes`` — total payload budget, counting each deduplicated
  keyframe payload and each program image **once** plus every run's
  trace blob.

Eviction deletes whole runs, oldest-accessed first, but never the most
recently ingested run of a workload — a store under pressure degrades
to "latest generation only", it does not empty itself.  After the run
rows (and, via ``ON DELETE CASCADE``, their keyframe references) are
gone, keyframe payloads and program images with **zero remaining
references** are garbage-collected; a keyframe or image still
referenced by any surviving run is never deleted, no matter which run
originally inserted it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

__all__ = ["RetentionPolicy", "EvictionReport", "apply_retention",
           "stored_bytes"]


class RetentionPolicy(NamedTuple):
    """Bounds applied after every ingest (and on demand)."""

    max_runs_per_workload: Optional[int] = None
    max_bytes: Optional[int] = None


class EvictionReport(NamedTuple):
    """What one retention sweep removed."""

    runs_evicted: List[int]
    keyframes_deleted: int
    bytes_after: int


def stored_bytes(conn) -> int:
    """Current payload footprint: deduplicated keyframe payloads and
    program images (each digest once) plus every run's trace blob."""
    (keyframe_bytes,) = conn.execute(
        "SELECT COALESCE(SUM(size), 0) FROM keyframes").fetchone()
    (image_bytes,) = conn.execute(
        "SELECT COALESCE(SUM(size), 0) FROM images").fetchone()
    (trace_bytes,) = conn.execute(
        "SELECT COALESCE(SUM(LENGTH(trace)), 0) FROM runs").fetchone()
    return keyframe_bytes + image_bytes + trace_bytes


def _protected_runs(conn) -> set:
    """The newest run of each workload — never evicted.  Ties on
    ``last_access`` (coarse clocks, bulk ingest) break on id, so the
    protected set is deterministic."""
    rows = conn.execute(
        "SELECT id FROM runs AS r WHERE id = "
        "(SELECT id FROM runs WHERE workload = r.workload "
        " ORDER BY last_access DESC, id DESC LIMIT 1)").fetchall()
    return {row[0] for row in rows}


def _evict(conn, run_ids: List[int]) -> None:
    conn.executemany("DELETE FROM runs WHERE id = ?",
                     [(run_id,) for run_id in run_ids])


def _collect_garbage(conn) -> int:
    """Delete the keyframe payloads and program images no surviving
    run references; returns how many keyframes went."""
    conn.execute(
        "DELETE FROM images WHERE digest NOT IN "
        "(SELECT image_digest FROM runs WHERE image_digest IS NOT NULL)")
    cursor = conn.execute(
        "DELETE FROM keyframes WHERE digest NOT IN "
        "(SELECT DISTINCT keyframe_digest FROM run_keyframes)")
    return cursor.rowcount


def apply_retention(conn, policy: RetentionPolicy) -> EvictionReport:
    """Enforce *policy* inside the caller's transaction."""
    evicted: List[int] = []
    deleted = 0
    if policy.max_runs_per_workload is not None:
        keep = max(1, policy.max_runs_per_workload)
        for (workload,) in conn.execute(
                "SELECT DISTINCT workload FROM runs").fetchall():
            stale = conn.execute(
                "SELECT id FROM runs WHERE workload = ? "
                "ORDER BY last_access DESC, id DESC LIMIT -1 OFFSET ?",
                (workload, keep)).fetchall()
            evicted.extend(row[0] for row in stale)
        _evict(conn, evicted)
    if policy.max_bytes is not None:
        protected = _protected_runs(conn)
        candidates = conn.execute(
            "SELECT id FROM runs ORDER BY last_access ASC, id ASC"
        ).fetchall()
        for (run_id,) in candidates:
            if stored_bytes(conn) <= policy.max_bytes:
                break
            if run_id in protected:
                continue
            _evict(conn, [run_id])
            deleted += _collect_garbage(conn)
            evicted.append(run_id)
    deleted += _collect_garbage(conn)
    return EvictionReport(evicted, deleted, stored_bytes(conn))
