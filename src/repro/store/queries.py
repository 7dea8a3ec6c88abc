"""Cross-run queries: the analytics behind ``repro analyze``.

Every query combines SQL over the run headers with decode of the
canonical trace blobs (:class:`~repro.replay.trace.WriteTrace`), so
questions that span many recordings — hottest written regions, write
densities, overhead regressions, last-write provenance — are answered
from the store alone, with no live debuggee.

``last_write`` provenance walks the trace with
:meth:`repro.replay.trace.WriteTrace.last_write`, as replay does: a
stored trace answers exactly what the in-memory
:class:`~repro.replay.controller.ReplayController` would have answered
on the live recording (the e2e test in ``tests/test_store.py`` holds
the two byte-for-byte equal).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from repro.errors import StoreError
from repro.replay.trace import WriteTrace

__all__ = ["StoredRun", "list_runs", "get_run", "load_trace",
           "hot_regions", "write_stats", "regress", "provenance",
           "store_stats"]

_RUN_COLUMNS = ("id", "workload", "scale", "seed", "monitors", "stride",
                "lang", "strategy", "optimize", "instructions", "stores",
                "wall_time_s", "start_index", "end_index", "trace_digest",
                "trace_records", "trace_dropped", "ingest_count",
                "created_at", "last_access")


class StoredRun(NamedTuple):
    """One run header row (everything but the trace blob)."""

    id: int
    workload: str
    scale: Optional[float]
    seed: Optional[int]
    monitors: Optional[str]
    stride: Optional[int]
    lang: Optional[str]
    strategy: Optional[str]
    optimize: Optional[str]
    instructions: int
    stores: int
    wall_time_s: Optional[float]
    start_index: int
    end_index: int
    trace_digest: str
    trace_records: int
    trace_dropped: int
    ingest_count: int
    created_at: float
    last_access: float

    @property
    def writes_per_kinstr(self) -> float:
        if not self.instructions:
            return 0.0
        return self.trace_records / self.instructions * 1000.0

    @property
    def instr_per_s(self) -> Optional[float]:
        if not self.wall_time_s:
            return None
        return self.instructions / self.wall_time_s

    def as_dict(self) -> Dict[str, Any]:
        row = dict(zip(_RUN_COLUMNS, self))
        row["writes_per_kinstr"] = round(self.writes_per_kinstr, 3)
        rate = self.instr_per_s
        row["instr_per_s"] = None if rate is None else round(rate)
        return row


def _rows(conn, workload: Optional[str] = None,
          run_id: Optional[int] = None) -> List[StoredRun]:
    sql = "SELECT %s FROM runs" % ", ".join(_RUN_COLUMNS)
    clauses, parameters = [], []
    if workload is not None:
        clauses.append("workload = ?")
        parameters.append(workload)
    if run_id is not None:
        clauses.append("id = ?")
        parameters.append(run_id)
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    sql += " ORDER BY id ASC"
    return [StoredRun(*row)
            for row in conn.execute(sql, parameters).fetchall()]


def list_runs(conn, workload: Optional[str] = None) -> List[StoredRun]:
    return _rows(conn, workload=workload)


def get_run(conn, run_id: int) -> StoredRun:
    runs = _rows(conn, run_id=run_id)
    if not runs:
        raise StoreError("no stored run %d" % run_id,
                         reason="unknown_run", run=run_id)
    return runs[0]


def load_trace(conn, run_id: int) -> WriteTrace:
    """Decode one stored trace (raises on an unknown run or on stored
    bytes that do not decode)."""
    row = conn.execute("SELECT trace FROM runs WHERE id = ?",
                       (run_id,)).fetchone()
    if row is None:
        raise StoreError("no stored run %d" % run_id,
                         reason="unknown_run", run=run_id)
    try:
        return WriteTrace.from_bytes(row[0])
    except ValueError as exc:
        raise StoreError("stored trace of run %d is corrupt: %s"
                         % (run_id, exc), reason="corrupt",
                         run=run_id) from exc


# -- hot regions --------------------------------------------------------------


def hot_regions(conn, workload: Optional[str] = None,
                top: int = 10) -> List[Dict[str, Any]]:
    """The hottest written regions across stored runs.

    Writes are bucketed per word, adjacent hot words are merged into
    contiguous regions, and regions rank by total write count.  Each
    region reports which runs (and how many workloads) touched it.
    """
    per_word: Dict[int, int] = {}
    word_runs: Dict[int, set] = {}
    word_workloads: Dict[int, set] = {}
    for run in list_runs(conn, workload=workload):
        trace = load_trace(conn, run.id)
        for record in trace:
            if record.is_read:
                continue
            word = record.addr & ~3
            per_word[word] = per_word.get(word, 0) + 1
            word_runs.setdefault(word, set()).add(run.id)
            word_workloads.setdefault(word, set()).add(run.workload)
    regions: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = None
    for word in sorted(per_word):
        if current is not None and word == current["_end"]:
            current["size"] += 4
            current["writes"] += per_word[word]
            current["_runs"] |= word_runs[word]
            current["_workloads"] |= word_workloads[word]
            current["_end"] = word + 4
            continue
        current = {"addr": word, "size": 4, "writes": per_word[word],
                   "_runs": set(word_runs[word]),
                   "_workloads": set(word_workloads[word]),
                   "_end": word + 4}
        regions.append(current)
    for region in regions:
        region["runs"] = len(region.pop("_runs"))
        region["workloads"] = sorted(region.pop("_workloads"))
        del region["_end"]
    regions.sort(key=lambda region: (-region["writes"], region["addr"]))
    return regions[:max(0, top)]


# -- write-pattern statistics -------------------------------------------------


def write_stats(conn,
                workload: Optional[str] = None) -> List[Dict[str, Any]]:
    """Per-run write-pattern statistics (monitored-hit ratios, write
    densities), one dict per stored run."""
    out: List[Dict[str, Any]] = []
    for run in list_runs(conn, workload=workload):
        trace = load_trace(conn, run.id)
        writes = reads = 0
        per_word: Dict[int, int] = {}
        for record in trace:
            if record.is_read:
                reads += 1
                continue
            writes += 1
            word = record.addr & ~3
            per_word[word] = per_word.get(word, 0) + 1
        distinct = len(per_word)
        peak = max(per_word.values()) if per_word else 0
        executed = max(1, run.end_index - run.start_index)
        out.append({
            "run": run.id,
            "workload": run.workload,
            "scale": run.scale,
            "seed": run.seed,
            "instructions": run.instructions,
            "writes": writes,
            "reads": reads,
            "dropped": run.trace_dropped,
            "writes_per_kinstr":
                round(writes / executed * 1000.0, 3),
            "monitored_hit_ratio":
                round((writes + reads) / executed, 6),
            "distinct_words": distinct,
            "mean_writes_per_word":
                round(writes / distinct, 2) if distinct else 0.0,
            "peak_word_writes": peak,
        })
    return out


# -- overhead regressions -----------------------------------------------------


def _pct(new: Optional[float], old: Optional[float]) -> Optional[float]:
    if new is None or old is None or not old:
        return None
    return round((new - old) / old * 100.0, 2)


def regress(conn, workload: str,
            run_a: Optional[int] = None,
            run_b: Optional[int] = None,
            threshold_pct: float = 10.0) -> Dict[str, Any]:
    """Compare two stored runs of *workload* (default: the two most
    recent) and flag metric deltas beyond *threshold_pct*.

    The returned dict carries per-metric deltas and a ``regressions``
    list naming the metrics that worsened past the threshold — the CLI
    exits non-zero when it is non-empty, which is the CI gate.
    """
    if run_a is not None and run_b is not None:
        baseline = get_run(conn, run_a)
        candidate = get_run(conn, run_b)
    else:
        runs = list_runs(conn, workload=workload)
        if len(runs) < 2:
            raise StoreError(
                "regress needs two stored runs of %r (have %d)"
                % (workload, len(runs)), reason="unknown_run",
                workload=workload)
        baseline, candidate = runs[-2], runs[-1]
    deltas = {
        "instructions": _pct(candidate.instructions,
                             baseline.instructions),
        "wall_time_s": _pct(candidate.wall_time_s,
                            baseline.wall_time_s),
        "instr_per_s": _pct(candidate.instr_per_s,
                            baseline.instr_per_s),
        "trace_records": _pct(candidate.trace_records,
                              baseline.trace_records),
        "writes_per_kinstr": _pct(candidate.writes_per_kinstr,
                                  baseline.writes_per_kinstr),
    }
    regressions = []
    for metric in ("instructions", "wall_time_s"):
        delta = deltas[metric]
        if delta is not None and delta > threshold_pct:
            regressions.append(metric)
    # throughput falling is a regression too (negative delta)
    rate_delta = deltas["instr_per_s"]
    if rate_delta is not None and rate_delta < -threshold_pct:
        regressions.append("instr_per_s")
    return {
        "workload": workload,
        "baseline": baseline.as_dict(),
        "candidate": candidate.as_dict(),
        "deltas_pct": deltas,
        "threshold_pct": threshold_pct,
        "regressions": regressions,
    }


# -- provenance ---------------------------------------------------------------


def provenance(conn, addr: int, size: int,
               workload: Optional[str] = None,
               run_id: Optional[int] = None,
               before_index: Optional[int] = None
               ) -> List[Dict[str, Any]]:
    """Last-write lookup across stored runs.

    For every matching run, the most recent write overlapping
    ``[addr, addr+size)`` — trace position, writing pc (the §2
    notification site), instruction index, old/new word values — or a
    ``never written`` marker when the stored trace holds no such
    write.
    """
    runs = ([get_run(conn, run_id)] if run_id is not None
            else list_runs(conn, workload=workload))
    out: List[Dict[str, Any]] = []
    for run in runs:
        trace = load_trace(conn, run.id)
        answer = trace.last_write(addr, size, before_index=before_index)
        entry: Dict[str, Any] = {
            "run": run.id, "workload": run.workload,
            "scale": run.scale, "seed": run.seed,
            "trace_dropped": run.trace_dropped,
        }
        if answer is None:
            entry["written"] = False
        else:
            position, record = answer
            entry.update({
                "written": True, "position": position,
                "pc": record.pc, "index": record.index,
                "addr": record.addr, "size": record.size,
                "old": record.old, "new": record.new,
            })
        out.append(entry)
    return out


# -- store-wide statistics ----------------------------------------------------


def store_stats(conn) -> Dict[str, Any]:
    """Totals: runs, workloads, keyframes and images, dedup ratio,
    payload footprint."""
    from repro.store.retention import stored_bytes

    (runs,) = conn.execute("SELECT COUNT(*) FROM runs").fetchone()
    (workloads,) = conn.execute(
        "SELECT COUNT(DISTINCT workload) FROM runs").fetchone()
    (ingests,) = conn.execute(
        "SELECT COALESCE(SUM(ingest_count), 0) FROM runs").fetchone()
    (unique_keyframes,) = conn.execute(
        "SELECT COUNT(*) FROM keyframes").fetchone()
    (keyframe_refs,) = conn.execute(
        "SELECT COUNT(*) FROM run_keyframes").fetchone()
    (keyframe_bytes,) = conn.execute(
        "SELECT COALESCE(SUM(size), 0) FROM keyframes").fetchone()
    (referenced_bytes,) = conn.execute(
        "SELECT COALESCE(SUM(k.size), 0) FROM run_keyframes r "
        "JOIN keyframes k ON k.digest = r.keyframe_digest").fetchone()
    (images,) = conn.execute("SELECT COUNT(*) FROM images").fetchone()
    return {
        "runs": runs,
        "workloads": workloads,
        "ingests": ingests,
        "duplicate_ingests": ingests - runs,
        "unique_keyframes": unique_keyframes,
        "keyframe_refs": keyframe_refs,
        "images": images,
        "dedup_ratio": (round(referenced_bytes / keyframe_bytes, 3)
                        if keyframe_bytes else 1.0),
        "stored_bytes": stored_bytes(conn),
    }
