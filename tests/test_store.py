"""Persistent trace store: ingest, dedup, retention, crash safety,
and the ``repro analyze`` query layer.

The ISSUE acceptance criteria exercised here:

* the trace's run-metadata header is embedded in the canonical bytes
  (v2) and version-1 traces still decode;
* ingesting the same recording twice is an idempotent, counted no-op;
* keyframes are content-addressed: N runs of the same deterministic
  program store each keyframe payload exactly once;
* retention (hypothesis property tests) respects its bounds, never
  deletes a still-referenced keyframe, and never orphans a run;
* ``analyze provenance`` answers byte-for-byte what the in-memory
  :class:`ReplayController.last_write` answers;
* a fault (or a ``kill -9``) at the ``store.commit`` injection point
  leaves the previously committed generation intact and the store
  usable.
"""

import hashlib
import os
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.debugger import Debugger
from repro.errors import ReplayError, StoreError
from repro.faults import STORE_COMMIT, FaultPlan
from repro.replay.trace import WriteRecord, WriteTrace
from repro.store import (KeyframeExport, RecordingExport,
                         RetentionPolicy, TraceStore)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

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


def record_run(source=SOURCE, watch="total", stride=40):
    """Record *source* to completion with one watchpoint."""
    debugger = Debugger.for_source(source, optimize="full")
    debugger.watch(watch, action="log")
    recorder = debugger.record(stride=stride)
    reason = debugger.run()
    while reason != "exited":
        reason = debugger.run()
    return debugger, recorder


@pytest.fixture
def store(tmp_path):
    instance = TraceStore(str(tmp_path / "store.sqlite"))
    yield instance
    instance.close()


# -- satellite: run-metadata header in the canonical trace bytes -----------

class TestTraceMeta:
    def records(self):
        return [WriteRecord(10, 0x100, 0x2000, 4, 0, 7, False),
                WriteRecord(20, 0x104, 0x2004, 4, 7, 9, True)]

    def test_meta_round_trips_through_bytes(self):
        trace = WriteTrace(meta={"workload": "w", "seed": 3,
                                 "scale": 0.5})
        for record in self.records():
            trace.append(record)
        decoded = WriteTrace.from_bytes(trace.to_bytes())
        assert decoded.meta == {"workload": "w", "seed": 3,
                                "scale": 0.5}
        assert list(decoded) == list(trace)

    def test_meta_participates_in_digest(self):
        one, two = WriteTrace(meta={"seed": 1}), WriteTrace(
            meta={"seed": 2})
        for record in self.records():
            one.append(record)
            two.append(record)
        assert one.to_bytes() != two.to_bytes()
        assert one.digest() != two.digest()

    def test_meta_is_canonical_under_key_order(self):
        one = WriteTrace(meta={"a": 1, "b": 2})
        two = WriteTrace(meta={"b": 2, "a": 1})
        assert one.to_bytes() == two.to_bytes()

    def test_v1_trace_still_decodes(self):
        # a version-1 trace: fixed header + records, no metadata block
        records = self.records()
        data = struct.Struct(">4sHQQ").pack(b"RPWT", 1, 0, len(records))
        data += b"".join(record.pack() for record in records)
        decoded = WriteTrace.from_bytes(data)
        assert decoded.meta == {}
        assert list(decoded) == records

    def test_implausible_meta_length_is_refused(self):
        data = struct.Struct(">4sHQQ").pack(b"RPWT", 2, 0, 0)
        data += struct.Struct(">I").pack(1 << 30)
        with pytest.raises(ValueError):
            WriteTrace.from_bytes(data)

    def torn(self, case):
        """Bytes that are not exactly one trace, by *case*."""
        good = WriteTrace(meta={"seed": 1})
        for record in self.records():
            good.append(record)
        data = good.to_bytes()
        header = struct.Struct(">4sHQQ")

        def with_meta(meta):
            return (header.pack(b"RPWT", 2, 0, 0)
                    + struct.Struct(">I").pack(len(meta)) + meta)
        return {
            "empty": b"",
            "short_header": data[:header.size - 3],
            "short_meta_length": data[:header.size + 2],
            "cut_record": data[:-5],
            "trailing_bytes": data + b"\0",
            "count_past_data": header.pack(b"RPWT", 2, 0, 5)
            + data[header.size:],
            "meta_not_object": with_meta(b'["seed"]'),
            "meta_not_json": with_meta(b'{"seed"'),
        }[case]

    TORN = ("empty", "short_header", "short_meta_length", "cut_record",
            "trailing_bytes", "count_past_data", "meta_not_object",
            "meta_not_json")

    @pytest.mark.parametrize("case", TORN)
    def test_torn_or_crafted_bytes_are_refused(self, case):
        with pytest.raises(ValueError):
            WriteTrace.from_bytes(self.torn(case))

    @pytest.mark.parametrize("case", TORN)
    def test_store_reports_a_torn_trace_as_corrupt(self, store, case):
        _debugger, recorder = record_run()
        run_id = store.ingest_recorder(recorder, workload="w").run_id
        with store.connection.transaction() as conn:
            conn.execute("UPDATE runs SET trace = ? WHERE id = ?",
                         (self.torn(case), run_id))
        with pytest.raises(StoreError) as info:
            store.trace(run_id)
        assert info.value.reason == "corrupt"
        assert info.value.context["run"] == run_id


# -- ingest: round-trip, idempotence, dedup --------------------------------

class TestIngest:
    def test_round_trip_preserves_trace_and_header(self, store):
        _debugger, recorder = record_run()
        result = store.ingest_recorder(recorder, workload="w",
                                       scale=0.5, seed=7)
        assert not result.duplicate
        run = store.run(result.run_id)
        assert (run.workload, run.scale, run.seed) == ("w", 0.5, 7)
        assert run.instructions == recorder.cpu.instructions
        assert run.trace_records == len(recorder.trace)
        trace = store.trace(result.run_id)
        assert trace.to_bytes() == recorder.trace.to_bytes()
        assert trace.meta["workload"] == "w"

    def test_reingest_is_counted_noop(self, store):
        _debugger, recorder = record_run()
        first = store.ingest_recorder(recorder, workload="w", seed=1)
        again = store.ingest_recorder(recorder, workload="w", seed=1)
        assert again.duplicate
        assert again.run_id == first.run_id
        assert (again.keyframes_new, again.keyframes_shared) == (0, 0)
        runs = store.runs()
        assert len(runs) == 1
        assert runs[0].ingest_count == 2
        stats = store.stats()
        assert stats["ingests"] == 2
        assert stats["duplicate_ingests"] == 1

    def test_identical_runs_share_every_keyframe(self, store):
        results = []
        for seed in (1, 2, 3):
            _debugger, recorder = record_run()
            results.append(store.ingest_recorder(
                recorder, workload="w", seed=seed))
        first = results[0]
        assert first.keyframes_new > 0
        for later in results[1:]:
            assert not later.duplicate      # distinct seeds => new runs
            assert later.keyframes_new == 0
            assert later.keyframes_shared == first.keyframes_new
        stats = store.stats()
        assert stats["runs"] == 3
        assert stats["unique_keyframes"] == first.keyframes_new
        assert stats["keyframe_refs"] == 3 * first.keyframes_new
        assert stats["dedup_ratio"] == pytest.approx(3.0, abs=0.25)

    def test_export_requires_workload_name(self, store):
        _debugger, recorder = record_run()
        recorder.trace.meta.clear()
        export = recorder.export()._replace(meta={})
        with pytest.raises(StoreError):
            store.ingest(export)

    def test_debugger_archive_recording(self, store):
        debugger, _recorder = record_run()
        result = debugger.archive_recording(store, workload="w")
        assert store.run(result.run_id).workload == "w"
        plain = Debugger.for_source(SOURCE)
        with pytest.raises(ReplayError):
            plain.archive_recording(store, workload="w")


# -- provenance: byte-for-byte agreement with the replay engine ------------

class TestProvenance:
    def test_matches_in_memory_last_write(self, store):
        debugger, recorder = record_run()
        answer = debugger.last_write("total")
        assert answer is not None
        result = store.ingest_recorder(recorder, workload="w", seed=1)
        _entry, addr, size = debugger.resolve("total")
        rows = store.provenance(addr, size)
        assert len(rows) == 1
        row = rows[0]
        assert row["run"] == result.run_id
        assert row["written"] is True
        assert (row["pc"], row["index"], row["old"], row["new"],
                row["addr"], row["size"]) == (
            answer.pc, answer.index, answer.old, answer.new,
            answer.addr, answer.size)

    def test_before_index_and_never_written(self, store):
        debugger, recorder = record_run()
        store.ingest_recorder(recorder, workload="w", seed=1)
        _entry, addr, size = debugger.resolve("total")
        first = recorder.trace.at(recorder.trace.base)
        early = store.provenance(addr, size,
                                 before_index=first.stop_index)
        assert early[0]["index"] == first.index
        nothing = store.provenance(0xDEAD0000, 4)
        assert nothing[0]["written"] is False

    def test_hot_regions_cover_the_watched_word(self, store):
        debugger, recorder = record_run()
        store.ingest_recorder(recorder, workload="w", seed=1)
        _entry, addr, _size = debugger.resolve("total")
        hot = store.hot(top=5)
        assert any(region["addr"] <= addr < region["addr"]
                   + region["size"] for region in hot)
        writes = store.write_stats()
        assert writes[0]["writes"] == len(
            [r for r in recorder.trace if not r.is_read])


# -- retention: property-tested bounds -------------------------------------

def synthetic_export(workload, seed, keyframe_ids, records=3):
    """A fast fake recording: deterministic bytes, no simulator."""
    trace = WriteTrace(meta={"workload": workload, "seed": seed,
                             "monitors": "cafe", "stride": 100})
    for i in range(records):
        trace.append(WriteRecord(i * 10, 0x100, 0x2000 + 4 * (i % 2),
                                 4, i, i + 1, False))
    blob = trace.to_bytes()
    keyframes = []
    for position, ident in enumerate(keyframe_ids):
        payload = (b"keyframe-%d-" % ident) * 64
        keyframes.append(KeyframeExport(
            position * 100, 0, ident,
            payload, hashlib.sha256(payload).hexdigest()))
    return RecordingExport(
        meta=dict(trace.meta), trace_bytes=blob,
        trace_digest=hashlib.sha256(blob).hexdigest(),
        keyframes=keyframes,
        stats={"instructions": 1000 + seed, "stores": 10,
               "wall_time_s": 0.01, "start_index": 0,
               "end_index": 1000 + seed, "trace_records": records,
               "trace_dropped": 0})


def check_referential_integrity(store):
    """No orphan payloads, no dangling references, no partial runs."""
    conn = store.connection._conn
    orphans = conn.execute(
        "SELECT COUNT(*) FROM keyframes WHERE digest NOT IN "
        "(SELECT keyframe_digest FROM run_keyframes)").fetchone()[0]
    dangling = conn.execute(
        "SELECT COUNT(*) FROM run_keyframes WHERE keyframe_digest "
        "NOT IN (SELECT digest FROM keyframes)").fetchone()[0]
    widowed = conn.execute(
        "SELECT COUNT(*) FROM run_keyframes WHERE run_id NOT IN "
        "(SELECT id FROM runs)").fetchone()[0]
    assert (orphans, dangling, widowed) == (0, 0, 0)


run_lists = st.lists(
    st.tuples(st.sampled_from(["alpha", "beta"]),
              st.lists(st.integers(min_value=0, max_value=5),
                       min_size=1, max_size=4, unique=True)),
    min_size=1, max_size=8)


class TestRetentionProperties:
    @settings(max_examples=25, deadline=None)
    @given(runs=run_lists, keep=st.integers(min_value=1, max_value=3))
    def test_max_runs_per_workload(self, runs, keep):
        policy = RetentionPolicy(max_runs_per_workload=keep)
        with TraceStore(":memory:", retention=policy) as store:
            newest = {}
            for seed, (workload, keyframe_ids) in enumerate(runs):
                result = store.ingest(synthetic_export(
                    workload, seed, keyframe_ids))
                newest[workload] = result.run_key
            survivors = store.runs()
            per_workload = {}
            for run in survivors:
                per_workload.setdefault(run.workload, []).append(run)
            for workload, kept in per_workload.items():
                assert len(kept) <= keep
            # the newest run of every workload always survives
            # (run_key == trace_digest: the content address)
            surviving_keys = {run.trace_digest for run in survivors}
            for workload, run_key in newest.items():
                assert run_key in surviving_keys
            check_referential_integrity(store)

    @settings(max_examples=25, deadline=None)
    @given(runs=run_lists,
           budget=st.integers(min_value=1, max_value=40000))
    def test_max_bytes_lru(self, runs, budget):
        with TraceStore(":memory:") as store:
            for seed, (workload, keyframe_ids) in enumerate(runs):
                store.ingest(synthetic_export(workload, seed,
                                              keyframe_ids))
            newest_ids = {max(r.id for r in store.runs()
                              if r.workload == workload)
                          for workload in {r.workload
                                           for r in store.runs()}}
            protected = {run.trace_digest for run in store.runs()
                         if run.id in newest_ids}
            report = store.apply_retention(
                RetentionPolicy(max_bytes=budget))
            survivors = store.runs()
            # either inside budget, or only protected runs remain
            if report.bytes_after > budget:
                assert {run.trace_digest
                        for run in survivors} <= protected
            # every surviving run still has all of its keyframes
            for run in survivors:
                check_referential_integrity(store)

    def test_shared_keyframe_survives_partial_eviction(self):
        with TraceStore(":memory:") as store:
            store.ingest(synthetic_export("w", 1, [0, 1]))
            store.ingest(synthetic_export("w", 2, [1, 2]))
            store.apply_retention(
                RetentionPolicy(max_runs_per_workload=1))
            survivors = store.runs()
            assert [run.seed for run in survivors] == [2]
            digests = {row[0] for row in store.connection.query(
                "SELECT digest FROM keyframes")}
            # keyframe 1 was shared with the evicted run: still here;
            # keyframe 0 was only the evicted run's: collected
            payloads = {hashlib.sha256(
                (b"keyframe-%d-" % n) * 64).hexdigest(): n
                for n in (0, 1, 2)}
            kept = {payloads[d] for d in digests}
            assert kept == {1, 2}
            check_referential_integrity(store)


# -- crash consistency across the store.commit fault point -----------------

class TestCrashConsistency:
    def test_injected_fault_rolls_back_and_store_survives(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with TraceStore(path) as store:
            store.ingest(synthetic_export("w", 1, [0]))
        plan = FaultPlan.nth(STORE_COMMIT, 0)
        with TraceStore(path, faults=plan) as store:
            with pytest.raises(StoreError) as info:
                store.ingest(synthetic_export("w", 2, [0, 1]))
            assert info.value.reason == "commit_failed"
            # the previous generation is intact and queryable
            assert [run.seed for run in store.runs()] == [1]
            check_referential_integrity(store)
            # the plan fired once; the same store object keeps working
            retry = store.ingest(synthetic_export("w", 2, [0, 1]))
            assert not retry.duplicate
            assert sorted(run.seed for run in store.runs()) == [1, 2]

    def test_kill_dash_nine_mid_commit(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with TraceStore(path) as store:
            store.ingest(synthetic_export("w", 1, [0]))
        child = subprocess.run(
            [sys.executable, "-c", KILL_MID_COMMIT, path],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 9, child.stderr
        # reopen: WAL recovery leaves exactly the prior generation
        with TraceStore(path) as store:
            assert [run.seed for run in store.runs()] == [1]
            check_referential_integrity(store)
            store.ingest(synthetic_export("w", 3, [0, 1]))
            assert sorted(run.seed for run in store.runs()) == [1, 3]


KILL_MID_COMMIT = """
import hashlib, os, sys
from repro.faults import FaultPlan, STORE_COMMIT
from repro.replay.trace import WriteTrace
from repro.store import KeyframeExport, RecordingExport, TraceStore

class KillPlan(FaultPlan):
    def trip(self, point, **context):
        if point == STORE_COMMIT:
            os._exit(9)   # no rollback, no unwind: a real crash

trace = WriteTrace(meta={"workload": "w", "seed": 2,
                         "monitors": "cafe", "stride": 100})
blob = trace.to_bytes()
keyframes = []
for position, ident in enumerate((0, 1)):
    payload = (b"keyframe-%d-" % ident) * 64
    keyframes.append(KeyframeExport(
        position * 100, 0, ident, payload,
        hashlib.sha256(payload).hexdigest()))
export = RecordingExport(
    meta=dict(trace.meta), trace_bytes=blob,
    trace_digest=hashlib.sha256(blob).hexdigest(),
    keyframes=keyframes,
    stats={"instructions": 1002, "stores": 10, "wall_time_s": 0.01,
           "start_index": 0, "end_index": 1002, "trace_records": 0,
           "trace_dropped": 0})
store = TraceStore(sys.argv[1], faults=KillPlan())
store.ingest(export)
os._exit(0)
"""


# -- the analyze CLI -------------------------------------------------------

class TestAnalyzeCli:
    @pytest.fixture
    def populated(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        for seed in (1, 2):
            assert cli_main(["record", "--workload", "023.eqntott",
                             "--scale", "0.2", "--seed", str(seed),
                             "--watch", "__seed",
                             "--store", path]) == 0
        return path

    def test_runs_hot_writes_stats(self, populated, capsys):
        assert cli_main(["analyze", "--db", populated, "runs"]) == 0
        out = capsys.readouterr().out
        assert "023.eqntott" in out
        assert cli_main(["analyze", "--db", populated, "hot"]) == 0
        assert "0x" in capsys.readouterr().out
        assert cli_main(["analyze", "--db", populated, "writes",
                         "--json"]) == 0
        assert '"writes_per_kinstr"' in capsys.readouterr().out
        assert cli_main(["analyze", "--db", populated, "stats"]) == 0
        assert "dedup_ratio" in capsys.readouterr().out

    def test_provenance_resolves_from_the_registry(self, populated,
                                                   capsys):
        assert cli_main(["analyze", "--db", populated, "provenance",
                         "__seed", "--workload", "023.eqntott"]) == 0
        out = capsys.readouterr().out
        assert "-- provenance of" in out
        assert "->" in out

    def test_regress_threshold_gates_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "store.sqlite")
        with TraceStore(path) as store:
            base = synthetic_export("w", 1, [0])
            slow = synthetic_export("w", 2, [0])._replace(
                stats={**base.stats, "instructions": 5000,
                       "end_index": 5000, "wall_time_s": 0.5})
            store.ingest(base)
            store.ingest(slow)
        assert cli_main(["analyze", "--db", path, "regress",
                         "--workload", "w"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert cli_main(["analyze", "--db", path, "regress",
                         "--workload", "w",
                         "--threshold", "1000000"]) == 0


# -- server integration: archive on disconnect -----------------------------

class TestServerArchiving:
    def test_disconnect_archives_the_recording(self, tmp_path):
        from repro.server import DebugClient, DebugServer, ServerConfig
        path = str(tmp_path / "store.sqlite")
        config = ServerConfig(max_sessions=4, workers=2,
                              trace_store=path)
        with DebugServer(config=config).start() as server:
            with DebugClient(port=server.port, timeout=15.0) as client:
                client.initialize()
                session_id = client.launch(SOURCE, record=True,
                                           workload="served")
                info = client.data_breakpoint_info(session_id, "total")
                client.set_data_breakpoints(
                    session_id, [{"dataId": info["dataId"],
                                  "stop": False}])
                stop = client.cont(session_id)
                while not stop.get("exited"):
                    stop = client.cont(session_id)
                client.disconnect(session_id)
        with TraceStore(path) as store:
            runs = store.runs(workload="served")
            assert len(runs) == 1
            assert runs[0].trace_records > 0
