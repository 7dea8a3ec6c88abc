"""Crash-safe session hibernation and fault-tolerance tests.

Covers the ISSUE acceptance criteria end to end: the frozen-file
store's atomic write / verified load / quarantine paths (including the
``hibernate.write`` crash-mid-write and ``hibernate.load`` IO faults),
the manager's hibernate -> transparent-thaw lifecycle with
byte-identical continuation, the resilient client (timeouts, retry
budget, ``client.send`` fault injection, reconnect-and-resume), the
``retryAfter`` backpressure hints, and the full cross-process crash
test: serve --hibernate-dir, freeze, ``kill -9``, restart, resume,
and verify the resumed run matches a never-hibernated one.
"""

import os
import pathlib
import pickle
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.errors import HibernationError, ServerError
from repro.faults import CLIENT_SEND, HIBERNATE_LOAD, HIBERNATE_WRITE, \
    FaultPlan
from repro.machine.state import decode_state, encode_state
from repro.server import (DebugClient, DebugServer, RemoteError,
                          ServerConfig)
from repro.server import hibernate
from repro.server.hibernate import (FORMAT_VERSION, FrozenSession,
                                    HibernationStore)
from repro.server.manager import (RETRY_AFTER_CAPACITY,
                                  RETRY_AFTER_DRAINING, SessionManager,
                                  build_debugger)

SOURCE = """
int total;
int main() {
    register int i;
    total = 0;
    for (i = 0; i < 20; i = i + 1) {
        total = total + i;
    }
    print(total);
    return 0;
}
"""

#: SOURCE's program spec, as ``launch`` records it
PROGRAM = {"source": SOURCE, "lang": "C",
           "strategy": "BitmapInlineRegisters", "optimize": "full",
           "monitorReads": False}


@pytest.fixture
def hdir(tmp_path):
    return str(tmp_path / "frozen")


@pytest.fixture
def server(hdir):
    instance = DebugServer(config=ServerConfig(
        max_sessions=8, workers=4, hibernate_dir=hdir)).start()
    yield instance
    instance.close(drain=False, timeout=2.0)


def client_for(server, **kwargs):
    kwargs.setdefault("timeout", 15.0)
    return DebugClient(port=server.port, **kwargs)


def launch_with_watch(client, stop=False):
    session_id = client.launch(SOURCE)
    info = client.data_breakpoint_info(session_id, "total")
    client.set_data_breakpoints(
        session_id, [{"dataId": info["dataId"], "stop": stop}])
    return session_id


def run_to_exit(client, session_id):
    stop = client.cont(session_id)
    while not stop.get("exited"):
        stop = client.cont(session_id)
    return stop


def sample_frozen(session_id="s1", payload=b"checkpoint-bytes"):
    return FrozenSession(
        session_id=session_id,
        program={"source": "int main() { return 0; }", "lang": "C"},
        breakpoints=[{"dataId": "w:total@", "name": "total",
                      "func": None, "condition": None, "stop": True,
                      "hits": []}],
        debugger_state={"started": True, "stopReason": None},
        record=None, checkpoint_payload=payload, state_digest=12345)


# -- the on-disk store --------------------------------------------------------

class TestHibernationStore:
    def test_save_load_round_trip(self, hdir):
        store = HibernationStore(hdir)
        frozen = sample_frozen()
        path = store.save(frozen)
        assert os.path.exists(path)
        assert store.session_ids() == ["s1"]
        assert store.frozen_size("s1") == os.path.getsize(path)
        loaded = store.load("s1")
        assert loaded.session_id == "s1"
        assert loaded.program == frozen.program
        assert loaded.breakpoints == frozen.breakpoints
        assert loaded.checkpoint_payload == frozen.checkpoint_payload
        assert loaded.state_digest == frozen.state_digest

    def test_save_is_atomic_no_tmp_left_behind(self, hdir):
        store = HibernationStore(hdir)
        store.save(sample_frozen())
        assert not [name for name in os.listdir(hdir)
                    if name.endswith(".tmp")]

    def test_remove_is_idempotent(self, hdir):
        store = HibernationStore(hdir)
        store.save(sample_frozen())
        assert store.remove("s1") is True
        assert store.remove("s1") is False
        assert store.session_ids() == []

    def test_missing_session_is_structured(self, hdir):
        store = HibernationStore(hdir)
        with pytest.raises(HibernationError) as excinfo:
            store.load("nope")
        assert excinfo.value.reason == "missing"

    def test_invalid_session_id_rejected(self, hdir):
        store = HibernationStore(hdir)
        for bad in ("", ".", "..", "a/b"):
            with pytest.raises(HibernationError):
                store.path_for(bad)

    def test_torn_file_quarantined(self, hdir):
        store = HibernationStore(hdir)
        path = store.save(sample_frozen())
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])  # simulated torn write
        with pytest.raises(HibernationError) as excinfo:
            store.load("s1")
        assert excinfo.value.reason == "torn"
        assert excinfo.value.quarantined is not None
        assert not os.path.exists(path)      # moved, not deleted
        assert os.path.exists(excinfo.value.quarantined)
        assert store.quarantined()
        # the bad file is inspected at most once
        with pytest.raises(HibernationError) as excinfo:
            store.load("s1")
        assert excinfo.value.reason == "missing"

    def test_bitflip_fails_digest_and_quarantines(self, hdir):
        store = HibernationStore(hdir)
        path = store.save(sample_frozen())
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(HibernationError) as excinfo:
            store.load("s1")
        assert excinfo.value.reason == "digest"
        assert excinfo.value.quarantined is not None

    def test_bad_magic_is_format_error(self, hdir):
        store = HibernationStore(hdir)
        path = store.path_for("s1")
        with open(path, "wb") as handle:
            handle.write(b"NOTRPRH\n" + b"\0" * 64)
        with pytest.raises(HibernationError) as excinfo:
            store.load("s1")
        assert excinfo.value.reason == "format"

    def test_future_format_version_rejected(self, hdir):
        store = HibernationStore(hdir)
        path = store.save(sample_frozen())
        data = bytearray(open(path, "rb").read())
        data[8:12] = (FORMAT_VERSION + 1).to_bytes(4, "big")
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(HibernationError) as excinfo:
            store.load("s1")
        # the tampered version also breaks the digest-protected body;
        # either way the file must be rejected and quarantined
        assert excinfo.value.reason in ("format", "digest")
        assert excinfo.value.quarantined is not None

    def test_old_format_version_refused(self, hdir, monkeypatch):
        """A file in a previous layout, intact down to its sha256
        trailer, is refused rather than misread."""
        store = HibernationStore(hdir)
        for old_version in (1, 2, 3, 4):
            monkeypatch.setattr(hibernate, "FORMAT_VERSION", old_version)
            store.save(sample_frozen())
            monkeypatch.undo()
            assert FORMAT_VERSION == 5
            with pytest.raises(HibernationError) as excinfo:
                store.load("s1")
            assert excinfo.value.reason == "format"
            assert excinfo.value.context["version"] == old_version

    def test_write_fault_leaves_previous_file_intact(self, hdir):
        """The crash-mid-write simulation: an injected hibernate.write
        fault fires after half the bytes; the previous intact frozen
        file must survive untouched and no torn temp file remains."""
        store = HibernationStore(hdir)
        good_path = store.save(sample_frozen(payload=b"generation-1"))
        good_bytes = open(good_path, "rb").read()

        store.faults = FaultPlan.nth(HIBERNATE_WRITE)
        with pytest.raises(HibernationError) as excinfo:
            store.save(sample_frozen(payload=b"generation-2"))
        assert excinfo.value.reason == "write_failed"
        assert open(good_path, "rb").read() == good_bytes
        assert not [name for name in os.listdir(hdir)
                    if name.endswith(".tmp")]
        assert store.load("s1").checkpoint_payload == b"generation-1"

    def test_load_fault_is_transient_not_quarantine(self, hdir):
        store = HibernationStore(hdir,
                                 faults=FaultPlan.nth(HIBERNATE_LOAD))
        path = store.save(sample_frozen())
        with pytest.raises(HibernationError) as excinfo:
            store.load("s1")
        assert excinfo.value.reason == "io"
        assert os.path.exists(path)          # not the file's fault
        assert store.load("s1").session_id == "s1"  # retry succeeds


# -- manager lifecycle: hibernate, thaw, evict ---------------------------------

class TestHibernateThawLifecycle:
    def test_hibernate_then_transparent_thaw(self, server, hdir):
        with client_for(server) as client:
            client.initialize()
            session_id = launch_with_watch(client)
            body = client.hibernate(session_id)
            assert body["hibernated"] is True
            assert body["frozenBytes"] > 0
            hibernated = client.wait_event("sessionHibernated")
            assert hibernated["sessionId"] == session_id
            assert hibernated["resumable"] is True
            assert os.listdir(hdir)
            # any request naming the id thaws it transparently
            stop = run_to_exit(client, session_id)
            assert stop["exitCode"] == 0
            assert client.evaluate(session_id, "total")["value"] == 190
            # a successful thaw consumes the frozen file
            assert not [name for name in os.listdir(hdir)
                        if name.endswith(".frozen")]

    def test_resumed_run_matches_uninterrupted_run(self, server):
        """The soundness criterion: monitor hits and evaluate results
        after a freeze/thaw cycle are identical to a run that was
        never hibernated."""
        with client_for(server) as reference:
            reference.initialize()
            ref_id = launch_with_watch(reference)
            run_to_exit(reference, ref_id)
            ref_hits = [(hit["address"], hit["size"], hit["pc"],
                         hit["value"], hit["isRead"])
                        for hit in reference.pop_events("monitorHit")]
            ref_total = reference.evaluate(ref_id, "total")

        with client_for(server) as client:
            client.initialize()
            session_id = launch_with_watch(client)
            # advance partway, then freeze mid-run
            client.cont(session_id, quota=60)
            pre_hits = [(hit["address"], hit["size"], hit["pc"],
                         hit["value"], hit["isRead"])
                        for hit in client.pop_events("monitorHit")]
            assert client.hibernate(session_id)["hibernated"] is True
            resumed = client.resume(session_id)
            assert resumed["thawed"] is True
            assert client.wait_event("sessionResumed")["reason"] == "thaw"
            run_to_exit(client, session_id)
            post_hits = [(hit["address"], hit["size"], hit["pc"],
                          hit["value"], hit["isRead"])
                         for hit in client.pop_events("monitorHit")]
            assert pre_hits + post_hits == ref_hits
            assert client.evaluate(session_id, "total") == ref_total

    def test_idle_eviction_hibernates_with_store(self, hdir):
        config = ServerConfig(hibernate_dir=hdir, idle_timeout=0.2)
        with DebugServer(config=config).start() as server:
            with client_for(server) as client:
                client.initialize()
                session_id = launch_with_watch(client)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if server.manager.frozen_ids() == [session_id]:
                        break
                    time.sleep(0.05)
                assert server.manager.frozen_ids() == [session_id]
                assert client.wait_event("sessionHibernated",
                                         timeout=5.0)["reason"] == "idle"
                # the frozen id still answers requests (thawing first)
                assert client.evaluate(session_id, "total")["value"] == 0

    def test_hibernate_refuses_fault_plan_sessions(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(
                SOURCE, faults={"schedule": {"service.create_region": []}})
            body = client.hibernate(session_id)
            assert body["hibernated"] is False
            # still live and usable
            assert client.evaluate(session_id, "total")["value"] == 0

    def test_callable_condition_session_is_destroyed_not_frozen(self,
                                                                 hdir):
        """A callable condition has no wire-level spec, so a thaw would
        rebuild an unconditional watch that stops at the next write.
        The session refuses to hibernate, runs on as if never touched,
        and the idle sweep destroys it instead."""
        manager = SessionManager(max_sessions=2,
                                 store=HibernationStore(hdir))

        def factory():
            debugger = build_debugger(PROGRAM)
            debugger.watch("total", action="stop",
                           condition=lambda value: value == 6)
            return debugger

        managed = manager.create(factory)
        managed.program_spec = dict(PROGRAM)
        debugger = managed.debugger
        assert debugger.run() == "watch"
        assert debugger.evaluate("total")[2] == 6
        assert manager.hibernate(managed.id) is False
        assert manager.get(managed.id) is managed
        assert debugger.run() == "exited"
        assert debugger.evaluate("total")[2] == 190
        assert manager.evict_idle(timeout=0.0) == [managed.id]
        assert manager.session_ids() == [] == manager.frozen_ids()

    @pytest.mark.parametrize("options", [
        {"action": "call", "callback": lambda *hit: None},
        {"action": "log", "callback": lambda *hit: None},
        {"action": "print"},
    ], ids=["call", "callback", "print"])
    def test_unrebuildable_watch_refuses_to_freeze(self, options):
        manager = SessionManager(max_sessions=1)
        managed = manager.create(lambda: build_debugger(PROGRAM))
        managed.program_spec = dict(PROGRAM)
        managed.debugger.watch("total", **options)
        with pytest.raises(HibernationError) as excinfo:
            hibernate.freeze_managed(managed)
        assert excinfo.value.reason == "unsupported"

    def test_resume_of_torn_file_fails_structurally(self, server, hdir):
        with client_for(server) as client:
            client.initialize()
            session_id = launch_with_watch(client)
            client.hibernate(session_id)
            (frozen_name,) = [name for name in os.listdir(hdir)
                              if name.endswith(".frozen")]
            path = os.path.join(hdir, frozen_name)
            data = open(path, "rb").read()
            with open(path, "wb") as handle:
                handle.write(data[:len(data) - 7])
            with pytest.raises(RemoteError) as excinfo:
                client.request("resume", {"sessionId": session_id},
                               retries=0)
            assert excinfo.value.context["reason"] == "resume_failed"
            assert excinfo.value.context["cause"] == "torn"
            assert "quarantined" in excinfo.value.context
            # the id no longer resolves: quarantine is terminal
            with pytest.raises(RemoteError) as excinfo:
                client.request("resume", {"sessionId": session_id},
                               retries=0)
            assert excinfo.value.context["reason"] == "unknown_session"

    def resume_tampered(self, server, hdir, tamper):
        """Freeze a session mid-run, rewrite its frozen file through
        *tamper* (the sha256 trailer is recomputed on save), and return
        the structured cause its resume fails with."""
        with client_for(server) as client:
            client.initialize()
            session_id = launch_with_watch(client)
            client.cont(session_id, quota=60)
            assert client.hibernate(session_id)["hibernated"] is True
            store = HibernationStore(hdir)
            frozen = store.load(session_id)
            tamper(frozen)
            store.save(frozen)
            with pytest.raises(RemoteError) as excinfo:
                client.request("resume", {"sessionId": session_id},
                               retries=0)
        assert excinfo.value.context["reason"] == "resume_failed"
        return excinfo.value.context["cause"]

    def test_flipped_memory_word_fails_the_digest(self, server, hdir):
        def flip(frozen):
            image = build_debugger(frozen.program).cpu.code.image
            checkpoint = decode_state(frozen.checkpoint_payload, image)
            word = min(checkpoint.memory_words)
            checkpoint.memory_words[word] ^= 1
            frozen.checkpoint_payload = encode_state(checkpoint, image)
        assert self.resume_tampered(server, hdir, flip) == "digest"

    def test_rebuild_to_another_image_is_refused(self, server, hdir):
        def edit(frozen):
            frozen.program = dict(frozen.program, source=SOURCE.replace(
                "i < 20", "i < 21"))
        assert self.resume_tampered(server, hdir, edit) == "rebuild"

    def test_disconnect_discards_frozen_file(self, server, hdir):
        with client_for(server) as client:
            client.initialize()
            session_id = launch_with_watch(client)
            client.hibernate(session_id)
            assert client.disconnect(session_id) is True
            assert not [name for name in os.listdir(hdir)
                        if name.endswith(".frozen")]
            with pytest.raises(RemoteError) as excinfo:
                client.evaluate(session_id, "total")
            assert excinfo.value.context["reason"] == "unknown_session"

    def test_threads_lists_frozen_sessions(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = launch_with_watch(client)
            client.hibernate(session_id)
            body = client.request("threads")
            assert session_id in body["frozen"]
            assert session_id not in [entry["sessionId"]
                                      for entry in body["sessions"]]


# -- predicate watchpoints across hibernation (protocol v4) -------------------

READ_SOURCE = """
int flag;
int total;
int main() {
    register int i;
    total = 0;
    for (i = 0; i < 20; i = i + 1) {
        flag = i;
        total = total + flag;
    }
    print(total);
    return 0;
}
"""


class TestPredicateWatchpointHibernation:
    """The ISSUE satellite: a read watchpoint set via protocol fires
    through ``monitorHit``, survives hibernate/thaw, and keeps its
    predicate + transition shadow state across resume."""

    #: bit 2 of flag: False for 0-3, True for 4-7, False for 8-11, ...
    #: so a "rise" transition on the loop's reads fires at 4 and 12
    CONDITION = "($value & 4) != 0"
    RISE_VALUES = [4, 12]

    def launch_read_transition(self, client):
        session_id = client.launch(READ_SOURCE, monitorReads=True)
        info = client.data_breakpoint_info(session_id, "flag")
        assert info["accessTypes"] == ["read", "write", "readWrite"]
        results = client.set_data_breakpoints(
            session_id, [{"dataId": info["dataId"], "stop": True,
                          "condition": self.CONDITION, "when": "rise",
                          "accessType": "read"}])
        assert results[0]["verified"] is True
        assert results[0]["kind"] == "transition"
        return session_id

    def collect_stops(self, client, session_id):
        stops = []
        stop = client.cont(session_id)
        while not stop.get("exited"):
            if stop["reason"] == "watch":
                stops.append(stop["value"])
            stop = client.cont(session_id)
        return stops, stop

    def hit_stream(self, client):
        return [(hit["address"], hit["size"], hit["pc"], hit["value"],
                 hit["isRead"])
                for hit in client.pop_events("monitorHit")]

    def test_read_transition_survives_hibernate_thaw(self, server,
                                                     hdir):
        # reference: the same session, never hibernated
        with client_for(server) as reference:
            reference.initialize()
            ref_id = self.launch_read_transition(reference)
            ref_stops, ref_exit = self.collect_stops(reference, ref_id)
            assert ref_stops == self.RISE_VALUES
            assert ref_exit["exitCode"] == 0
            ref_hits = self.hit_stream(reference)
            assert any(is_read for *_rest, is_read in ref_hits)
            ref_total = reference.evaluate(ref_id, "total")

        with client_for(server) as client:
            client.initialize()
            session_id = self.launch_read_transition(client)
            # run to the first rise (read of flag == 4), then freeze
            # while the transition truth is True and the shadow holds 4
            stop = client.cont(session_id)
            assert stop["reason"] == "watch"
            assert stop["value"] == self.RISE_VALUES[0]
            pre_hits = self.hit_stream(client)
            assert client.hibernate(session_id)["hibernated"] is True

            # the frozen file carries the engine state verbatim, in
            # the debugger snapshot's state: per watchpoint, plus the
            # one old-value shadow
            frozen = HibernationStore(hdir).load(session_id)
            spec = frozen.breakpoints[0]
            assert spec["condition"] == self.CONDITION
            assert spec["when"] == "rise"
            assert spec["accessType"] == "read"
            engine = frozen.debugger_state["watchpoints"][0]
            assert engine["enabled"] is True
            assert engine["truth"] is True
            assert 4 in [value for _word, value
                         in frozen.debugger_state["shadow"]]
            assert engine["disarm"] is None
            assert engine["stats"][0] > 0  # hits observed pre-freeze

            assert client.resume(session_id)["thawed"] is True
            stops, exit_stop = self.collect_stops(client, session_id)
            # truth stayed True across the thaw: the reads of 5-7 are
            # not fresh rises, the next stop is the read of 12
            assert [self.RISE_VALUES[0]] + stops == ref_stops
            assert exit_stop["exitCode"] == 0
            assert pre_hits + self.hit_stream(client) == ref_hits
            assert client.evaluate(session_id, "total") == ref_total


#: SOURCE plus a global nothing writes
PRUNE_SOURCE = "int quiet;" + SOURCE

LOCAL_SOURCE = """
int main() {
    int t;
    register int i;
    t = 0;
    for (i = 0; i < 10; i = i + 1) { t = t + i; }
    print(t);
    return 0;
}
"""


class TestThawMatchesDebuggerSnapshot:
    """Thaw builds watchpoints through ``Debugger.watch()``'s own code
    and restores the debugger's own snapshot, so a thawed session goes
    on exactly as a never-hibernated one."""

    def watched_run(self, server, client, source, name, freeze,
                    func=None, condition=None, steps=0, **launch):
        """Watch *name* (non-stopping), continue 60 instructions,
        maybe hibernate and resume, run to exit; returns the
        watchpoint's engine facts and the monitorHit stream."""
        session_id = client.launch(source, **launch)
        if steps:
            client.request("step", {"sessionId": session_id,
                                    "count": steps})
        data_id = client.data_breakpoint_info(session_id, name,
                                              func)["dataId"]
        client.set_data_breakpoints(session_id, [{
            "dataId": data_id, "stop": False, "condition": condition}])
        client.cont(session_id, quota=60)
        if freeze:
            assert client.hibernate(session_id)["hibernated"] is True
            assert client.resume(session_id)["thawed"] is True
        assert run_to_exit(client, session_id)["exitCode"] == 0
        (watchpoint,) = server.manager.get(session_id).debugger.watchpoints
        return ((watchpoint.invariant, watchpoint.stats.as_tuple(),
                 list(watchpoint.hits)),
                [(hit["address"], hit["value"])
                 for hit in client.pop_events("monitorHit")])

    def test_pruned_predicate_survives_hibernate_thaw(self, server):
        with client_for(server) as client:
            client.initialize()
            reference, thawed = [self.watched_run(
                server, client, PRUNE_SOURCE, "total", freeze,
                condition="quiet == 0", optimize="ipa")[0]
                for freeze in (False, True)]
        invariant, stats, hits = reference
        # `quiet` is never written: the pruner answers every one of
        # total's 21 writes from the arm-time truth
        assert invariant is True
        assert stats[2] == 0 and stats[6] == 21  # evals, pruned
        assert len(hits) == 21
        assert thawed == reference

    def test_frame_local_watch_survives_hibernate_thaw(self, server):
        """A frame-local resolves against the frame it was watched in,
        not against the freshly rebuilt machine's."""
        with client_for(server) as client:
            client.initialize()
            reference, thawed = [self.watched_run(
                server, client, LOCAL_SOURCE, "t", freeze, func="main",
                steps=3)[1] for freeze in (False, True)]
        assert reference[-1][1] == 45
        assert thawed == reference

    def test_breakpoints_replaceable_after_thaw(self, server):
        """Thawed watchpoints share regions exactly as before the
        freeze: replacing the breakpoint set frees and re-arms them."""
        with client_for(server) as client:
            client.initialize()
            session_id = launch_with_watch(client)
            client.cont(session_id, quota=60)
            assert client.hibernate(session_id)["hibernated"] is True
            info = client.data_breakpoint_info(session_id, "total")
            assert client.set_data_breakpoints(session_id, [
                {"dataId": info["dataId"]}])[0]["verified"] is True
            assert run_to_exit(client, session_id)["exitCode"] == 0
            debugger = server.manager.get(session_id).debugger
            assert len(debugger.mrs.regions) == 1

    def test_crafted_payload_runs_nothing(self, hdir, tmp_path):
        """The sha256 trailer authenticates nothing: a pickle that
        reduces to a call is not a state encoding, and is refused
        before anything it names runs."""
        marker = tmp_path / "marker"

        class Touch:
            def __reduce__(self):
                return (pathlib.Path.touch, (pathlib.Path(marker),))

        HibernationStore(hdir).save(FrozenSession(
            session_id="s1", program={"source": SOURCE}, breakpoints=[],
            debugger_state={}, record=None,
            checkpoint_payload=pickle.dumps(Touch()), state_digest=0))
        with DebugServer(config=ServerConfig(
                hibernate_dir=hdir)).start() as server:
            with client_for(server) as client:
                client.initialize()
                with pytest.raises(RemoteError) as excinfo:
                    client.request("resume", {"sessionId": "s1"},
                                   retries=0)
        assert not marker.exists()
        assert excinfo.value.context["reason"] == "resume_failed"
        assert excinfo.value.context["cause"] == "format"


# -- client resilience ---------------------------------------------------------

class TestClientResilience:
    def test_injected_send_fault_is_retried(self, server):
        plan = FaultPlan.nth(CLIENT_SEND, n=1)  # fault the 2nd send
        with client_for(server, fault_plan=plan, backoff=0.01,
                        backoff_seed=7) as client:
            client.initialize()
            session_id = launch_with_watch(client)  # trips + retries
            assert plan.fired
            assert client.evaluate(session_id, "total")["value"] == 0

    def test_reconnect_resumes_hibernated_sessions(self, server):
        with client_for(server, backoff=0.01, backoff_seed=7) as client:
            client.initialize()
            session_id = launch_with_watch(client)
            client.cont(session_id, quota=60)
            client.pop_events()
            # simulate a network partition: kill the transport under
            # the client; the server's connection-drop path hibernates
            client._sock.shutdown(socket.SHUT_RDWR)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if server.manager.frozen_ids() == [session_id]:
                    break
                time.sleep(0.05)
            assert server.manager.frozen_ids() == [session_id]
            # the next request reconnects, replays initialize, and
            # resumes the session id — then executes normally
            stop = run_to_exit(client, session_id)
            assert stop["exitCode"] == 0
            assert not client.resume_errors
            assert client.evaluate(session_id, "total")["value"] == 190

    def test_request_timeout_is_bounded(self, server):
        with client_for(server) as client:
            client.initialize()
            # continue is not idempotent: a timeout must surface, and
            # promptly, rather than blocking for the default 15s
            session_id = client.launch(SOURCE)
            from repro.server.client import RequestTimeout
            started = time.monotonic()
            with pytest.raises(RequestTimeout):
                client.request("continue", {"sessionId": session_id},
                               timeout=0.0, retries=0)
            assert time.monotonic() - started < 5.0

    def test_capacity_error_carries_retry_after(self, hdir):
        config = ServerConfig(max_sessions=1, hibernate_dir=hdir)
        with DebugServer(config=config).start() as server:
            with client_for(server) as client:
                client.initialize()
                client.launch(SOURCE)
                with pytest.raises(RemoteError) as excinfo:
                    client.request("launch", {"source": SOURCE},
                                   retries=0)
                assert excinfo.value.context["reason"] == "capacity"
                assert excinfo.value.retry_after == \
                    pytest.approx(RETRY_AFTER_CAPACITY)

    def test_heartbeat_keeps_liveness_window_open(self, hdir):
        config = ServerConfig(hibernate_dir=hdir, liveness_timeout=1.0)
        with DebugServer(config=config).start() as server:
            with client_for(server, heartbeat=0.25) as client:
                client.initialize()
                session_id = launch_with_watch(client)
                # without heartbeats the server would drop us at 1s;
                # the ping loop keeps the connection (and session) live
                time.sleep(2.0)
                assert server.manager.frozen_ids() == []
                assert client.evaluate(session_id, "total",
                                       )["value"] == 0

    def test_silent_client_is_hibernated_by_liveness_timeout(self, hdir):
        config = ServerConfig(hibernate_dir=hdir, liveness_timeout=0.3)
        with DebugServer(config=config).start() as server:
            client = client_for(server)  # no heartbeat
            try:
                client.initialize()
                session_id = launch_with_watch(client)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if server.manager.frozen_ids() == [session_id]:
                        break
                    time.sleep(0.05)
                assert server.manager.frozen_ids() == [session_id]
            finally:
                client.close()


# -- manager robustness (satellite fixes) -------------------------------------

class TestManagerRobustness:
    def test_destroy_placeholder_emits_nothing(self):
        manager = SessionManager(max_sessions=2)
        seen = []

        def factory():
            raise RuntimeError("compile failed")

        with pytest.raises(RuntimeError):
            manager.create(factory)
        # the placeholder was destroyed without a sessionEvicted emit
        # (no subscribers existed, and none were notified)
        assert manager.session_ids() == []
        assert seen == []

    def test_emit_survives_concurrent_unsubscribe(self):
        from repro.server.manager import ManagedSession

        managed = ManagedSession("s1", debugger=object())
        seen = []

        def good(event, body):
            seen.append((event, body["sessionId"]))

        def dying(event, body):
            raise OSError("sink died")

        managed.subscribe(good)
        managed.subscribe(dying)
        managed.subscribe(good)  # idempotent: registered once
        assert managed.emitters.count(good) == 1
        managed.emit("monitorHit", {"address": 4})
        assert seen == [("monitorHit", "s1")]
        assert dying not in managed.emitters  # dead sink pruned
        managed.closed = True
        managed.emit("monitorHit", {"address": 8})  # no-op when closed
        assert seen == [("monitorHit", "s1")]

    def test_shutdown_drain_lets_inflight_finish(self):
        import threading

        manager = SessionManager(max_sessions=2, workers=2)
        managed = manager.create(lambda: object())
        release = threading.Event()
        finished = []

        def slow(session):
            release.wait(5.0)
            finished.append(session.id)
            return "done"

        worker = threading.Thread(
            target=lambda: manager.execute(managed.id, slow))
        worker.start()
        time.sleep(0.1)  # let the execute claim its slot
        shutdown = threading.Thread(
            target=lambda: manager.shutdown(drain=True, timeout=5.0))
        shutdown.start()
        time.sleep(0.1)
        # draining: new work refused with a retryAfter hint...
        with pytest.raises(ServerError) as excinfo:
            manager.execute(managed.id, lambda session: None)
        assert excinfo.value.context["reason"] == "draining"
        assert excinfo.value.context["retryAfter"] == \
            pytest.approx(RETRY_AFTER_DRAINING)
        # ...but the in-flight execution completes before teardown
        release.set()
        worker.join(5.0)
        shutdown.join(5.0)
        assert finished == [managed.id]
        assert manager.session_ids() == []

    def test_shutdown_drain_timeout_force_destroys(self):
        import threading

        manager = SessionManager(max_sessions=2, workers=2)
        managed = manager.create(lambda: object())
        release = threading.Event()

        def wedged(session):
            release.wait(10.0)

        worker = threading.Thread(
            target=lambda: manager.execute(managed.id, wedged))
        worker.start()
        time.sleep(0.1)
        # free the wedged execution only *after* the 0.3s drain window
        # has expired, so teardown provably did not wait the full 10s
        threading.Timer(1.0, release.set).start()
        started = time.monotonic()
        manager.shutdown(drain=True, timeout=0.3)
        elapsed = time.monotonic() - started
        assert 0.3 <= elapsed < 5.0
        assert manager.session_ids() == []
        release.set()
        worker.join(5.0)


# -- the cross-process crash test ---------------------------------------------

def _spawn_server(hibernate_dir):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--hibernate-dir", hibernate_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True)
    banner = process.stdout.readline()
    assert "listening on" in banner, banner
    port = int(banner.split("listening on ")[1].split()[0]
               .rsplit(":", 1)[1])
    adoption = process.stdout.readline()
    assert "hibernation:" in adoption, adoption
    adopted = int(adoption.split("(")[1].split()[0])
    return process, port, adopted


class TestCrashRecovery:
    def test_kill_dash_nine_then_resume_byte_identical(self, tmp_path):
        """The headline acceptance test: a session hibernated to disk
        survives ``kill -9`` of the server; the client reconnects with
        backoff, resumes by id, and the remaining monitor hits and
        evaluate results are identical to an uninterrupted run."""
        hibernate_dir = str(tmp_path / "frozen")

        # reference: the same program, never hibernated
        with DebugServer(config=ServerConfig()).start() as reference:
            with client_for(reference) as client:
                client.initialize()
                ref_id = launch_with_watch(client)
                run_to_exit(client, ref_id)
                ref_hits = [(hit["address"], hit["size"], hit["pc"],
                             hit["value"], hit["isRead"])
                            for hit in client.pop_events("monitorHit")]
                ref_total = client.evaluate(ref_id, "total")["value"]

        process, port, adopted = _spawn_server(hibernate_dir)
        try:
            assert adopted == 0
            client = DebugClient(port=port, timeout=15.0, backoff=0.05,
                                 backoff_seed=11)
            client.initialize()
            session_id = launch_with_watch(client)
            client.cont(session_id, quota=60)
            pre_hits = [(hit["address"], hit["size"], hit["pc"],
                         hit["value"], hit["isRead"])
                        for hit in client.pop_events("monitorHit")]
            assert client.hibernate(session_id)["hibernated"] is True

            process.kill()  # SIGKILL: no drain, no cleanup
            process.wait(timeout=10)
            frozen = [name for name in os.listdir(hibernate_dir)
                      if name.endswith(".frozen")]
            assert frozen, "frozen file must survive the crash"

            restarted, port2, adopted2 = _spawn_server(hibernate_dir)
            try:
                assert adopted2 == 1
                # the old connection is dead; reconnect-and-resume is
                # automatic, but the port moved, so point the client
                # at the restarted process first
                client.port = port2
                # the dead connection makes this request reconnect with
                # backoff; the handshake resumes (thaws) the session id
                # before the explicit resume below re-reads its state
                resumed = client.resume(session_id)
                assert resumed["sessionId"] == session_id
                assert not client.resume_errors
                stop = run_to_exit(client, session_id)
                assert stop["exitCode"] == 0
                post_hits = [(hit["address"], hit["size"], hit["pc"],
                              hit["value"], hit["isRead"])
                             for hit in client.pop_events("monitorHit")]
                assert pre_hits + post_hits == ref_hits
                assert client.evaluate(session_id,
                                       "total")["value"] == ref_total
                client.close()
            finally:
                restarted.send_signal(signal.SIGTERM)
                try:
                    restarted.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    restarted.kill()
        finally:
            if process.poll() is None:
                process.kill()
