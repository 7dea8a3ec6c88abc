"""End-to-end debug-server tests over real sockets.

Covers the ISSUE acceptance flow (two concurrent sessions, launch ->
setDataBreakpoints -> continue -> monitorHit -> disconnect), quota
degradation, fault-injected sessions, capacity limits, idle eviction,
malformed/oversized frame handling, draining shutdown, time travel
(protocol v2: record -> reverseContinue / stepBack / lastWrite), and
the thread-safety of a shared MonitoredRegionService.
"""

import socket
import struct
import threading
import time

import pytest

from repro.errors import ServerError
from repro.faults import BITMAP_ALLOC
from repro.machine.cpu import SimulationLimit
from repro.server import (DebugClient, DebugServer, RemoteError,
                          ServerConfig)
from repro.server.protocol import decode, encode, read_frame, Request
from repro.session import DebugSession

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

TEXT_BASE = 0x10000


@pytest.fixture
def server():
    instance = DebugServer(config=ServerConfig(max_sessions=8,
                                               workers=4)).start()
    yield instance
    instance.close(drain=False, timeout=2.0)


def client_for(server, timeout=15.0):
    return DebugClient(port=server.port, timeout=timeout)


def launch_with_watch(client, stop=True):
    session_id = client.launch(SOURCE)
    info = client.data_breakpoint_info(session_id, "total")
    assert info["dataId"] == "w:total@"
    results = client.set_data_breakpoints(
        session_id, [{"dataId": info["dataId"], "stop": stop}])
    assert results[0]["verified"] is True
    return session_id, info


def run_to_exit(client, session_id):
    stop = client.cont(session_id)
    while not stop.get("exited"):
        stop = client.cont(session_id)
    return stop


class TestAcceptanceFlow:
    def test_launch_watch_hit_evaluate_disconnect(self, server):
        with client_for(server) as client:
            negotiated = client.initialize()
            assert negotiated["capabilities"][
                "supportsDataBreakpoints"] is True
            session_id, info = launch_with_watch(client)
            stop = client.cont(session_id)
            assert stop["reason"] == "watch"
            assert stop["symbol"] == "total"
            assert stop["hitBreakpointIds"] == ["w:total@"]
            hit = client.wait_event("monitorHit")
            assert hit["sessionId"] == session_id
            assert hit["symbol"] == "total"
            assert hit["address"] == info["address"]
            assert hit["size"] == info["size"]
            assert hit["pc"] >= TEXT_BASE
            assert hit["isRead"] is False
            stop = run_to_exit(client, session_id)
            assert stop["exitCode"] == 0
            # 20 loop writes + the initialisation write
            hits = client.pop_events("monitorHit")
            assert len(hits) + 1 == 21
            output = "".join(body["output"]
                             for body in client.pop_events("output"))
            assert "190" in output
            assert client.evaluate(session_id, "total")["value"] == 190
            assert client.disconnect(session_id) is True
            with pytest.raises(RemoteError) as excinfo:
                client.evaluate(session_id, "total")
            assert excinfo.value.context["reason"] == "unknown_session"

    def test_two_concurrent_sessions_one_disconnects(self, server):
        """The ISSUE acceptance criterion: two concurrent sessions each
        observe their own monitorHit with the right symbol and pc, and
        one disconnecting does not disturb the other."""
        barrier = threading.Barrier(2, timeout=20)
        results = {}
        errors = []

        def drive(name, extra_continues):
            try:
                with client_for(server) as client:
                    client.initialize()
                    session_id, info = launch_with_watch(client)
                    barrier.wait()  # both sessions live concurrently
                    stop = client.cont(session_id)
                    hit = client.wait_event("monitorHit")
                    assert hit["symbol"] == "total"
                    assert hit["pc"] >= TEXT_BASE
                    assert hit["sessionId"] == session_id
                    barrier.wait()  # both have observed a hit
                    for _ in range(extra_continues):
                        if stop.get("exited"):
                            break
                        stop = client.cont(session_id)
                    results[name] = (session_id, stop["reason"])
                    client.disconnect(session_id)
            except Exception as exc:  # pragma: no cover
                errors.append((name, exc))

        first = threading.Thread(target=drive, args=("first", 0))
        second = threading.Thread(target=drive, args=("second", 50))
        first.start()
        second.start()
        first.join(timeout=30)
        second.join(timeout=30)
        assert not errors, errors
        assert results["first"][0] != results["second"][0]
        assert results["second"][1] == "exited"
        # the server survived both sessions and still serves
        with client_for(server) as client:
            client.initialize()
            assert client.sessions() == []

    def test_conditional_breakpoint(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            info = client.data_breakpoint_info(session_id, "total")
            client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"],
                              "condition": ">= 100"}])
            stop = client.cont(session_id)
            assert stop["reason"] == "watch"
            assert stop["value"] >= 100

    def test_step_and_unwatchable_name(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            stop = client.step(session_id, count=5)
            assert stop["reason"] == "step"
            assert stop["instructions"] == 5
            # a register variable is not watchable: null dataId + note
            info = client.data_breakpoint_info(session_id, "i",
                                               func="main")
            assert info["dataId"] is None
            assert "register" in info["description"]


class TestQuotaDegradation:
    def test_quota_is_resumable_and_instructions_accumulate(self):
        config = ServerConfig(quota_instructions=40)
        with DebugServer(config=config).start() as server:
            with client_for(server) as client:
                client.initialize()
                session_id, _info = launch_with_watch(client, stop=False)
                stop = client.cont(session_id)
                assert stop["reason"] == "quota"
                assert stop["resumable"] is True
                assert stop["budget"] == "instructions"
                quotas = 1
                while stop["reason"] == "quota":
                    stop = client.cont(session_id)
                    quotas += 1
                    assert quotas < 100
                assert stop["reason"] == "exited"
                assert quotas > 1
                assert stop["instructionsSpent"] == stop["instructions"]

    def test_client_cannot_exceed_server_quota(self):
        config = ServerConfig(quota_instructions=40)
        with DebugServer(config=config).start() as server:
            with client_for(server) as client:
                client.initialize()
                session_id = client.launch(SOURCE)
                stop = client.cont(session_id, quota=10_000_000)
                assert stop["reason"] == "quota"


class TestFaultInjection:
    def test_injected_fault_is_a_structured_error_not_a_crash(self,
                                                              server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(
                SOURCE, faults={"schedule": {BITMAP_ALLOC: [0]}})
            info = client.data_breakpoint_info(session_id, "total")
            results = client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"]}])
            assert results[0]["verified"] is False
            error = results[0]["error"]
            assert error["error"] == "RegionCreateError"
            assert error["cause"]["error"] == "InjectedFault"
            assert "region" in error["context"]
            # the MRS rolled back: the same breakpoint now installs
            # (occurrence 0 already consumed) and the session still runs
            results = client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"]}])
            assert results[0]["verified"] is True
            assert client.cont(session_id)["reason"] == "watch"
        # ... and the server still serves fresh sessions
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            assert run_to_exit(client, session_id)["exitCode"] == 0


class TestResourceManagement:
    def test_session_capacity_is_enforced(self):
        config = ServerConfig(max_sessions=1)
        with DebugServer(config=config).start() as server:
            with client_for(server) as client:
                client.initialize()
                client.launch(SOURCE)
                with pytest.raises(RemoteError) as excinfo:
                    client.launch(SOURCE)
                assert excinfo.value.remote_error == "ServerError"
                assert excinfo.value.context["reason"] == "capacity"

    def test_idle_sessions_are_evicted_with_an_event(self):
        config = ServerConfig(idle_timeout=0.3)
        with DebugServer(config=config).start() as server:
            with client_for(server) as client:
                client.initialize()
                session_id = client.launch(SOURCE)
                evicted = client.wait_event("sessionEvicted",
                                            timeout=10.0)
                assert evicted["sessionId"] == session_id
                assert evicted["reason"] == "idle"
                with pytest.raises(RemoteError) as excinfo:
                    client.cont(session_id)
                assert excinfo.value.context["reason"] == \
                    "unknown_session"

    def test_close_wakes_the_accept_thread(self):
        started = time.monotonic()
        server = DebugServer().start()
        server.close()
        assert time.monotonic() - started < 1.0
        assert not server._accept_thread.is_alive()

    def test_draining_manager_refuses_new_work(self, server):
        manager = server.manager
        manager.shutdown(drain=True, timeout=1.0)
        with pytest.raises(ServerError) as excinfo:
            manager.create(lambda: None)
        assert excinfo.value.context["reason"] == "draining"
        with pytest.raises(ServerError):
            manager.execute("s1", lambda managed: None)

    @pytest.mark.parametrize("record", [{"stride": 0}, {"maxTrace": 0}],
                             ids=["stride", "maxTrace"])
    def test_refused_record_spec_frees_its_session_slot(self, record):
        config = ServerConfig(max_sessions=1)
        with DebugServer(config=config).start() as server:
            with client_for(server) as client:
                client.initialize()
                for _attempt in range(2):
                    with pytest.raises(RemoteError) as excinfo:
                        client.launch(SOURCE, record=record)
                    assert excinfo.value.remote_error == "ReplayError"
                assert client.sessions() == []
                # the one slot is still free for a good launch
                session_id = client.launch(SOURCE, record=True)
                assert [s["sessionId"] for s in client.sessions()] == \
                    [session_id]

    def test_disconnecting_client_reaps_its_sessions(self, server):
        client = client_for(server)
        client.initialize()
        client.launch(SOURCE)
        assert server.manager.session_count() == 1
        client.close()
        deadline = threading.Event()
        for _ in range(100):
            if server.manager.session_count() == 0:
                break
            deadline.wait(0.05)
        assert server.manager.session_count() == 0


class TestWireRobustness:
    def test_malformed_frame_gets_error_and_connection_survives(self,
                                                                server):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=10)
        try:
            body = b"this is not json"
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = decode(read_frame(sock))
            assert response.success is False
            assert response.error["error"] == "ProtocolError"
            # frame boundaries held: the connection still serves
            sock.sendall(encode(Request(seq=1, command="initialize",
                                        arguments={})))
            response = decode(read_frame(sock))
            assert response.success is True
        finally:
            sock.close()

    def test_oversized_frame_drops_the_connection(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=10)
        try:
            sock.sendall(struct.pack(">I", 1 << 30))
            response = decode(read_frame(sock))
            assert response.success is False
            assert response.error["context"]["reason"] == "oversized"
            assert read_frame(sock) is None  # server hung up
        finally:
            sock.close()

    def test_server_ignores_client_events(self, server):
        with client_for(server) as client:
            client.initialize()
            from repro.server.protocol import Event
            client._sock.sendall(encode(Event(seq=99, event="rogue")))
            # a direction violation is answered, not fatal
            assert client.initialize()["protocolVersion"] == 4


class TestTimeTravel:
    """ISSUE acceptance: time travel end to end over the socket."""

    def test_capability_negotiation_gates_step_back(self, server):
        with client_for(server) as client:
            negotiated = client.initialize()
            assert negotiated["protocolVersion"] == 4
            assert negotiated["capabilities"]["supportsStepBack"] is True
            # a v1 client must never be offered time travel
            legacy = client.initialize(version=1)
            assert legacy["protocolVersion"] == 1
            assert "supportsStepBack" not in legacy["capabilities"]

    def test_reverse_continue_and_last_write_over_socket(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE, record={"stride": 200})
            info = client.data_breakpoint_info(session_id, "total")
            client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"], "stop": False}])
            stop = run_to_exit(client, session_id)
            final = stop["instructions"]
            forward_hits = client.pop_events("monitorHit")
            assert forward_hits

            # reverse-continue stops at the most recent recorded write
            stop = client.reverse_continue(session_id)
            assert stop["reason"] == "watch"
            assert stop["symbol"] == "total"
            assert stop["value"] == 190
            assert stop["instructions"] < final
            assert stop["exited"] is False
            first_stop = stop["instructions"]

            # ... and keeps walking backwards through earlier writes
            stop = client.reverse_continue(session_id)
            assert stop["reason"] == "watch"
            assert stop["instructions"] < first_stop
            assert stop["value"] < 190

            # the replayed window streamed monitorHit events again
            replayed = client.pop_events("monitorHit")
            assert replayed
            assert all(hit["sessionId"] == session_id
                       for hit in replayed)

            # lastWrite answers (pc, instruction, old/new) from here
            body = client.last_write(session_id, "total")
            assert body["found"] is True
            assert body["address"] == info["address"]
            assert body["pc"] >= TEXT_BASE
            assert body["instruction"] < stop["instructions"]
            assert body["newValue"] == stop["value"]
            assert body["source"] == "trace"

            # stepBack lands exactly count instructions earlier
            here = stop["instructions"]
            stop = client.step_back(session_id, count=7)
            assert stop["reason"] == "step"
            assert stop["instructions"] == here - 7

            # forward execution from the travelled point still works
            stop = run_to_exit(client, session_id)
            assert stop["exitCode"] == 0
            assert stop["instructions"] == final
            client.disconnect(session_id)

    def test_reverse_requests_need_a_recording(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)  # no record option
            for call in (lambda: client.reverse_continue(session_id),
                         lambda: client.step_back(session_id),
                         lambda: client.last_write(session_id, "total")):
                with pytest.raises(RemoteError) as excinfo:
                    call()
                assert excinfo.value.remote_error == "ReplayError"
                assert excinfo.value.context["reason"] == "not_recording"
            # the session itself is unharmed
            assert run_to_exit(client, session_id)["exitCode"] == 0

    def test_reverse_continue_at_start_reports_replay_start(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE, record=True)
            launch_info = client.data_breakpoint_info(session_id, "total")
            client.set_data_breakpoints(
                session_id, [{"dataId": launch_info["dataId"],
                              "stop": False}])
            stop = client.reverse_continue(session_id)
            assert stop["reason"] == "replay-start"
            assert stop["instructions"] == 0


class TestForwardLoopOverSocket:
    """``step`` and ``continue`` move a recorded session through the
    recorder, as time travel does, and report an exited program as
    exited."""

    def test_step_after_step_back_records_past_the_frontier(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE, record={"stride": 50})
            info = client.data_breakpoint_info(session_id, "total")
            client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"], "stop": False}])
            stop = client.step(session_id, count=100)
            assert stop["reason"] == "step"
            frontier = stop["instructions"]
            stop = client.step_back(session_id, count=10)
            assert stop["instructions"] == frontier - 10
            # across recorded hits, the frontier and new hits
            stop = client.step(session_id, count=200)
            assert stop["reason"] == "step"
            assert stop["instructions"] == frontier + 190
            body = client.last_write(session_id, "total")
            assert body["source"] == "trace"
            assert frontier < body["instruction"] < frontier + 190
            assert run_to_exit(client, session_id)["exitCode"] == 0
            assert client.evaluate(session_id, "total")["value"] == 190

    @pytest.mark.parametrize("record", [None, {"stride": 50}])
    def test_continue_and_step_after_exit_report_exited(self, server,
                                                        record):
        with client_for(server) as client:
            client.initialize()
            options = {} if record is None else {"record": record}
            session_id = client.launch(SOURCE, **options)
            end = run_to_exit(client, session_id)["instructions"]
            for request in (client.cont, client.step):
                stop = request(session_id)
                assert stop["reason"] == "exited"
                assert stop["exited"] is True
                assert stop["exitCode"] == 0
                assert stop["instructions"] == end


    def test_data_breakpoint_set_on_a_stride_boundary_survives_step_back(
            self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE, record={"stride": 50})
            stop = client.step(session_id, count=100)
            placed = stop["instructions"]
            assert placed == 100
            info = client.data_breakpoint_info(session_id, "total")
            client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"], "stop": True}])
            stop = client.cont(session_id)
            assert stop["reason"] == "watch"
            hit = stop["instructions"]
            stop = client.step_back(session_id, count=hit - placed - 5)
            assert stop["instructions"] == placed + 5
            # the data breakpoint set at 100 is still armed at 105
            stop = client.cont(session_id)
            assert stop["reason"] == "watch"
            assert stop["instructions"] == hit
            assert run_to_exit(client, session_id)["exitCode"] == 0
            assert client.evaluate(session_id, "total")["value"] == 190


#: SOURCE plus a second global written on every iteration
TWO_GLOBALS = """
int total;
int other;
int main() {
    register int i;
    total = 0;
    for (i = 0; i < 20; i = i + 1) {
        total = total + i;
        other = i;
    }
    print(total);
    return 0;
}
"""


class TestBreakpointSetIsTheWatchpointList:
    """The server reads every dataId off ``debugger.watchpoints``, so
    the breakpoint set travels back in time with the debugger and a
    replace-all clears everything the debugger watches."""

    def test_step_back_past_a_replacement_rearms_its_data_id(self,
                                                             server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(TWO_GLOBALS,
                                       record={"stride": 50})
            total, other = [
                client.data_breakpoint_info(session_id, name)["dataId"]
                for name in ("total", "other")]
            assert total == "w:total@"
            client.set_data_breakpoints(
                session_id, [{"dataId": total, "stop": True}])
            stop = client.cont(session_id)
            assert stop["hitBreakpointIds"] == [total]
            replaced = stop["instructions"]
            client.set_data_breakpoints(
                session_id, [{"dataId": other, "stop": True}])
            stop = client.cont(session_id)
            assert stop["hitBreakpointIds"] == [other]
            # back to before the replacement: total is watched again
            stop = client.step_back(
                session_id, count=stop["instructions"] - replaced + 1)
            assert stop["instructions"] == replaced - 1
            stop = client.cont(session_id)
            assert stop["reason"] == "watch"
            assert stop["hitBreakpointIds"] == [total]
            assert client.resume(session_id)["breakpoints"] == [total]
            client.set_data_breakpoints(session_id, [])
            (inventory,) = client.sessions()
            assert inventory["breakpoints"] == 0
            stop = client.cont(session_id)
            assert stop["exited"] is True
            assert stop["exitCode"] == 0

    def test_duplicate_data_ids_are_all_cleared(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            data_id = client.data_breakpoint_info(session_id,
                                                  "total")["dataId"]
            results = client.set_data_breakpoints(session_id, [
                {"dataId": data_id, "stop": True},
                {"dataId": data_id, "stop": True, "condition": ">= 100"}])
            assert [result["verified"] for result in results] == \
                [True, True]
            client.set_data_breakpoints(session_id, [])
            stop = client.cont(session_id)
            assert stop["exited"] is True
            assert stop["exitCode"] == 0


class TestReRunnableSession:
    """Satellite: DebugSession.run() must not double-count on re-run."""

    def test_fresh_run_after_limit_matches_reference(self):
        reference = DebugSession.from_minic(SOURCE)
        reference.mrs.enable()
        assert reference.run() == 0
        expected = (reference.cpu.instructions, list(reference.output))

        session = DebugSession.from_minic(SOURCE)
        session.mrs.enable()
        with pytest.raises(SimulationLimit):
            session.run(max_instructions=50)
        # a *fresh* run (server relaunch) rewinds instead of stacking
        assert session.run() == 0
        assert (session.cpu.instructions, list(session.output)) == \
            expected
        # and once more, to prove it is stable
        assert session.run() == 0
        assert (session.cpu.instructions, list(session.output)) == \
            expected

    def test_resume_before_start_is_a_fresh_run(self):
        session = DebugSession.from_minic(SOURCE)
        session.mrs.enable()
        assert session.run(resume=True) == 0

    def test_resume_semantics_unchanged(self):
        session = DebugSession.from_minic(SOURCE)
        session.mrs.enable()
        interruptions = 0
        resume = False
        while True:
            try:
                assert session.run(max_instructions=60,
                                   resume=resume) == 0
                break
            except SimulationLimit:
                interruptions += 1
                resume = True
                assert interruptions < 200
        assert interruptions >= 1


class TestSharedServiceThreadSafety:
    """Satellite: concurrent MRS mutation must not corrupt state."""

    def test_concurrent_create_delete_is_consistent(self):
        session = DebugSession.from_minic(SOURCE)
        session.mrs.enable()
        mrs = session.mrs
        errors = []

        def hammer(offset):
            try:
                for round_no in range(30):
                    start = 0x20010000 + offset * 0x1000
                    region = mrs.create_region(start, 16)
                    mrs.pre_monitor("total")
                    mrs.post_monitor("total")
                    mrs.delete_region(region)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert len(mrs.regions) == 0
        assert mrs.active_sites() == []
        # the bitmap agrees that nothing is monitored any more
        for offset in range(6):
            start = 0x20010000 + offset * 0x1000
            assert not mrs.bitmap.hit(start, 16)
