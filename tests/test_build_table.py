"""The server's table of assembled builds (DESIGN §8, "Build table").

``launch`` and hibernation thaw build a session's debuggee through
:func:`repro.server.manager.build_debugger`, which keeps one assembled
:class:`~repro.instrument.rewriter.InstrumentResult` per program and
only loads it into a new machine on a hit.  These tests check that
sessions sharing a build still run as fresh ones do, that the key holds
exactly the fields that change a build, that a failed build is not
kept, that the table keeps its bound in least-recently-used order, and
that a thaw runs from the table too.  Counting tests get an empty table
through monkeypatch.
"""

import sys
import threading

import pytest

from repro.debugger.debugger import Debugger
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.server import DebugClient, DebugServer, ServerConfig, manager
from repro.server.manager import BUILD_TABLE_SIZE, build_debugger

#: a watch on ``total`` patches sites 2 and 4 back in, one on ``count``
#: site 1, so two sessions watching one each install different patches
SOURCE = """
int total;
int grid[8];
int count;
int bump(int k) { count = count + k; return count; }
int main() {
    register int i;
    total = 0;
    for (i = 0; i < 8; i = i + 1) {
        grid[i] = i * 3;
        total = total + grid[i];
        bump(i);
    }
    print(total);
    print(count);
    return 0;
}
"""

PROGRAM = {"source": SOURCE, "lang": "C",
           "strategy": "BitmapInlineRegisters", "optimize": "full",
           "monitorReads": False}


@pytest.fixture
def table(monkeypatch):
    """An empty build table for this test."""
    builds = {}
    monkeypatch.setattr(manager, "_builds", builds)
    return builds


def fresh_stops(name):
    """(instructions, value, cycles) of each stop of a watch on *name*
    in a fresh, uncached session, then the exit's (instructions,
    cycles)."""
    debugger = Debugger.for_source(SOURCE)
    debugger.watch(name, action="stop")
    stops = []
    while debugger.run() == "watch":
        stops.append((debugger.cpu.instructions,
                      debugger.stopped_watch.last_value(),
                      debugger.cpu.cycles))
    return stops, (debugger.cpu.instructions, debugger.cpu.cycles)


def patched_sites(debugger):
    """The sites whose slot in *debugger*'s code differs from the
    shared build's instruction, checked against its own patch table."""
    inst = debugger.session.inst
    code = debugger.cpu.code
    base = inst.program.text_base
    changed = {(base + 4 * index)
               for index, insn in enumerate(inst.program.insns)
               if code.insns[index] is not insn}
    patches = debugger.mrs.patches
    assert changed == {inst.patchable[site].addr
                       for site in patches.active_sites()}
    return patches.active_sites()


class TestSharedBuild:
    def test_interleaved_sessions_share_a_build_and_run_as_fresh(self,
                                                                 table):
        config = ServerConfig(max_sessions=4, workers=2)
        with DebugServer(config=config).start() as server, \
                DebugClient(port=server.port, timeout=15.0) as client:
            client.initialize()
            watched = {}
            for name in ("total", "count"):
                session_id = client.launch(SOURCE)
                info = client.data_breakpoint_info(session_id, name)
                client.set_data_breakpoints(
                    session_id, [{"dataId": info["dataId"], "stop": True}])
                watched[session_id] = name
            debuggers = {session_id: server.manager.get(session_id).debugger
                         for session_id in watched}
            first, second = debuggers.values()
            assert first.session.inst is second.session.inst
            assert len(table) == 1
            assert patched_sites(first) != patched_sites(second)

            stops = {session_id: [] for session_id in watched}
            exits = {}
            while len(exits) < len(watched):
                # one continue per live session in turn
                for session_id in watched:
                    if session_id in exits:
                        continue
                    body = client.cont(session_id)
                    if body["exited"]:
                        exits[session_id] = (body["instructions"],
                                             body["cycles"])
                    else:
                        assert body["reason"] == "watch"
                        stops[session_id].append((body["instructions"],
                                                  body["value"],
                                                  body["cycles"]))
                    for debugger in debuggers.values():
                        patched_sites(debugger)
            for session_id, name in watched.items():
                assert (stops[session_id], exits[session_id]) == \
                    fresh_stops(name)

    def test_concurrent_misses_store_one_build(self, table, monkeypatch):
        """Two workers that miss one program at once both build it;
        the first to store wins, and both sessions run its build."""
        build = Debugger.build
        barrier = threading.Barrier(2, timeout=20)

        def build_together(*args, **kwargs):
            inst = build(*args, **kwargs)
            barrier.wait()
            return inst

        monkeypatch.setattr(Debugger, "build", staticmethod(build_together))
        debuggers = []

        def launch():
            debuggers.append(build_debugger(PROGRAM))

        threads = [threading.Thread(target=launch) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(debuggers) == 2
        assert debuggers[0].session.inst is debuggers[1].session.inst
        assert list(table.values()) == [debuggers[0].session.inst]

    def test_threads_churning_a_small_table(self, table, monkeypatch):
        """Six threads launch three programs into a table bounded at
        two, with a short switch interval: every session runs its own
        program, and the table ends at its bound."""
        monkeypatch.setattr(manager, "BUILD_TABLE_SIZE", 2)
        specs = [dict(PROGRAM, source="int main() { print(%d); return 0; }"
                      % n) for n in range(3)]
        errors = []

        def launch(worker):
            try:
                for round_ in range(6):
                    n = (worker + round_) % len(specs)
                    debugger = build_debugger(specs[n])
                    assert debugger.run() == "exited"
                    assert debugger.session.output == [str(n)]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=launch, args=(worker,))
                       for worker in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(table) == 2


class TestKey:
    @pytest.mark.parametrize("field, value", [
        ("source", SOURCE.replace("i * 3", "i * 5")),
        ("lang", "F"),
        ("strategy", "Bitmap"),
        ("optimize", "sym"),
        ("optimize", None),
        ("monitorReads", True),
    ])
    def test_each_key_field_builds_again(self, table, field, value):
        shared = build_debugger(PROGRAM).session.inst
        other = build_debugger(dict(PROGRAM, **{field: value})).session.inst
        assert other is not shared
        assert len(table) == 2
        assert build_debugger(PROGRAM).session.inst is shared

    def test_workload_and_faults_share_the_build(self, table):
        shared = build_debugger(PROGRAM).session.inst
        faulted = build_debugger(dict(PROGRAM, workload="w", faults=True),
                                 faults=FaultPlan())
        assert faulted.session.inst is shared
        assert faulted.mrs.faults is not None
        assert build_debugger(PROGRAM).mrs.faults is None
        assert len(table) == 1

    @pytest.mark.parametrize("spec", [
        dict(PROGRAM, source="int main() { return 0 }"),
        # compiles and plans, then the instrumenter refuses the plan
        dict(PROGRAM, strategy="Cache"),
    ], ids=["compile", "instrument"])
    def test_a_failed_build_is_not_stored(self, table, spec):
        for _ in range(2):
            with pytest.raises(ReproError):
                build_debugger(spec)
            assert table == {}


class TestBound:
    def test_full_table_drops_the_least_recently_used(self, table):
        def program(n):
            return dict(PROGRAM,
                        source="int g; int main() { g = %d; return 0; }"
                        % n)

        built = [build_debugger(program(n)).session.inst
                 for n in range(BUILD_TABLE_SIZE)]
        assert len(table) == BUILD_TABLE_SIZE
        # a hit makes program 0 the most recently used
        assert build_debugger(program(0)).session.inst is built[0]
        build_debugger(program(BUILD_TABLE_SIZE))
        assert len(table) == BUILD_TABLE_SIZE
        assert build_debugger(program(0)).session.inst is built[0]
        # program 1 was dropped, so it builds again
        assert build_debugger(program(1)).session.inst is not built[1]
        assert len(table) == BUILD_TABLE_SIZE


class TestThaw:
    @pytest.mark.parametrize("evict", [False, True],
                             ids=["shared", "evicted"])
    def test_thaw_uses_the_table_and_verifies_its_digest(
            self, table, tmp_path, evict):
        config = ServerConfig(max_sessions=4, workers=2,
                              hibernate_dir=str(tmp_path / "frozen"))
        reference = fresh_stops("total")
        with DebugServer(config=config).start() as server, \
                DebugClient(port=server.port, timeout=15.0) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            launched = server.manager.get(session_id).debugger.session.inst
            info = client.data_breakpoint_info(session_id, "total")
            client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"], "stop": True}])
            body = client.cont(session_id)
            stops = [(body["instructions"], body["value"], body["cycles"])]
            assert client.hibernate(session_id)["hibernated"] is True
            if evict:
                table.clear()
            # a thaw that fails its state digest raises instead of
            # resuming, so a resumed session passed it
            assert client.resume(session_id)["thawed"] is True
            thawed = server.manager.get(session_id).debugger
            assert (thawed.session.inst is launched) is not evict
            assert len(table) == 1
            while True:
                body = client.cont(session_id)
                if body["exited"]:
                    break
                stops.append((body["instructions"], body["value"],
                              body["cycles"]))
            assert (stops, (body["instructions"], body["cycles"])) == \
                reference
