"""The IDE path: debug sessions against a ``repro serve`` process.

The load generator is a closed loop: two client threads, each on its
own connection, run one session at a time from the seeded session
sequence, for a fixed number of whole rounds of the session pool.  A
session launches a small SPEC-mimic program, arms a stopping data
breakpoint, continues from hit to hit evaluating the watched value at
each stop, replaces its breakpoint set every few stops, and disconnects
once the program exits or after its last planned stop.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.asm.assembler import assemble
from repro.asm.loader import load_program
from repro.errors import ReproError
from repro.isa.instructions import to_signed
from repro.minic.codegen import compile_source
from repro.server.client import DebugClient

from inputs import SessionPlan, lang, session_order

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENTS = 2
_BANNER = re.compile(r"listening on [\d.]+:(\d+)")


class ServerProcess:
    """``repro serve`` in a child process (see ``serve.py``)."""

    def __init__(self, trace_out: Optional[str] = None):
        argv = [sys.executable, os.path.join(HERE, "serve.py")]
        if trace_out is not None:
            argv += ["--trace-out", trace_out]
        argv += ["--port", "0", "--workers", str(CLIENTS),
                 "--max-sessions", str(4 * CLIENTS)]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            self.stop()
            raise RuntimeError("server did not start: %r %s"
                               % (line, self.proc.stderr.read()[-2000:]))
        self.port = int(match.group(1))

    def stop(self) -> None:
        """Interrupt (``repro serve`` drains and exits) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


class SessionLog:
    """What one session observed."""

    __slots__ = ("plan", "stops", "output", "exited", "error")

    def __init__(self, plan: SessionPlan):
        self.plan = plan
        self.stops: List[Tuple[int, int]] = []   #: (address, value)
        self.output = ""
        self.exited = False
        self.error: Optional[str] = None


class Samples:
    def __init__(self):
        self.lock = threading.Lock()
        self.launch_ms: List[float] = []
        self.continue_ms: List[float] = []
        self.logs: List[SessionLog] = []
        self.attempted = 0
        self.failed = 0


def _session(client: DebugClient, plan: SessionPlan, source: str,
             samples: Samples) -> SessionLog:
    log = SessionLog(plan)
    requests = 0
    launch: List[float] = []
    conts: List[float] = []
    try:
        begin = time.perf_counter()
        session_id = client.launch(source, lang=lang(plan.program))
        launch.append(1e3 * (time.perf_counter() - begin))
        requests += 1
        address: Dict[str, int] = {}
        for watch in plan.schedule:
            info = client.data_breakpoint_info(session_id, watch.expr)
            requests += 1
            address[watch.expr] = info["address"]

        def arm(stage: int) -> None:
            watch = plan.schedule[stage % len(plan.schedule)]
            spec = {"dataId": "w:%s@" % watch.expr, "stop": True}
            if watch.condition is not None:
                spec["condition"] = watch.condition
            result = client.set_data_breakpoints(session_id, [spec])
            if not result[0]["verified"]:
                raise RuntimeError("breakpoint refused: %r" % result)

        arm(0)
        requests += 1
        while True:
            begin = time.perf_counter()
            stop = client.cont(session_id)
            conts.append(1e3 * (time.perf_counter() - begin))
            requests += 1
            log.output += "".join(body["output"] for body in
                                  client.pop_events("output"))
            client.pop_events()
            if stop.get("exited"):
                log.exited = True
                break
            if stop["reason"] == "quota":
                continue
            if stop["reason"] != "watch":
                raise RuntimeError("unexpected stop %r" % stop)
            symbol = stop["symbol"]
            value = client.evaluate(session_id, symbol)["value"]
            requests += 1
            if value != stop["value"]:
                raise RuntimeError("evaluate %s = %r, stop said %r"
                                   % (symbol, value, stop["value"]))
            log.stops.append((address[symbol], value))
            if len(log.stops) == plan.max_stops:
                break
            if len(log.stops) % plan.every == 0:
                arm(len(log.stops) // plan.every)
                requests += 1
        client.disconnect(session_id)
        requests += 1
    except (ReproError, RuntimeError, KeyError, OSError) as exc:
        log.error = "%s: %s" % (type(exc).__name__, exc)
    with samples.lock:
        samples.launch_ms.extend(launch)
        samples.continue_ms.extend(conts)
        samples.attempted += requests + (1 if log.error else 0)
        samples.failed += 1 if log.error else 0
        samples.logs.append(log)
    return log


class Load:
    """The closed loop, run in slices: two clients on two connections."""

    def __init__(self, port: int, inputs, sources):
        self.samples = Samples()
        self.sources = sources
        #: time the loop ran, per slice
        self.seconds: List[float] = []
        self._order = session_order(inputs)
        self._order_lock = threading.Lock()
        self.clients = [DebugClient(port=port, timeout=60.0, retries=0)
                        for _ in range(CLIENTS)]
        for client in self.clients:
            client.initialize()

    def run(self, count: int) -> None:
        """Run the next *count* sessions of the sequence."""
        left = [count]
        errors: List[BaseException] = []

        def worker(client: DebugClient) -> None:
            try:
                while True:
                    with self._order_lock:
                        if left[0] <= 0:
                            return
                        left[0] -= 1
                        plan = next(self._order)
                    _session(client, plan,
                             self.sources[(plan.program, plan.scale)],
                             self.samples)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        begin = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(client,))
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.seconds.append(time.perf_counter() - begin)
        if errors:
            raise errors[0]

    def close(self) -> Samples:
        for client in self.clients:
            client.close()
        return self.samples


class Writes(NamedTuple):
    """The uninstrumented run of one program: its symbols, every
    original-program store as ((site, addr, width), word value after
    the store), and its output."""

    symtab: object
    stores: List[tuple]
    output: str


def uninstrumented(program_name: str, source: str) -> Writes:
    """Run *source* uninstrumented with ``record_writes=True``.  The
    slow loop runs it so each store's value can be read back."""
    program = assemble(compile_source(source, lang=lang(program_name)))
    loaded = load_program(program, record_writes=True, fast_path=False)
    cpu = loaded.cpu
    values: List[int] = []

    def capture(store):
        def traced(addr, value, insn):
            store(addr, value, insn)
            if insn.tag == "orig":
                values.append(to_signed(cpu.mem.read_word(addr & ~3)))
        return traced

    cpu.store_word = capture(cpu.store_word)
    cpu.store_byte = capture(cpu.store_byte)
    loaded.run()
    return Writes(program.symtab, list(zip(cpu.write_trace, values)),
                  "".join(loaded.output))


def oracle(plan: SessionPlan, writes: Writes) -> List[Tuple[int, int]]:
    """Expected stops of *plan*'s session: the uninstrumented stores
    intersected with the armed breakpoint's word and filtered by its
    condition, with the breakpoint set replaced after every
    ``plan.every`` stops."""
    addresses = {}
    for watch in plan.schedule:
        name, _, index = watch.expr.partition("[")
        entry = writes.symtab.lookup(name)
        offset = int(index[:-1]) * (entry.elem or 4) if index else 0
        addresses[watch.expr] = entry.address + offset
    stops: List[Tuple[int, int]] = []
    for (_site, addr, width), value in writes.stores:
        watch = plan.schedule[(len(stops) // plan.every)
                              % len(plan.schedule)]
        start = addresses[watch.expr]
        if addr < start + 4 and start < addr + width and watch.fires(value):
            stops.append((start, value))
    return stops


def check(samples: Samples, sources) -> List[str]:
    """Compare every session against its oracle; returns mismatches."""
    runs: Dict[Tuple[str, float], Writes] = {}
    expected: Dict[SessionPlan, List[Tuple[int, int]]] = {}
    mismatches: List[str] = []
    for log in samples.logs:
        plan = log.plan
        if log.error is not None:
            mismatches.append("%s: %s" % (plan.program, log.error))
            continue
        key = (plan.program, plan.scale)
        if key not in runs:
            runs[key] = uninstrumented(plan.program, sources[key])
        if plan not in expected:
            expected[plan] = oracle(plan, runs[key])
        stops, output = expected[plan], runs[key].output
        if log.stops != stops[:plan.max_stops] or \
                log.exited != (len(stops) < plan.max_stops):
            mismatches.append("%s: stops %r, oracle %r"
                              % (plan.program, log.stops[:5], stops[:5]))
        if log.exited and log.output != output:
            mismatches.append("%s: output differs from the uninstrumented "
                              "run" % plan.program)
    return mismatches
