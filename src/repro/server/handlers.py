"""Request handlers: the debugger surface exposed over the wire.

Each handler takes ``(manager, config, arguments, emit)`` and returns
the response body dict; :class:`RequestRouter.dispatch` wraps the call
in the protocol envelope and maps any :class:`~repro.errors.ReproError`
to a structured error payload (so an injected
:class:`~repro.errors.MrsTransactionError` inside one session reaches
that client as data instead of killing the server).

Commands
--------

``initialize``
    Version negotiation + capability advertisement.
``launch``
    Start a session on mini-C source, which the server compiles and
    instruments once per program (the build table of
    :func:`~repro.server.manager.build_debugger`); accepts a
    fault-plan spec so failure paths can be exercised server-side.
``dataBreakpointInfo`` / ``setDataBreakpoints``
    The DAP data-breakpoint pair: resolve a source name to a
    ``dataId``, then declaratively replace the active breakpoint set —
    every watchpoint on the debugger, whose list is the one record of
    it: ``monitorHit``, ``hitBreakpointIds``, ``threads`` and
    ``resume`` read each dataId off ``debugger.watchpoints``.
``continue`` / ``step``
    Run the debuggee under the per-request execution quota, an
    instruction budget enforced by the CPU's one dispatch loop; quota
    exhaustion is a resumable ``stopped`` reason, not an error.
``stepBack`` / ``reverseContinue`` / ``lastWrite``
    Time travel (protocol v2, ``supportsStepBack``): sessions launched
    with ``record`` replay backwards through recorded history; a
    session launched without recording gets a structured
    ``reason="not_recording"`` error instead.
``evaluate``
    Read a watchable expression at the current stop.
``resume`` / ``hibernate`` / ``ping``
    Fault tolerance (protocol v3, ``supportsHibernation``): ``resume``
    re-attaches a client to a session by id — transparently thawing it
    from the hibernation store if a previous server process froze it —
    ``hibernate`` freezes a session to disk on demand, and ``ping`` is
    the client heartbeat the server's liveness timeout watches for.
``disconnect``
    Tear the session down (and discard its frozen file, if any).

Events streamed while a session runs: ``output`` (new debuggee
output), ``monitorHit`` (every §2 notification, with the resolved
symbol and pc), ``stopped`` (run finished with a reason),
``sessionEvicted`` (destruction / shutdown, emitted by the manager),
and the hibernation pair ``sessionHibernated`` / ``sessionResumed``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.debugger.debugger import Debugger, DebuggerError
from repro.errors import (PredicateCompileError, ProtocolError,
                          ReproError, ServerError)
from repro.watchpoints.predicate import condition_to_expr
from repro.faults import FaultPlan
from repro.instrument.strategies import STRATEGIES
from repro.isa.instructions import to_signed
from repro.machine.cpu import SimulationLimit
from repro.server.manager import (ManagedSession, SessionManager,
                                  build_debugger)
from repro.server.protocol import (PROTOCOL_VERSION, SUPPORTED_VERSIONS,
                                   Request, Response, check_type,
                                   error_payload, format_data_id,
                                   parse_data_id)

__all__ = ["ServerConfig", "RequestRouter", "fault_plan_from_spec",
           "invalid_condition", "supported_access_types"]

#: default per-request execution quota (simulated instructions)
DEFAULT_QUOTA = 2_000_000

#: the source languages ``launch`` takes, as the CLI's ``--lang`` does
LANGS = ("C", "F")


class ServerConfig:
    """Tunables threaded from the CLI down to handlers and manager."""

    def __init__(self, max_sessions: int = 16,
                 idle_timeout: Optional[float] = None,
                 workers: int = 8,
                 quota_instructions: int = DEFAULT_QUOTA,
                 max_frame_bytes: Optional[int] = None,
                 hibernate_dir: Optional[str] = None,
                 hibernate_faults=None,
                 liveness_timeout: Optional[float] = None,
                 trace_store: Optional[str] = None):
        from repro.server.protocol import MAX_FRAME_BYTES
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.workers = workers
        self.quota_instructions = quota_instructions
        self.max_frame_bytes = (MAX_FRAME_BYTES if max_frame_bytes is None
                                else max_frame_bytes)
        #: directory for frozen sessions; None disables hibernation
        self.hibernate_dir = hibernate_dir
        #: optional FaultPlan armed on the hibernation store
        #: (hibernate.write / hibernate.load injection points)
        self.hibernate_faults = hibernate_faults
        #: drop connections silent for this long (the client heartbeat
        #: keeps a healthy-but-idle connection alive with ``ping``)
        self.liveness_timeout = liveness_timeout
        #: persistent :mod:`repro.store` database path; recordings are
        #: archived there when a session hibernates or disconnects
        self.trace_store = trace_store

    def capabilities(self,
                     version: int = PROTOCOL_VERSION) -> Dict[str, Any]:
        caps = {
            "supportsDataBreakpoints": True,
            "supportsConditionalDataBreakpoints": True,
            "supportsReadMonitoring": True,
            "supportsFaultInjection": True,
            "supportsStepping": True,
            "supportsEvaluate": True,
            "executionQuota": self.quota_instructions,
            "maxFrameBytes": self.max_frame_bytes,
            "maxSessions": self.max_sessions,
        }
        if version >= 2:
            # time travel shipped in protocol v2; a v1 client never
            # sees the capability, so it never sends reverse requests
            caps["supportsStepBack"] = True
        if version >= 3:
            # fault tolerance shipped in protocol v3: resume/ping are
            # always served; hibernation needs a configured store
            caps["supportsHibernation"] = self.hibernate_dir is not None
            caps["supportsResume"] = True
            caps["supportsPing"] = True
            caps["supportsRetryAfter"] = True
        if version >= 4:
            # predicate watchpoints shipped in protocol v4: the DAP
            # `condition` field takes full predicate expressions, and
            # `when` selects transition-edge firing
            from repro.watchpoints import EDGES, SPECIALS
            caps["supportsPredicateConditions"] = True
            caps["supportsTransitionDataBreakpoints"] = True
            caps["predicateSpecials"] = ["$" + name for name in SPECIALS]
            caps["transitionEdges"] = list(EDGES)
        return caps


def fault_plan_from_spec(spec: Dict[str, Any]) -> FaultPlan:
    """Build a :class:`FaultPlan` from its JSON representation.

    ``{"schedule": {"service.create_region": [0]}, "seed": 7,
    "rate": 0.1, "maxFaults": 3}``.  A fault plan carries no
    execution budget: the per-request quota is the server's one
    budget.
    """
    schedule = {}
    for point, occurrences in _optional_arg(spec, "schedule", {}, dict,
                                            "faults").items():
        if occurrences is not True:
            for occurrence in check_type(occurrences, list, point,
                                         "faults schedule"):
                check_type(occurrence, int, point, "faults schedule")
            occurrences = set(occurrences)
        schedule[point] = occurrences
    points = _optional_arg(spec, "points", None, list, "faults")
    for point in points or ():
        check_type(point, str, "points", "faults")
    return FaultPlan(schedule=schedule,
                     seed=_optional_arg(spec, "seed", None, int, "faults"),
                     rate=_optional_arg(spec, "rate", 0.0, (int, float),
                                        "faults"),
                     points=points,
                     max_faults=_optional_arg(spec, "maxFaults", None, int,
                                              "faults"))


def invalid_condition(text: str, exc) -> ProtocolError:
    """Map a :class:`~repro.errors.PredicateCompileError` onto the wire
    error shape: ``reason="invalid_condition"`` plus the offending
    token, raised at ``setDataBreakpoints`` time — a bad predicate
    must never wait for its first hit to fail."""
    return ProtocolError(
        "invalid condition %r: %s" % (text, exc),
        field="condition", reason="invalid_condition",
        condition=text, token=getattr(exc, "token", None))


def supported_access_types(debugger: Debugger) -> List[str]:
    """DAP accessTypes: a read-monitoring session serves all three
    kinds; without read monitoring only writes are observable."""
    strategy = debugger.session.inst.strategy
    if getattr(strategy, "monitor_reads", False):
        return ["read", "write", "readWrite"]
    return ["write"]


def _require_arg(arguments: Dict[str, Any], name: str,
                 kind: type = str) -> Any:
    """Argument *name*, which must be a *kind*: a mistyped argument is
    the client's error, never a raw ValueError inside a handler."""
    if name not in arguments:
        raise ProtocolError("request is missing argument %r" % name,
                            field=name, reason="missing_argument")
    return check_type(arguments[name], kind, name, "argument")


def _optional_arg(arguments: Dict[str, Any], name: str, default: Any,
                  kind, where: str = "argument") -> Any:
    value = arguments.get(name)
    return default if value is None else \
        check_type(value, kind, name, where)


def _choice_arg(arguments: Dict[str, Any], name: str, default: str,
                choices) -> str:
    """Optional string argument *name*, which must be one of
    *choices*."""
    value = _optional_arg(arguments, name, default, str)
    if value not in choices:
        raise ProtocolError("unknown %s %r" % (name, value), field=name,
                            reason="value", supported=sorted(choices))
    return value


class RequestRouter:
    """Maps protocol commands onto a :class:`SessionManager`."""

    def __init__(self, manager: SessionManager, config: ServerConfig):
        self.manager = manager
        self.config = config
        # a thawed session needs its monitorHit stream re-wired before
        # it serves its first request (emitters resubscribe via resume)
        manager.on_thaw = self._wire_monitor_stream
        self._handlers: Dict[str, Callable] = {
            "initialize": self._initialize,
            "launch": self._launch,
            "dataBreakpointInfo": self._data_breakpoint_info,
            "setDataBreakpoints": self._set_data_breakpoints,
            "continue": self._continue,
            "step": self._step,
            "stepBack": self._step_back,
            "reverseContinue": self._reverse_continue,
            "lastWrite": self._last_write,
            "evaluate": self._evaluate,
            "threads": self._threads,
            "resume": self._resume,
            "hibernate": self._hibernate,
            "ping": self._ping,
            "disconnect": self._disconnect,
        }

    def dispatch(self, request: Request, emit, seq: Callable[[], int]
                 ) -> Response:
        """Run one request; never raises — failures become structured
        error responses."""
        handler = self._handlers.get(request.command)
        try:
            if handler is None:
                raise ServerError("unknown command %r" % request.command,
                                  reason="unknown_command",
                                  command=request.command)
            body = handler(request.arguments, emit)
            return Response(seq=seq(), request_seq=request.seq,
                            command=request.command, success=True,
                            body=body or {})
        except (ReproError, DebuggerError) as exc:
            return Response(seq=seq(), request_seq=request.seq,
                            command=request.command, success=False,
                            error=error_payload(exc))
        except Exception as exc:  # a handler bug must not kill the server
            payload = error_payload(exc)
            payload["internal"] = True
            return Response(seq=seq(), request_seq=request.seq,
                            command=request.command, success=False,
                            error=payload)

    # -- handlers ----------------------------------------------------------

    def _initialize(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        version = arguments.get("protocolVersion", PROTOCOL_VERSION)
        if version not in SUPPORTED_VERSIONS:
            raise ServerError(
                "unsupported protocol version %r" % (version,),
                reason="version",
                requested=version, supported=list(SUPPORTED_VERSIONS))
        return {"protocolVersion": version,
                "server": "repro-debug-server",
                "capabilities": self.config.capabilities(version)}

    def _launch(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        # every field is checked before the spec keys a shared build
        source = _require_arg(arguments, "source")
        lang = _choice_arg(arguments, "lang", "C", LANGS)
        strategy = _choice_arg(arguments, "strategy",
                               "BitmapInlineRegisters", STRATEGIES)
        # an explicit null builds without a plan, as "none" does
        optimize = arguments.get("optimize", "full")
        if optimize is not None:
            check_type(optimize, str, "optimize", "argument")
        monitor_reads = _optional_arg(arguments, "monitorReads", False, bool)
        faults_spec = _optional_arg(arguments, "faults", None, dict)
        faults = fault_plan_from_spec(faults_spec) if faults_spec else None
        record_spec = _optional_arg(arguments, "record", False, (bool, dict))
        options = record_spec if isinstance(record_spec, dict) else {}
        for name in ("stride", "maxKeyframes", "maxTrace"):
            _optional_arg(options, name, None, int, "record")
        workload = _optional_arg(arguments, "workload", None, str)
        # the identity the debuggee is built from, here and on thaw;
        # kept even for fault-plan sessions so freeze can refuse them
        # with a reason instead of guessing
        program = {
            "source": source, "lang": lang, "strategy": strategy,
            "optimize": optimize if optimize != "none" else None,
            "monitorReads": monitor_reads,
            "faults": bool(faults_spec)}
        if workload:
            # names the run in the persistent trace store's analytics
            program["workload"] = workload

        def build() -> Debugger:
            # recording starts inside the factory, so a refused record
            # spec frees the session slot the manager reserved
            debugger = build_debugger(program, faults=faults)
            if record_spec:
                debugger.record(stride=options.get("stride"),
                                max_keyframes=options.get("maxKeyframes"),
                                max_trace=options.get("maxTrace"))
            return debugger

        managed = self.manager.create(build)
        managed.subscribe(emit)
        managed.program_spec = program
        self._wire_monitor_stream(managed)
        return {"sessionId": managed.id,
                "strategy": strategy,
                "recording": managed.debugger.recording,
                "quota": self.config.quota_instructions}

    def _wire_monitor_stream(self, managed: ManagedSession) -> None:
        """Stream every §2 notification as a ``monitorHit`` event,
        annotated with the watchpoint that covers the address."""
        debugger = managed.debugger

        def on_hit(addr: int, size: int, is_read: bool) -> None:
            body: Dict[str, Any] = {"address": addr, "size": size,
                                    "isRead": is_read,
                                    "pc": debugger.cpu.pc}
            for watchpoint in debugger.watchpoints:
                region = watchpoint.region
                if addr < region.end and region.start < addr + size:
                    body["dataId"] = format_data_id(watchpoint.name,
                                                    watchpoint.func)
                    body["symbol"] = watchpoint.name
                    # the write has landed by notification time: read
                    # the fresh word, not the last condition-recorded hit
                    body["value"] = to_signed(
                        debugger.cpu.mem.read_word(addr & ~3))
                    break
            managed.emit("monitorHit", body)

        debugger.mrs.add_callback(on_hit)

    def _data_breakpoint_info(self, arguments: Dict[str, Any], emit
                              ) -> Dict[str, Any]:
        session_id = _require_arg(arguments, "sessionId")
        name = _require_arg(arguments, "name")
        func = _optional_arg(arguments, "func", None, str)

        def fn(managed: ManagedSession) -> Dict[str, Any]:
            try:
                entry, addr, size = managed.debugger.resolve(name, func)
            except DebuggerError as exc:
                # DAP: a null dataId means "not watchable", with a
                # human-readable description — not a request failure
                return {"dataId": None, "description": str(exc)}
            return {"dataId": format_data_id(name, func),
                    "description": "%s (%s, %d bytes at 0x%x)"
                                   % (name, entry.kind, size, addr),
                    "accessTypes": supported_access_types(
                        managed.debugger),
                    "address": addr, "size": size,
                    "canPersist": False}

        return self.manager.with_session(session_id, fn)

    def _set_data_breakpoints(self, arguments: Dict[str, Any], emit
                              ) -> Dict[str, Any]:
        session_id = _require_arg(arguments, "sessionId")
        specs = _require_arg(arguments, "breakpoints", list)
        for spec in specs:
            check_type(spec, dict, "breakpoints", "argument")

        def fn(managed: ManagedSession) -> Dict[str, Any]:
            debugger = managed.debugger
            # DAP replace semantics: clear the previous set first
            for watchpoint in list(debugger.watchpoints):
                debugger.unwatch(watchpoint)
            results: List[Dict[str, Any]] = []
            for spec in specs:
                data_id = spec.get("dataId")
                try:
                    if not data_id:
                        raise ProtocolError("breakpoint without dataId",
                                            field="dataId",
                                            reason="missing")
                    name, func = parse_data_id(data_id)
                    access = spec.get("accessType")
                    if access is not None:
                        allowed = supported_access_types(debugger)
                        if access not in allowed:
                            # DAP: an accessType the session cannot
                            # serve is a structured rejection, never
                            # silently downgraded to a write watch
                            raise ProtocolError(
                                "unsupported accessType %r (this "
                                "session supports: %s)"
                                % (access, ", ".join(allowed)),
                                field="accessType",
                                reason="access_type",
                                accessType=access, supported=allowed)
                    when = spec.get("when")
                    expr = None
                    if spec.get("condition"):
                        # both dialects land here: legacy "OP INT"
                        # desugars to "$value OP INT", anything else is
                        # predicate source — compiled (and rejected)
                        # now, at set time
                        expr = condition_to_expr(spec["condition"])
                    action = "stop" if spec.get("stop", True) else "log"
                    try:
                        watchpoint = debugger.watch(name, func=func,
                                                    action=action,
                                                    expr=expr, when=when,
                                                    access=access)
                    except PredicateCompileError as exc:
                        raise invalid_condition(spec["condition"], exc)
                    results.append({
                        "verified": True, "dataId": data_id,
                        "kind": watchpoint.kind,
                        "region": [watchpoint.region.start,
                                   watchpoint.region.size]})
                except (ReproError, DebuggerError) as exc:
                    results.append({"verified": False,
                                    "dataId": data_id,
                                    "error": error_payload(exc)})
            return {"breakpoints": results}

        return self.manager.with_session(session_id, fn)

    # -- execution ---------------------------------------------------------

    def _run_body(self, managed: ManagedSession, reason: str
                  ) -> Dict[str, Any]:
        debugger = managed.debugger
        cpu = debugger.cpu
        body: Dict[str, Any] = {"reason": reason, "pc": cpu.pc,
                                "instructions": cpu.instructions,
                                "cycles": cpu.cycles,
                                "exited": reason == "exited"}
        if reason == "exited":
            body["exitCode"] = cpu.exit_code
        if reason == "watch" and debugger.stopped_watch is not None:
            watchpoint = debugger.stopped_watch
            body["hitBreakpointIds"] = [
                format_data_id(watchpoint.name, watchpoint.func)]
            body["symbol"] = watchpoint.name
            body["value"] = watchpoint.last_value()
        return body

    def _flush_output(self, managed: ManagedSession) -> None:
        output = managed.debugger.output
        if len(output) > managed.output_sent:
            text = "".join(output[managed.output_sent:])
            managed.output_sent = len(output)
            managed.emit("output", {"output": text})

    def _execute(self, session_id: str,
                 runner: Callable[[ManagedSession], str]) -> Dict[str, Any]:
        def fn(managed: ManagedSession) -> Dict[str, Any]:
            before = managed.debugger.cpu.instructions
            try:
                reason = runner(managed)
            except SimulationLimit as exc:
                # quota exhausted: resumable, reported not raised
                reason = "quota"
                managed.debugger.stop_reason = "quota"
                body = self._run_body(managed, reason)
                body["quota"] = self.config.quota_instructions
                body["resumable"] = True
                body["budget"] = exc.budget
                return self._finish(managed, before, body)
            return self._finish(managed, before,
                                self._run_body(managed, reason))

        return self.manager.execute(session_id, fn)

    def _finish(self, managed: ManagedSession, before: int,
                body: Dict[str, Any]) -> Dict[str, Any]:
        # reverse travel lands at a lower instruction index than it
        # started from; it consumes quota, never refunds it
        managed.instructions_spent += \
            max(0, managed.debugger.cpu.instructions - before)
        body["instructionsSpent"] = managed.instructions_spent
        self._flush_output(managed)
        managed.emit("stopped", {"reason": body["reason"],
                                 "pc": body["pc"],
                                 "exited": body["exited"]})
        return body

    def _continue(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        session_id = _require_arg(arguments, "sessionId")
        quota = min(_optional_arg(arguments, "quota",
                                  self.config.quota_instructions, int),
                    self.config.quota_instructions)
        return self._execute(
            session_id,
            lambda managed: managed.debugger.run(max_instructions=quota))

    def _step(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        session_id = _require_arg(arguments, "sessionId")
        count = _optional_arg(arguments, "count", 1, int)
        count = max(1, min(count, self.config.quota_instructions))
        return self._execute(
            session_id, lambda managed: managed.debugger.step(count))

    def _step_back(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        """Reverse-step *count* instructions (keyframe restore +
        verified re-execution; replayed hits stream as ``monitorHit``
        events just like forward execution did)."""
        session_id = _require_arg(arguments, "sessionId")
        count = _optional_arg(arguments, "count", 1, int)
        count = max(1, min(count, self.config.quota_instructions))
        return self._execute(
            session_id,
            lambda managed: managed.debugger.reverse_step(count))

    def _reverse_continue(self, arguments: Dict[str, Any], emit
                          ) -> Dict[str, Any]:
        """Run backwards to the newest firing of an armed watchpoint."""
        session_id = _require_arg(arguments, "sessionId")
        return self._execute(
            session_id,
            lambda managed: managed.debugger.reverse_continue())

    def _last_write(self, arguments: Dict[str, Any], emit
                    ) -> Dict[str, Any]:
        """Who last wrote *expression*?  May re-execute recorded time
        (the scan path, whose replayed hits stream as ``monitorHit``
        events), so it runs on the bounded execution pool.  ``pc`` and
        ``instruction`` name the notification trap of a ``trace``
        answer and the store itself of a ``scan`` answer."""
        session_id = _require_arg(arguments, "sessionId")
        expression = _require_arg(arguments, "expression")
        func = _optional_arg(arguments, "func", None, str)

        def fn(managed: ManagedSession) -> Dict[str, Any]:
            answer = managed.debugger.last_write(expression, func)
            body: Dict[str, Any] = {"expression": expression,
                                    "found": answer is not None}
            if answer is not None:
                body.update({"pc": answer.pc, "instruction": answer.index,
                             "oldValue": to_signed(answer.old),
                             "newValue": to_signed(answer.new),
                             "address": answer.addr, "size": answer.size,
                             "source": answer.source})
            return body

        return self.manager.execute(session_id, fn)

    def _evaluate(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        session_id = _require_arg(arguments, "sessionId")
        expression = _require_arg(arguments, "expression")
        func = _optional_arg(arguments, "func", None, str)

        def fn(managed: ManagedSession) -> Dict[str, Any]:
            entry, addr, value = managed.debugger.evaluate(expression,
                                                           func)
            return {"expression": expression, "value": value,
                    "address": addr, "size": entry.size,
                    "kind": entry.kind}

        return self.manager.with_session(session_id, fn)

    def _threads(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        """Session inventory — the DAP `threads` analogue."""
        sessions = []
        for session_id in self.manager.session_ids():
            try:
                managed = self.manager.get(session_id)
            except ServerError:
                continue
            sessions.append({
                "sessionId": session_id,
                "stopReason": managed.debugger.stop_reason
                if managed.debugger is not None else None,
                "instructionsSpent": managed.instructions_spent,
                "breakpoints": len(managed.debugger.watchpoints)})
        return {"sessions": sessions,
                "frozen": self.manager.frozen_ids()}

    # -- fault tolerance (protocol v3) -------------------------------------

    def _resume(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        """Re-attach to a session by id, thawing it from disk if a
        previous process (or an idle sweep) hibernated it.

        This is the reconnect path: a client whose connection died
        reconnects, re-initializes, and resumes each of its session
        ids; subsequent requests continue byte-identically to a run
        that was never interrupted.
        """
        session_id = _require_arg(arguments, "sessionId")
        was_frozen = session_id in self.manager.frozen_ids()

        def fn(managed: ManagedSession) -> Dict[str, Any]:
            managed.subscribe(emit)
            managed.emit("sessionResumed",
                         {"reason": "thaw" if was_frozen else "reattach"})
            debugger = managed.debugger
            return {"sessionId": managed.id,
                    "thawed": was_frozen,
                    "stopReason": debugger.stop_reason,
                    "pc": debugger.cpu.pc,
                    "instructions": debugger.cpu.instructions,
                    "recording": debugger.recording,
                    "breakpoints": sorted({
                        format_data_id(watchpoint.name, watchpoint.func)
                        for watchpoint in debugger.watchpoints}),
                    "instructionsSpent": managed.instructions_spent}

        return self.manager.with_session(session_id, fn)

    def _hibernate(self, arguments: Dict[str, Any], emit
                   ) -> Dict[str, Any]:
        """Freeze a session to disk on demand (ops/test surface for
        the same path the idle sweeper takes)."""
        session_id = _require_arg(arguments, "sessionId")
        if self.manager.store is None:
            raise ServerError("server has no hibernation store",
                              reason="no_hibernation")
        # raises for a session that is unknown (or surfaces
        # initializing) rather than returning a silent False
        self.manager.get(session_id)
        hibernated = self.manager.hibernate(session_id,
                                            reason="request")
        body: Dict[str, Any] = {"sessionId": session_id,
                                "hibernated": hibernated}
        if hibernated:
            size = self.manager.store.frozen_size(session_id)
            if size is not None:
                body["frozenBytes"] = size
        return body

    def _ping(self, arguments: Dict[str, Any], emit) -> Dict[str, Any]:
        """Client heartbeat; also a cheap liveness/inventory probe."""
        return {"time": time.time(),
                "sessions": self.manager.session_count(),
                "frozen": len(self.manager.frozen_ids()),
                "echo": arguments.get("echo")}

    def _disconnect(self, arguments: Dict[str, Any], emit
                    ) -> Dict[str, Any]:
        session_id = _require_arg(arguments, "sessionId")
        destroyed = self.manager.destroy(session_id, reason="disconnect")
        return {"destroyed": destroyed}
