"""Session hosting: many concurrent debuggees behind one server.

A :class:`SessionManager` owns a table of :class:`ManagedSession`
objects — each one a :class:`repro.debugger.Debugger` plus the
bookkeeping the wire protocol needs (per-session lock, last-use stamp,
event subscribers).  The data-breakpoint set is the debugger's own
watchpoint list; the server keeps no copy of it.  The manager
enforces the server's resource policy:

* **capacity** — at most ``max_sessions`` live sessions; creating one
  past the limit fails with a structured
  :class:`~repro.errors.ServerError` carrying a ``retryAfter`` hint
  instead of unbounded growth;
* **bounded execution** — debuggee execution (launch / continue /
  step) runs through :meth:`execute`, which takes one of ``workers``
  slots, so a flood of long-running ``continue`` requests queues
  rather than spawning unbounded simulator work;
* **per-session serialisation** — :meth:`execute` and
  :meth:`with_session` hold the session's reentrant lock, so two
  connections driving one session cannot interleave mutations of the
  debugger or its :class:`~repro.core.service.MonitoredRegionService`;
* **idle eviction** — :meth:`evict_idle` reclaims sessions unused for
  ``idle_timeout`` seconds.  With a
  :class:`~repro.server.hibernate.HibernationStore` attached, an idle
  session is *hibernated* — frozen to disk with a
  ``sessionHibernated`` event, thawed transparently by the next
  :meth:`get` that names its id — so eviction bounds RAM, not the
  nominal session count.  Without a store (or for sessions that cannot
  hibernate) it is destroyed, as before;
* **crash recovery** — :meth:`adopt_frozen` scans the store at server
  startup, so sessions frozen by a previous process (including one
  that died with ``kill -9``) resume under the same ids;
* **graceful shutdown** — :meth:`shutdown` flips the manager into a
  draining state (new sessions and new executions are refused with
  ``ServerError``), waits for in-flight executions to finish, then
  destroys every session.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.debugger.debugger import Debugger
from repro.errors import HibernationError, ServerError
from repro.instrument.rewriter import InstrumentResult

__all__ = ["ManagedSession", "SessionManager", "build_debugger"]

#: subscriber signature: (event_name, body_dict)
EventEmitter = Callable[[str, Dict[str, Any]], None]

#: default client backoff hints (seconds) per retryable failure
RETRY_AFTER_CAPACITY = 0.5
RETRY_AFTER_DRAINING = 1.0
RETRY_AFTER_INITIALIZING = 0.05


#: assembled builds the server keeps.  The benchmark's session loads
#: launch 9 distinct programs, and a build of one holds 125-268 KB, so
#: a full table holds at most about 4.2 MB.
BUILD_TABLE_SIZE = 16

#: program key -> its assembled :class:`InstrumentResult`, least
#: recently used first; :data:`_builds_lock` guards it.  One table per
#: server process, shared by every worker thread.
_builds: Dict[Tuple[str, ...], InstrumentResult] = {}
_builds_lock = threading.Lock()


def build_debugger(program: Dict[str, Any], faults=None) -> Debugger:
    """A debugger on a session's debuggee, built from its program spec.
    ``launch`` and hibernation thaw both build through here, so a
    thawed session runs the build it was launched with.

    Sessions of one program share its assembled build: the key is the
    spec's source, lang, strategy, optimize and monitorReads, and a hit
    only loads the build into a new machine.  The workload name and
    *faults* are not in the key, since faults arm only the new MRS and
    memory.  A miss builds outside the lock, so two workers that miss
    one program at once both build it and the first to store it wins;
    a build that raises is not stored.  A full table drops its least
    recently used build."""
    key = (program["source"], program["lang"], program["strategy"],
           program["optimize"] or "none",
           "reads" if program["monitorReads"] else "writes")
    with _builds_lock:
        inst = _builds.pop(key, None)
        if inst is not None:
            _builds[key] = inst
    if inst is None:
        inst = Debugger.build(
            program["source"], lang=program["lang"],
            strategy=program["strategy"], optimize=program["optimize"],
            monitor_reads=program["monitorReads"])
        with _builds_lock:
            inst = _builds.setdefault(key, inst)
            if len(_builds) > BUILD_TABLE_SIZE:
                del _builds[next(iter(_builds))]
    return Debugger.attach(inst, faults=faults)


class ManagedSession:
    """One hosted debuggee plus its server-side bookkeeping."""

    def __init__(self, session_id: str, debugger: Debugger):
        self.id = session_id
        self.debugger = debugger
        #: reentrant: a handler holding the lock may call back in
        self.lock = threading.RLock()
        self.last_used = time.monotonic()
        self.closed = False
        #: per-connection event sinks subscribed to this session
        #: (snapshot/mutate only under :attr:`lock` — see :meth:`emit`)
        self.emitters: List[EventEmitter] = []
        #: what :func:`build_debugger` builds the debuggee from (source,
        #: lang, strategy, ...); None for sessions the server cannot
        #: hibernate
        self.program_spec: Optional[Dict[str, Any]] = None
        #: chars of debuggee output already streamed as `output` events
        self.output_sent = 0
        #: cumulative instructions spent on this session's requests
        self.instructions_spent = 0

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def subscribe(self, emitter: EventEmitter) -> None:
        """Add an event sink (idempotent), under the session lock."""
        with self.lock:
            if not self.closed and emitter not in self.emitters:
                self.emitters.append(emitter)

    def emit(self, event: str, body: Dict[str, Any]) -> None:
        """Send *event* to every subscriber; a dead sink is dropped
        rather than poisoning the others.

        The subscriber list is snapshotted — and mutated on failure —
        under the session lock, so a sink removed concurrently with an
        emit cannot be notified twice, and a late emit against a closed
        session cannot resurrect its (cleared) sink list.
        """
        payload = dict(body)
        payload.setdefault("sessionId", self.id)
        with self.lock:
            if self.closed:
                return
            subscribers = list(self.emitters)
        for emitter in subscribers:
            try:
                emitter(event, payload)
            except Exception:
                with self.lock:
                    try:
                        self.emitters.remove(emitter)
                    except ValueError:
                        pass

    def idle_for(self, now: Optional[float] = None) -> float:
        return (time.monotonic() if now is None else now) - self.last_used


class SessionManager:
    def __init__(self, max_sessions: int = 16,
                 idle_timeout: Optional[float] = None,
                 workers: int = 8,
                 store=None, trace_store=None):
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.workers = workers
        #: optional :class:`~repro.server.hibernate.HibernationStore`
        self.store = store
        #: optional :class:`~repro.store.TraceStore`; active recordings
        #: are archived there when a session hibernates or is destroyed
        self.trace_store = trace_store
        #: hook run on every thawed session before it goes live —
        #: the router uses it to re-wire the monitorHit event stream
        self.on_thaw: Optional[Callable[[ManagedSession], None]] = None
        self._sessions: Dict[str, ManagedSession] = {}
        self._frozen: Set[str] = set()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._thaw_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._exec_slots = threading.BoundedSemaphore(workers)
        self._inflight = 0
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    def create(self, factory: Callable[[], Debugger]) -> ManagedSession:
        """Build a debugger via *factory* and register it.

        The factory runs outside the manager lock (compiling and
        instrumenting a program is the expensive part), but the
        capacity check and the table insert are atomic.
        """
        with self._lock:
            if self._draining:
                raise ServerError("server is draining; no new sessions",
                                  reason="draining",
                                  retryAfter=RETRY_AFTER_DRAINING)
            if len(self._sessions) >= self.max_sessions:
                raise ServerError(
                    "session capacity exhausted (%d live)"
                    % len(self._sessions), reason="capacity",
                    max_sessions=self.max_sessions,
                    retryAfter=RETRY_AFTER_CAPACITY)
            session_id = "s%d" % next(self._ids)
            # reserve the slot so a concurrent create cannot overshoot
            placeholder = ManagedSession(session_id, None)  # type: ignore
            self._sessions[session_id] = placeholder
        try:
            debugger = factory()
        except BaseException:
            self.destroy(session_id, reason="launch_failed")
            raise
        placeholder.debugger = debugger
        placeholder.touch()
        return placeholder

    def get(self, session_id: str) -> ManagedSession:
        with self._lock:
            managed = self._sessions.get(session_id)
            frozen = session_id in self._frozen
        if managed is None and frozen and self.store is not None:
            return self._thaw(session_id)
        if managed is not None and not managed.closed and \
                managed.debugger is None:
            # the id is allocated but its factory is still compiling:
            # not "unknown", just not ready — tell the client to retry
            raise ServerError(
                "session %s is still initializing" % session_id,
                reason="initializing", session=session_id,
                retryAfter=RETRY_AFTER_INITIALIZING)
        if managed is None or managed.closed:
            raise ServerError("unknown session %r" % (session_id,),
                              reason="unknown_session",
                              session=session_id)
        return managed

    def destroy(self, session_id: str, reason: str = "disconnect") -> bool:
        """Tear a session down, notifying subscribers.  Idempotent.
        Also discards the session's frozen file, if any — an explicit
        disconnect ends a hibernated session's life too."""
        with self._lock:
            managed = self._sessions.pop(session_id, None)
            frozen = session_id in self._frozen
            self._frozen.discard(session_id)
        if frozen and self.store is not None:
            self.store.remove(session_id)
        if managed is None or managed.closed:
            return frozen
        with managed.lock:
            if managed.debugger is not None:
                self.archive_recording(managed)
                # a placeholder has no subscribers and no debuggee; do
                # not emit events against a half-built session
                managed.emit("sessionEvicted", {"reason": reason})
            managed.closed = True
            managed.emitters = []
        return True

    def session_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def frozen_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._frozen)

    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- hibernation -------------------------------------------------------

    def adopt_frozen(self) -> List[str]:
        """Scan the store for sessions frozen by a previous process and
        make their ids resumable; advances the id counter past them so
        a new ``launch`` can never collide with a frozen id."""
        if self.store is None:
            return []
        adopted = self.store.session_ids()
        highest = 0
        for session_id in adopted:
            if session_id.startswith("s") and session_id[1:].isdigit():
                highest = max(highest, int(session_id[1:]))
        with self._lock:
            self._frozen.update(adopted)
            if highest:
                self._ids = itertools.count(highest + 1)
        return adopted

    def hibernate(self, session_id: str,
                  reason: str = "idle") -> bool:
        """Freeze a live session to the store and drop it from memory.

        Emits ``sessionHibernated`` to subscribers first.  Returns
        False when the session is busy (lock held by a live request),
        unknown, or not hibernatable; raises
        :class:`~repro.errors.HibernationError` when the write itself
        fails — in which case the session stays live and intact.
        """
        if self.store is None:
            return False
        with self._lock:
            managed = self._sessions.get(session_id)
        if managed is None or managed.closed or managed.debugger is None:
            return False
        if not managed.lock.acquire(blocking=False):
            return False  # mid-request: live traffic wins
        try:
            from repro.server.hibernate import freeze_managed
            try:
                frozen = freeze_managed(managed)
            except HibernationError:
                return False  # not hibernatable (no spec / fault plan)
            self.store.save(frozen)  # HibernationError propagates
            self.archive_recording(managed)
            managed.emit("sessionHibernated",
                         {"reason": reason,
                          "resumable": True})
            with self._lock:
                self._sessions.pop(session_id, None)
                self._frozen.add(session_id)
            managed.closed = True
            managed.emitters = []
            return True
        finally:
            managed.lock.release()

    def _thaw(self, session_id: str) -> ManagedSession:
        """Resume a frozen session: load, verify, rebuild, go live."""
        with self._thaw_lock:
            # someone may have thawed (or destroyed) it while we waited
            with self._lock:
                managed = self._sessions.get(session_id)
                if managed is not None:
                    if managed.closed:
                        raise ServerError(
                            "unknown session %r" % (session_id,),
                            reason="unknown_session", session=session_id)
                    return managed
                if session_id not in self._frozen:
                    raise ServerError("unknown session %r" % (session_id,),
                                      reason="unknown_session",
                                      session=session_id)
                if self._draining:
                    raise ServerError(
                        "server is draining; no session resume",
                        reason="draining",
                        retryAfter=RETRY_AFTER_DRAINING)
                if len(self._sessions) >= self.max_sessions:
                    raise ServerError(
                        "session capacity exhausted (%d live); "
                        "cannot thaw %s" % (len(self._sessions),
                                            session_id),
                        reason="capacity", session=session_id,
                        max_sessions=self.max_sessions,
                        retryAfter=RETRY_AFTER_CAPACITY)
            from repro.server.hibernate import rebuild_managed
            try:
                frozen = self.store.load(session_id)
                debugger = rebuild_managed(frozen)
            except HibernationError as exc:
                if exc.reason in ("torn", "digest", "format"):
                    # the file was quarantined: the id no longer resolves
                    with self._lock:
                        self._frozen.discard(session_id)
                error = ServerError(
                    "cannot resume session %s: %s" % (session_id, exc),
                    reason="resume_failed", session=session_id,
                    cause=exc.reason)
                if exc.quarantined:
                    error.context["quarantined"] = exc.quarantined
                raise error from exc
            managed = ManagedSession(session_id, debugger)
            managed.program_spec = dict(frozen.program)
            state = frozen.session_state
            managed.output_sent = int(state.get("outputSent") or 0)
            managed.instructions_spent = \
                int(state.get("instructionsSpent") or 0)
            if self.on_thaw is not None:
                self.on_thaw(managed)
            with self._lock:
                self._frozen.discard(session_id)
                self._sessions[session_id] = managed
            # the thawed state is live and authoritative now; a stale
            # frozen file must never be resumed a second time
            self.store.remove(session_id)
            return managed

    # -- trace archiving ---------------------------------------------------

    def archive_recording(self, managed: ManagedSession) -> None:
        """Best-effort: persist *managed*'s active recording into the
        trace store (caller holds the session lock).

        Runs at end-of-life transitions — hibernate and destroy — so a
        recorded server session leaves an analyzable artefact behind.
        Archiving is strictly secondary to the lifecycle operation: a
        full disk or locked store must never turn a disconnect into an
        error, so failures surface as a ``storeError`` event, nothing
        more.
        """
        if self.trace_store is None or managed.debugger is None:
            return
        recorder = getattr(managed.debugger, "recorder", None)
        if recorder is None or len(recorder.trace) == 0 \
                and not recorder.keyframes:
            return
        spec = managed.program_spec or {}
        workload = spec.get("workload")
        if not workload:
            import hashlib
            source = spec.get("source") or ""
            workload = "adhoc-%s" % hashlib.sha256(
                source.encode("utf-8")).hexdigest()[:8]
        try:
            result = self.trace_store.ingest_recorder(
                recorder, workload=workload, session=managed.id)
            managed.emit("recordingArchived",
                         {"runId": result.run_id,
                          "runKey": result.run_key,
                          "duplicate": result.duplicate,
                          "workload": workload})
        except Exception as exc:
            managed.emit("storeError", {"error": str(exc),
                                        "workload": workload})

    # -- execution ---------------------------------------------------------

    def with_session(self, session_id: str, fn: Callable[[ManagedSession],
                                                         Any]) -> Any:
        """Run *fn* holding the session lock (cheap, unbounded ops)."""
        managed = self.get(session_id)
        with managed.lock:
            managed.touch()
            result = fn(managed)
        managed.touch()
        return result

    def execute(self, session_id: str, fn: Callable[[ManagedSession],
                                                    Any]) -> Any:
        """Run *fn* under a bounded worker slot + the session lock.

        This is the path for debuggee execution; the semaphore caps how
        many simulations run concurrently across all sessions, and the
        in-flight count lets :meth:`shutdown` drain cleanly.
        """
        with self._lock:
            if self._draining:
                raise ServerError("server is draining; request refused",
                                  reason="draining",
                                  retryAfter=RETRY_AFTER_DRAINING)
            self._inflight += 1
        try:
            with self._exec_slots:
                managed = self.get(session_id)
                with managed.lock:
                    managed.touch()
                    result = fn(managed)
                managed.touch()
                return result
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    # -- eviction / shutdown -----------------------------------------------

    def evict_idle(self, timeout: Optional[float] = None) -> List[str]:
        """Reclaim sessions idle longer than *timeout* (defaults to the
        manager's ``idle_timeout``); returns the reclaimed ids.

        With a hibernation store, an idle session freezes to disk and
        stays resumable; sessions that cannot hibernate (no program
        spec, live fault plan, or a failing store) are destroyed, as
        before.
        """
        timeout = self.idle_timeout if timeout is None else timeout
        if timeout is None:
            return []
        now = time.monotonic()
        with self._lock:
            stale = [(sid, managed)
                     for sid, managed in self._sessions.items()
                     if managed.idle_for(now) > timeout]
        evicted = []
        for session_id, managed in stale:
            # skip sessions mid-request: a held lock means live traffic
            if not managed.lock.acquire(blocking=False):
                continue
            managed.lock.release()
            if self.store is not None and \
                    managed.program_spec is not None:
                try:
                    if self.hibernate(session_id, reason="idle"):
                        evicted.append(session_id)
                        continue
                except HibernationError:
                    # the write failed; the session is still intact —
                    # leave it live and let the next sweep retry
                    continue
            if self.destroy(session_id, reason="idle"):
                evicted.append(session_id)
        return evicted

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = 30.0) -> None:
        """Refuse new work, optionally wait for in-flight executions,
        then destroy every session (reason ``"shutdown"``)."""
        with self._idle:
            self._draining = True
            if drain:
                deadline = (None if timeout is None
                            else time.monotonic() + timeout)
                while self._inflight > 0:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        break
                    self._idle.wait(remaining)
        for session_id in self.session_ids():
            self.destroy(session_id, reason="shutdown")
