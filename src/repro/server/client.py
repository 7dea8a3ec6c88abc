"""Resilient blocking client for the debug server.

:class:`DebugClient` owns one connection.  A background reader thread
demultiplexes the stream: responses complete blocking :meth:`request`
calls, events accumulate in an ordered queue that :meth:`wait_event` /
:meth:`pop_events` drain.  A failed request raises :class:`RemoteError`
carrying the server's structured error payload — class name, message
and the original :class:`~repro.errors.ReproError` context dict — so
remote failures are as inspectable as local ones.

Fault tolerance (protocol v3):

* **per-request timeouts** — every :meth:`request` bounds its wait; a
  timed-out idempotent request is retried (fresh seq), a timed-out
  mutating one raises :class:`RequestTimeout` because its outcome is
  unknown;
* **retry budget with exponential backoff + jitter** — transport
  failures and ``retryAfter``-hinted server refusals (``capacity``,
  ``draining``, ``initializing``) are retried up to ``retries`` times,
  sleeping ``backoff * 2^attempt`` (jittered, capped) or the server's
  hint, whichever is larger — so overload degrades into queueing, not
  a thundering herd of instant retries;
* **automatic reconnect-and-resume** — when the connection dies the
  client dials again, replays ``initialize``, and sends ``resume`` for
  every session id it has launched or resumed, re-attaching to
  sessions the server hibernated when the old connection dropped (or
  that survived a full server restart on disk);
* **heartbeat** — with ``heartbeat=N`` a background thread sends
  ``ping`` every N seconds, keeping the connection inside the server's
  liveness window and detecting silent death early;
* **fault injection** — a :class:`~repro.faults.FaultPlan` passed as
  ``fault_plan`` trips the ``client.send`` point before each
  transmission, so the whole retry/reconnect path is testable
  deterministically.

.. code-block:: python

    with DebugClient(port=server.port, heartbeat=5.0) as client:
        client.initialize()
        sid = client.launch(SOURCE)
        info = client.data_breakpoint_info(sid, "total")
        client.set_data_breakpoints(sid, [{"dataId": info["dataId"]}])
        stop = client.cont(sid)              # -> reason "watch"
        hit = client.wait_event("monitorHit")
        client.disconnect(sid)
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import InjectedFault, ProtocolError, ReproError
from repro.faults import CLIENT_SEND, FaultPlan
from repro.server.protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                   Event, Request, Response, encode,
                                   read_frame, decode)

__all__ = ["DebugClient", "RemoteError", "ClientClosed", "RequestTimeout",
           "IDEMPOTENT_COMMANDS"]

#: commands safe to retry after a transport failure of unknown depth:
#: they either read state or declaratively replace it, so running one
#: twice converges on the same result.  ``continue``/``step``/reverse
#: travel advance the debuggee and are never blind-retried.
IDEMPOTENT_COMMANDS = frozenset({
    "initialize", "ping", "threads", "evaluate", "dataBreakpointInfo",
    "setDataBreakpoints", "resume", "hibernate", "lastWrite",
    "disconnect",
})


class RemoteError(ReproError):
    """A request failed server-side; carries the structured payload."""

    def __init__(self, command: str, payload: Dict[str, Any]):
        message = payload.get("message", "request failed")
        super().__init__("%s: %s" % (command, message),
                         **(payload.get("context") or {}))
        self.command = command
        self.payload = payload
        #: the server-side exception class name (e.g. "RegionCreateError")
        self.remote_error = payload.get("error")

    @property
    def retry_after(self) -> Optional[float]:
        """The server's backpressure hint in seconds, if it gave one."""
        value = self.context.get("retryAfter")
        return float(value) if value is not None else None


class ClientClosed(ReproError):
    """The connection died while a request was outstanding."""


class RequestTimeout(ClientClosed):
    """No response within the per-request timeout; for a mutating
    request the outcome is unknown, so the caller must decide."""


class DebugClient:
    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 30.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 retries: int = 4,
                 backoff: float = 0.05,
                 backoff_max: float = 2.0,
                 heartbeat: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 backoff_seed: Optional[int] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.retries = max(0, retries)
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.heartbeat = heartbeat
        self.fault_plan = fault_plan
        self._rng = random.Random(backoff_seed)
        self._seq = 0
        self._gen = 0
        self._send_lock = threading.Lock()
        self._reconnect_lock = threading.RLock()
        self._cond = threading.Condition()
        self._responses: Dict[int, Response] = {}
        self._events: List[Event] = []
        self._closed = False
        self._user_closed = False
        #: session ids to resume after a reconnect (launch/resume add,
        #: disconnect removes)
        self._sessions: List[str] = []
        #: protocol version to replay in initialize on reconnect
        self._initialized_version: Optional[int] = None
        #: resume failures observed during the last reconnect
        self.resume_errors: Dict[str, RemoteError] = {}
        self._sock = self._dial()
        self._reader = self._start_reader(self._sock, self._gen)
        self._stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        if heartbeat is not None:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="repro-client-ping",
                daemon=True)
            self._heartbeat_thread.start()

    # -- plumbing ----------------------------------------------------------

    def _dial(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _start_reader(self, sock: socket.socket,
                      gen: int) -> threading.Thread:
        reader = threading.Thread(target=self._read_loop,
                                  args=(sock, gen),
                                  name="repro-client-reader",
                                  daemon=True)
        reader.start()
        return reader

    def _read_loop(self, sock: socket.socket, gen: int) -> None:
        try:
            while True:
                payload = read_frame(sock, self.max_frame_bytes)
                if payload is None:
                    break
                message = decode(payload)
                with self._cond:
                    if gen != self._gen:
                        break  # a reconnect superseded this socket
                    if isinstance(message, Response):
                        self._responses[message.request_seq] = message
                    elif isinstance(message, Event):
                        self._events.append(message)
                    self._cond.notify_all()
        except (ProtocolError, OSError):
            pass
        finally:
            with self._cond:
                # only the *current* connection's death closes the
                # client; a stale reader exiting after a reconnect
                # must not poison the new connection
                if gen == self._gen:
                    self._closed = True
                    self._cond.notify_all()

    def _send(self, command: str,
              arguments: Optional[Dict[str, Any]]) -> int:
        """Transmit one request; returns its seq.  Raises
        :class:`ClientClosed` when the transport fails (including an
        injected ``client.send`` fault) *before* the request can have
        reached the server."""
        with self._send_lock:
            if self._closed:
                raise ClientClosed("connection is closed",
                                   command=command)
            self._seq += 1
            seq = self._seq
            sock = self._sock
        payload = encode(Request(seq=seq, command=command,
                                 arguments=arguments or {}))
        try:
            if self.fault_plan is not None:
                self.fault_plan.trip(CLIENT_SEND, command=command,
                                     seq=seq)
            sock.sendall(payload)
        except InjectedFault as exc:
            raise ClientClosed("injected transport fault sending %r"
                               % command, command=command) from exc
        except OSError as exc:
            raise ClientClosed("transport failed sending %r: %s"
                               % (command, exc),
                               command=command) from exc
        return seq

    def _await(self, seq: int, command: str,
               timeout: float) -> Response:
        with self._cond:
            ok = self._cond.wait_for(
                lambda: seq in self._responses or self._closed,
                timeout=timeout)
            if seq in self._responses:
                return self._responses.pop(seq)
            if self._closed:
                raise ClientClosed(
                    "connection closed awaiting %r" % command,
                    command=command)
            if not ok:
                raise RequestTimeout(
                    "timed out awaiting %r" % command,
                    command=command, timeout=timeout)
            raise ClientClosed("no response for %r" % command,
                               command=command)

    def _backoff_delay(self, attempt: int,
                       floor: Optional[float] = None) -> float:
        """Exponential backoff with full jitter, floored at the
        server's ``retryAfter`` hint when one was given."""
        ceiling = min(self.backoff_max, self.backoff * (2 ** attempt))
        delay = self._rng.uniform(0, ceiling)
        if floor is not None:
            delay = max(delay, float(floor))
        return delay

    def request(self, command: str,
                arguments: Optional[Dict[str, Any]] = None,
                timeout: Optional[float] = None,
                idempotent: Optional[bool] = None,
                retries: Optional[int] = None) -> Dict[str, Any]:
        """Send one request and block for its response body.

        Transport failures reconnect-and-retry (for requests that are
        idempotent, or that provably never reached the server);
        ``retryAfter``-hinted refusals back off and retry regardless of
        idempotency, because the server refused *before* executing.
        Raises :class:`RemoteError` on a definitive server-side
        failure, :class:`RequestTimeout` / :class:`ClientClosed` when
        the retry budget is exhausted.
        """
        timeout = self.timeout if timeout is None else timeout
        if idempotent is None:
            idempotent = command in IDEMPOTENT_COMMANDS
        budget = self.retries if retries is None else max(0, retries)
        attempt = 0
        while True:
            sent = False
            try:
                seq = self._send(command, arguments)
                sent = True
                response = self._await(seq, command, timeout)
            except RequestTimeout:
                # the connection may be fine; only an idempotent
                # request can be blind-resent under a fresh seq
                if not idempotent or attempt >= budget:
                    raise
                attempt += 1
                time.sleep(self._backoff_delay(attempt))
                continue
            except ClientClosed:
                if self._user_closed:
                    raise
                if sent and not idempotent:
                    raise  # outcome unknown: never re-run a mutation
                if attempt >= budget:
                    raise
                attempt += 1
                self._reconnect(attempt)
                continue
            if response.success:
                return response.body
            error = RemoteError(command, response.error or {})
            retry_after = error.retry_after
            if retry_after is not None and attempt < budget:
                # capacity / draining / initializing: refused before
                # execution, so safe to retry even for mutations
                attempt += 1
                time.sleep(self._backoff_delay(attempt,
                                               floor=retry_after))
                continue
            raise error

    # -- reconnect ---------------------------------------------------------

    def _reconnect(self, attempt: int = 1) -> None:
        """Dial a fresh connection, replay ``initialize``, and resume
        every tracked session id.  Raises :class:`ClientClosed` when
        the backoff budget runs out."""
        with self._reconnect_lock:
            with self._cond:
                if not self._closed:
                    return  # another caller already reconnected
                if self._user_closed:
                    raise ClientClosed("client was closed")
            last_error: Optional[BaseException] = None
            for retry in range(attempt - 1, self.retries + 1):
                time.sleep(self._backoff_delay(retry))
                try:
                    sock = self._dial()
                except OSError as exc:
                    last_error = exc
                    continue
                with self._cond:
                    old = self._sock
                    self._sock = sock
                    self._gen += 1
                    gen = self._gen
                    self._closed = False
                    self._responses.clear()  # stale seqs die with the
                    # old connection; nobody awaits them any more
                try:
                    old.close()
                except OSError:
                    pass
                self._reader = self._start_reader(sock, gen)
                try:
                    self._handshake()
                except (ClientClosed, RemoteError, OSError) as exc:
                    last_error = exc
                    with self._cond:
                        if gen == self._gen:
                            self._closed = True
                    continue
                return
            raise ClientClosed(
                "reconnect to %s:%d failed after %d attempts"
                % (self.host, self.port, self.retries + 1),
                attempts=self.retries + 1) from last_error

    def _handshake(self) -> None:
        """Replay initialize + resume on a fresh connection (single
        attempt each; the caller owns retries)."""
        if self._initialized_version is not None:
            seq = self._send("initialize",
                             {"protocolVersion":
                              self._initialized_version,
                              "client": "repro.client"})
            response = self._await(seq, "initialize", self.timeout)
            if not response.success:
                raise RemoteError("initialize", response.error or {})
        self.resume_errors = {}
        for session_id in list(self._sessions):
            seq = self._send("resume", {"sessionId": session_id})
            response = self._await(seq, "resume", self.timeout)
            if not response.success:
                error = RemoteError("resume", response.error or {})
                self.resume_errors[session_id] = error
                # the id no longer resolves server-side; stop trying
                # to resume it on every future reconnect
                if session_id in self._sessions:
                    self._sessions.remove(session_id)

    def _heartbeat_loop(self) -> None:
        interval = self.heartbeat
        while not self._stop.wait(interval):
            if self._user_closed:
                break
            try:
                self.request("ping", timeout=min(self.timeout,
                                                 max(interval, 1.0)))
            except (ClientClosed, RemoteError):
                # request() already spent the retry budget; the next
                # beat (or the next user request) tries again
                pass

    # -- events ------------------------------------------------------------

    def pop_events(self, name: Optional[str] = None
                   ) -> List[Dict[str, Any]]:
        """Drain (and return the bodies of) buffered events, optionally
        filtered by name; non-matching events stay queued."""
        with self._cond:
            if name is None:
                drained = [event.body for event in self._events]
                self._events = []
                return drained
            matching = [event.body for event in self._events
                        if event.event == name]
            self._events = [event for event in self._events
                            if event.event != name]
            return matching

    def wait_event(self, name: str, timeout: Optional[float] = None,
                   predicate: Optional[Callable[[Dict[str, Any]], bool]]
                   = None) -> Dict[str, Any]:
        """Block until an event named *name* (matching *predicate*, if
        given) arrives; returns its body and removes it from the queue."""
        timeout = self.timeout if timeout is None else timeout

        def find() -> Optional[int]:
            for index, event in enumerate(self._events):
                if event.event == name and (predicate is None
                                            or predicate(event.body)):
                    return index
            return None

        with self._cond:
            result: List[Optional[int]] = [None]

            def ready() -> bool:
                result[0] = find()
                return result[0] is not None or self._closed

            self._cond.wait_for(ready, timeout=timeout)
            if result[0] is None:
                raise ClientClosed(
                    "no %r event within %.1fs%s"
                    % (name, timeout,
                       " (connection closed)" if self._closed else ""),
                    event=name, timeout=timeout)
            return self._events.pop(result[0]).body

    # -- the command surface ----------------------------------------------

    def initialize(self, version: int = PROTOCOL_VERSION
                   ) -> Dict[str, Any]:
        body = self.request("initialize", {"protocolVersion": version,
                                           "client": "repro.client"})
        self._initialized_version = version
        return body

    def launch(self, source: str, **options: Any) -> str:
        arguments: Dict[str, Any] = {"source": source}
        arguments.update(options)
        session_id = self.request("launch", arguments)["sessionId"]
        if session_id not in self._sessions:
            self._sessions.append(session_id)
        return session_id

    def data_breakpoint_info(self, session_id: str, name: str,
                             func: Optional[str] = None) -> Dict[str, Any]:
        arguments = {"sessionId": session_id, "name": name}
        if func is not None:
            arguments["func"] = func
        return self.request("dataBreakpointInfo", arguments)

    def set_data_breakpoints(self, session_id: str,
                             breakpoints: List[Dict[str, Any]]
                             ) -> List[Dict[str, Any]]:
        return self.request("setDataBreakpoints",
                            {"sessionId": session_id,
                             "breakpoints": breakpoints})["breakpoints"]

    def cont(self, session_id: str,
             quota: Optional[int] = None) -> Dict[str, Any]:
        arguments: Dict[str, Any] = {"sessionId": session_id}
        if quota is not None:
            arguments["quota"] = quota
        return self.request("continue", arguments)

    def step(self, session_id: str, count: int = 1) -> Dict[str, Any]:
        return self.request("step", {"sessionId": session_id,
                                     "count": count})

    def step_back(self, session_id: str,
                  count: int = 1) -> Dict[str, Any]:
        return self.request("stepBack", {"sessionId": session_id,
                                         "count": count})

    def reverse_continue(self, session_id: str) -> Dict[str, Any]:
        return self.request("reverseContinue",
                            {"sessionId": session_id})

    def last_write(self, session_id: str, expression: str,
                   func: Optional[str] = None) -> Dict[str, Any]:
        arguments = {"sessionId": session_id, "expression": expression}
        if func is not None:
            arguments["func"] = func
        return self.request("lastWrite", arguments)

    def evaluate(self, session_id: str, expression: str,
                 func: Optional[str] = None) -> Dict[str, Any]:
        arguments = {"sessionId": session_id, "expression": expression}
        if func is not None:
            arguments["func"] = func
        return self.request("evaluate", arguments)

    def sessions(self) -> List[Dict[str, Any]]:
        return self.request("threads")["sessions"]

    def ping(self, echo: Any = None) -> Dict[str, Any]:
        return self.request("ping", {"echo": echo})

    def resume(self, session_id: str) -> Dict[str, Any]:
        """Re-attach to (and, if hibernated, thaw) a session by id."""
        body = self.request("resume", {"sessionId": session_id})
        if session_id not in self._sessions:
            self._sessions.append(session_id)
        return body

    def hibernate(self, session_id: str) -> Dict[str, Any]:
        """Freeze a session to the server's hibernation store."""
        return self.request("hibernate", {"sessionId": session_id})

    def disconnect(self, session_id: str) -> bool:
        body = self.request("disconnect", {"sessionId": session_id})
        if session_id in self._sessions:
            self._sessions.remove(session_id)
        return body["destroyed"]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._user_closed = True
        self._stop.set()
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=2.0)
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2.0)

    def __enter__(self) -> "DebugClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
