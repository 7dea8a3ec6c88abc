"""DAP-lite wire protocol: length-prefixed JSON messages.

The debug server speaks a small Debug-Adapter-Protocol-flavoured
protocol over a byte stream.  Every message is one *frame*:

.. code-block:: text

    +----------------+----------------------------------------+
    | 4-byte big-    | UTF-8 JSON body (exactly LENGTH bytes) |
    | endian LENGTH  |                                        |
    +----------------+----------------------------------------+

Three message shapes exist, mirroring DAP:

* **request** — ``{"type": "request", "seq": N, "command": C,
  "arguments": {...}}`` (client -> server);
* **response** — ``{"type": "response", "seq": N, "request_seq": M,
  "command": C, "success": bool, "body": {...}, "error": {...}|null}``
  (server -> client, exactly one per request);
* **event** — ``{"type": "event", "seq": N, "event": E,
  "body": {...}}`` (server -> client, streamed at any time).

Frames larger than :data:`MAX_FRAME_BYTES` and bodies that are not
well-formed messages raise :class:`~repro.errors.ProtocolError` with
structured context.  Failed requests carry a structured error payload
built by :func:`error_payload`, which preserves the
:class:`~repro.errors.ReproError` class name and ``context`` dict —
so an :class:`~repro.errors.MrsTransactionError` rolls all the way to
a remote client without losing the region/symbol/pc it describes.

Protocol versioning: the first request on a connection should be
``initialize`` carrying ``protocolVersion``; the server accepts
versions in :data:`SUPPORTED_VERSIONS` and answers with its
capability set (see :mod:`repro.server.handlers`).
"""

from __future__ import annotations

import json
import re
import socket
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.errors import ProtocolError, ReproError

#: current protocol version, sent by servers in ``initialize``
#: responses (v2 added time travel: ``supportsStepBack`` plus the
#: ``stepBack`` / ``reverseContinue`` / ``lastWrite`` requests; v3
#: added fault tolerance: ``supportsHibernation`` with the ``resume``
#: / ``hibernate`` / ``ping`` requests, the ``sessionHibernated`` /
#: ``sessionResumed`` events, and ``retryAfter`` backpressure hints
#: on retryable errors; v4 added predicate watchpoints: the standard
#: DAP ``condition`` field now takes full predicate expressions over
#: ``$value`` / ``$old`` / ``$addr`` / ``$size`` and debuggee
#: globals, ``when`` selects transition-edge firing, ``accessType``
#: filters hit kinds, and bad predicates are rejected at
#: ``setDataBreakpoints`` time with ``reason="invalid_condition"``)
PROTOCOL_VERSION = 4
#: versions this implementation can serve
SUPPORTED_VERSIONS = (1, 2, 3, 4)
#: default cap on one frame's JSON body (bytes)
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")
_DATA_ID_RE = re.compile(r"^w:(?P<name>[^@]+)@(?P<func>.*)$")

__all__ = ["PROTOCOL_VERSION", "SUPPORTED_VERSIONS", "MAX_FRAME_BYTES",
           "Request", "Response", "Event", "Message",
           "encode", "decode", "read_frame", "write_frame",
           "read_message", "write_message", "error_payload", "check_type",
           "format_data_id", "parse_data_id"]


# -- message types ------------------------------------------------------------

@dataclass
class Request:
    """A client request: run *command* with *arguments*."""

    seq: int
    command: str
    arguments: Dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        return {"type": "request", "seq": self.seq,
                "command": self.command, "arguments": self.arguments}


@dataclass
class Response:
    """The server's answer to the request with seq *request_seq*."""

    seq: int
    request_seq: int
    command: str
    success: bool
    body: Dict[str, Any] = field(default_factory=dict)
    error: Optional[Dict[str, Any]] = None

    def to_wire(self) -> Dict[str, Any]:
        return {"type": "response", "seq": self.seq,
                "request_seq": self.request_seq, "command": self.command,
                "success": self.success, "body": self.body,
                "error": self.error}


@dataclass
class Event:
    """A server-initiated notification (monitorHit, stopped, ...)."""

    seq: int
    event: str
    body: Dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        return {"type": "event", "seq": self.seq, "event": self.event,
                "body": self.body}


Message = Union[Request, Response, Event]


# -- encode / decode ----------------------------------------------------------

def encode(message: Message) -> bytes:
    """Serialise *message* to one framed byte string (header + body)."""
    body = json.dumps(message.to_wire(),
                      separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def check_type(value: Any, kinds, name: str, where: str) -> Any:
    """*value*, if it is one of *kinds* (a bool is no int); otherwise a
    ``reason="type"`` error naming field *name* of *where*."""
    if not isinstance(value, kinds) or isinstance(value, bool) and \
            kinds is int:
        raise ProtocolError(
            "%s field %r has wrong type %s" % (where, name,
                                               type(value).__name__),
            field=name, reason="type")
    return value


def format_data_id(name: str, func: Optional[str]) -> str:
    """The ``dataId`` naming a watchable *name* (in *func*'s frame)."""
    return "w:%s@%s" % (name, func or "")


def parse_data_id(data_id: str):
    """``(name, func)`` back from a :func:`format_data_id`."""
    match = _DATA_ID_RE.match(data_id)
    if match is None:
        raise ProtocolError("malformed dataId %r" % (data_id,),
                            field="dataId", reason="data_id")
    return match.group("name"), (match.group("func") or None)


def _require(obj: Dict[str, Any], name: str, kinds, where: str) -> Any:
    if name not in obj:
        raise ProtocolError("%s missing required field %r" % (where, name),
                            field=name, reason="missing")
    return check_type(obj[name], kinds, name, where)


def decode(payload: bytes) -> Message:
    """Parse one frame body into a typed message.

    Raises :class:`ProtocolError` on undecodable JSON, non-object
    bodies, unknown ``type`` tags and missing/mistyped fields.
    """
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("frame body is not valid JSON: %s" % exc,
                            reason="json") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame body must be a JSON object, got %s"
                            % type(obj).__name__, reason="shape")
    kind = obj.get("type")
    if kind == "request":
        return Request(seq=_require(obj, "seq", int, "request"),
                       command=_require(obj, "command", str, "request"),
                       arguments=obj.get("arguments") or {})
    if kind == "response":
        return Response(seq=_require(obj, "seq", int, "response"),
                        request_seq=_require(obj, "request_seq", int,
                                             "response"),
                        command=_require(obj, "command", str, "response"),
                        success=_require(obj, "success", bool, "response"),
                        body=obj.get("body") or {},
                        error=obj.get("error"))
    if kind == "event":
        return Event(seq=_require(obj, "seq", int, "event"),
                     event=_require(obj, "event", str, "event"),
                     body=obj.get("body") or {})
    raise ProtocolError("unknown message type %r" % (kind,),
                        field="type", reason="unknown")


# -- framing over a socket ----------------------------------------------------

def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; None on clean EOF at a frame
    boundary; raises :class:`ProtocolError` on EOF mid-frame."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError(
                "connection closed mid-frame (%d of %d bytes)"
                % (count - remaining, count), reason="truncated")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket,
               max_bytes: int = MAX_FRAME_BYTES) -> Optional[bytes]:
    """Read one frame body from *sock*; None on clean EOF.

    A frame announcing more than *max_bytes* raises
    :class:`ProtocolError` — and the caller must drop the connection,
    since the stream can no longer be resynchronised.
    """
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d byte limit"
            % (length, max_bytes), frame_size=length,
            limit=max_bytes, reason="oversized")
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed before frame body",
                            reason="truncated")
    return body


def write_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def read_message(sock: socket.socket,
                 max_bytes: int = MAX_FRAME_BYTES) -> Optional[Message]:
    payload = read_frame(sock, max_bytes)
    return None if payload is None else decode(payload)


def write_message(sock: socket.socket, message: Message) -> None:
    sock.sendall(encode(message))


# -- structured error payloads ------------------------------------------------

def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Map an exception to the protocol's structured error shape.

    ``{"error": <class name>, "message": <str(exc)>, "context": {...}}``
    — ``context`` is present only for :class:`ReproError` subclasses
    that carry one, with values coerced to JSON-safe types.
    """
    payload: Dict[str, Any] = {"error": type(exc).__name__,
                               "message": str(exc) or type(exc).__name__}
    if isinstance(exc, ReproError) and exc.context:
        payload["context"] = {key: _jsonable(value)
                              for key, value in exc.context.items()}
    if exc.__cause__ is not None:
        payload["cause"] = {"error": type(exc.__cause__).__name__,
                            "message": str(exc.__cause__)}
    return payload
