"""Wire-protocol unit tests: framing, typed messages, error payloads."""

import socket
import struct

import pytest

from repro.errors import (MrsTransactionError, PredicateCompileError,
                          ProtocolError, ReproError, ServerError)
from repro.faults import SERVICE_CREATE
from repro.server.handlers import (RequestRouter, ServerConfig,
                                   fault_plan_from_spec)
from repro.server.manager import SessionManager
from repro.server.protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                   Event, Request, Response, decode,
                                   encode, error_payload, read_frame,
                                   write_frame)
from repro.watchpoints.predicate import (EvalContext, compile_predicate,
                                         condition_to_expr)


def roundtrip(message):
    frame = encode(message)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return decode(frame[4:])


class TestMessageRoundTrip:
    def test_request(self):
        message = Request(seq=3, command="launch",
                          arguments={"source": "int main() {}",
                                     "lang": "C"})
        assert roundtrip(message) == message

    def test_request_default_arguments(self):
        assert roundtrip(Request(seq=1, command="threads")) == \
            Request(seq=1, command="threads", arguments={})

    def test_response_success(self):
        message = Response(seq=9, request_seq=3, command="launch",
                           success=True, body={"sessionId": "s1"})
        assert roundtrip(message) == message

    def test_response_error(self):
        message = Response(seq=2, request_seq=1, command="continue",
                           success=False,
                           error={"error": "ServerError",
                                  "message": "unknown session",
                                  "context": {"session": "s9"}})
        assert roundtrip(message) == message

    def test_event(self):
        message = Event(seq=7, event="monitorHit",
                        body={"address": 0x10004000, "size": 4,
                              "isRead": False, "sessionId": "s1"})
        assert roundtrip(message) == message


class TestDecodeRejection:
    def test_not_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode(b"\xff\xfe not json")
        assert excinfo.value.context["reason"] == "json"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode(b"[1, 2, 3]")
        assert excinfo.value.context["reason"] == "shape"

    def test_unknown_type_tag(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode(b'{"type": "telegram", "seq": 1}')
        assert excinfo.value.context["reason"] == "unknown"

    @pytest.mark.parametrize("payload,field", [
        (b'{"type": "request", "command": "launch"}', "seq"),
        (b'{"type": "request", "seq": 1}', "command"),
        (b'{"type": "response", "seq": 1, "request_seq": 1, '
         b'"command": "x"}', "success"),
        (b'{"type": "event", "seq": 1}', "event"),
    ])
    def test_missing_field(self, payload, field):
        with pytest.raises(ProtocolError) as excinfo:
            decode(payload)
        assert excinfo.value.context["field"] == field

    def test_mistyped_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode(b'{"type": "request", "seq": "one", "command": "x"}')
        assert excinfo.value.context == {"field": "seq", "reason": "type"}


class TestFraming:
    def test_write_read_roundtrip(self):
        left, right = socket.socketpair()
        try:
            write_frame(left, b'{"hello": 1}')
            assert read_frame(right) == b'{"hello": 1}'
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert read_frame(right) is None
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError) as excinfo:
                read_frame(right)
            assert excinfo.value.context["reason"] == "oversized"
            assert excinfo.value.context["frame_size"] == \
                MAX_FRAME_BYTES + 1
        finally:
            left.close()
            right.close()

    def test_custom_limit(self):
        left, right = socket.socketpair()
        try:
            write_frame(left, b"x" * 64)
            with pytest.raises(ProtocolError):
                read_frame(right, max_bytes=16)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 100) + b"only this much")
            left.close()
            with pytest.raises(ProtocolError) as excinfo:
                read_frame(right)
            assert excinfo.value.context["reason"] == "truncated"
        finally:
            right.close()


class TestErrorPayload:
    def test_plain_exception(self):
        payload = error_payload(ValueError("boom"))
        assert payload == {"error": "ValueError", "message": "boom"}

    def test_repro_error_context_is_preserved(self):
        exc = ServerError("capacity exhausted", reason="capacity",
                          max_sessions=4)
        payload = error_payload(exc)
        assert payload["error"] == "ServerError"
        assert payload["context"]["reason"] == "capacity"
        assert payload["context"]["max_sessions"] == 4

    def test_tuples_become_lists_and_cause_is_chained(self):
        try:
            try:
                raise ValueError("inner")
            except ValueError as inner:
                raise MrsTransactionError("rolled back",
                                          region=(0x1000, 8)) from inner
        except MrsTransactionError as exc:
            payload = error_payload(exc)
        assert payload["context"]["region"] == [0x1000, 8]
        assert payload["cause"] == {"error": "ValueError",
                                    "message": "inner"}

    def test_non_jsonable_context_falls_back_to_repr(self):
        payload = error_payload(ReproError("x", obj=object()))
        assert payload["context"]["obj"].startswith("<object")


class TestConditionsAndFaultSpecs:
    @pytest.mark.parametrize("text,value,expected", [
        ("== 5", 5, True), ("== 5", 4, False),
        ("!= 0", 1, True), ("< 3", 2, True),
        (">= -2", -2, True), ("> 10", 10, False),
    ])
    def test_parse_condition(self, text, value, expected):
        # the legacy "OP INT" dialect desugars onto the predicate path
        predicate = compile_predicate(condition_to_expr(text))
        assert predicate.truth(EvalContext(value=value)) is expected

    def test_bad_condition_rejected(self):
        with pytest.raises(PredicateCompileError):
            compile_predicate(condition_to_expr("import os"))

    def test_fault_plan_from_spec(self):
        plan = fault_plan_from_spec({
            "schedule": {SERVICE_CREATE: [0]}})
        with pytest.raises(ReproError):
            plan.trip(SERVICE_CREATE)
        plan.trip(SERVICE_CREATE)  # occurrence 1 does not fire


class TestNegotiation:
    def router(self, **kwargs):
        config = ServerConfig(**kwargs)
        manager = SessionManager(max_sessions=config.max_sessions,
                                 workers=config.workers)
        return RequestRouter(manager, config)

    def dispatch(self, router, command, arguments):
        seq = iter(range(1, 100))
        return router.dispatch(
            Request(seq=1, command=command, arguments=arguments),
            lambda event, body: None, lambda: next(seq))

    def test_initialize_negotiates_and_advertises(self):
        response = self.dispatch(self.router(), "initialize",
                                 {"protocolVersion": PROTOCOL_VERSION})
        assert response.success
        assert response.body["protocolVersion"] == PROTOCOL_VERSION
        capabilities = response.body["capabilities"]
        assert capabilities["supportsDataBreakpoints"] is True
        assert capabilities["executionQuota"] > 0

    def test_unsupported_version_is_a_structured_error(self):
        response = self.dispatch(self.router(), "initialize",
                                 {"protocolVersion": 99})
        assert not response.success
        assert response.error["context"]["requested"] == 99
        assert PROTOCOL_VERSION in \
            response.error["context"]["supported"]

    def test_unknown_command(self):
        response = self.dispatch(self.router(), "selfdestruct", {})
        assert not response.success
        assert response.error["context"]["reason"] == "unknown_command"

    def test_missing_argument(self):
        response = self.dispatch(self.router(), "launch", {})
        assert not response.success
        assert response.error["error"] == "ProtocolError"
        assert response.error["context"]["field"] == "source"

    @pytest.mark.parametrize("command,arguments,field", [
        ("step", {"count": "abc"}, "count"),
        ("continue", {"quota": "lots"}, "quota"),
        ("evaluate", {"expression": 7}, "expression"),
        ("dataBreakpointInfo", {"name": 7}, "name"),
        ("setDataBreakpoints", {"breakpoints": ["w:g@"]}, "breakpoints"),
        ("launch", {"source": 5}, "source"),
    ])
    def test_wrong_argument_type(self, command, arguments, field):
        # a mistyped argument is the client's error, never a server bug
        router = self.router()
        launched = self.dispatch(router, "launch", {
            "source": "int g;\nint main() { g = 1; return 0; }\n"})
        arguments = dict(arguments, sessionId=launched.body["sessionId"])
        response = self.dispatch(router, command, arguments)
        assert not response.success
        assert "internal" not in response.error
        assert response.error["error"] == "ProtocolError"
        assert response.error["context"] == {"field": field,
                                             "reason": "type"}

    @pytest.mark.parametrize("arguments,field,reason", [
        ({"monitorReads": "no"}, "monitorReads", "type"),
        ({"strategy": 7}, "strategy", "type"),
        ({"strategy": "Nope"}, "strategy", "value"),
        ({"lang": "C\nzz:\n\tnop"}, "lang", "value"),
        ({"lang": ["C"]}, "lang", "type"),
        ({"optimize": 3}, "optimize", "type"),
        ({"record": "yes"}, "record", "type"),
        ({"record": {"stride": "x"}}, "stride", "type"),
        ({"record": {"maxTrace": 1.5}}, "maxTrace", "type"),
        ({"faults": "x"}, "faults", "type"),
        ({"faults": {"seed": "x"}}, "seed", "type"),
        ({"faults": {"maxFaults": "3"}}, "maxFaults", "type"),
        ({"faults": {"schedule": {SERVICE_CREATE: 3}}}, SERVICE_CREATE,
         "type"),
        ({"workload": 5}, "workload", "type"),
    ])
    def test_launch_spec_is_checked(self, arguments, field, reason):
        # the spec keys the server's shared builds, so a mistyped or
        # unknown field is refused before anything is built
        response = self.dispatch(self.router(), "launch", dict(
            arguments, source="int g;\nint main() { g = 1; return 0; }\n"))
        assert not response.success
        assert "internal" not in response.error
        assert response.error["error"] == "ProtocolError"
        context = response.error["context"]
        assert (context["field"], context["reason"]) == (field, reason)
        if reason == "value":
            assert arguments[field] not in context["supported"]

    @pytest.mark.parametrize("arguments", [
        {"lang": "F"}, {"optimize": None}, {"optimize": "none"},
        {"record": {"stride": 50}}, {"faults": {"seed": 3, "rate": 0}},
    ])
    def test_valid_launch_spec_is_accepted(self, arguments):
        response = self.dispatch(self.router(), "launch", dict(
            arguments, source="int g;\nint main() { g = 1; return 0; }\n"))
        assert response.success, response.error
