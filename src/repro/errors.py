"""Common exception hierarchy for the reproduction.

Every exception the repro packages raise derives from :class:`ReproError`
so callers can catch "anything this system signalled" with one clause
while narrower handlers keep working — each concrete class (``MrsError``,
``RegionError``, ``MemoryFault``, ``SimulationError``, ...) keeps its
historical name and import path in the module that owns its subsystem.

``ReproError`` also standardises *structured context*: keyword arguments
passed at raise time are stored on ``exc.context`` (and rendered in the
message), so the robustness machinery can report which region, segment,
patch site or pc an operation was touching when it failed, without
callers having to parse message strings.
"""

from __future__ import annotations

from typing import Any, Dict


def _format_value(value: Any) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return "0x%x" % value if value > 256 else str(value)
    return repr(value)


class ReproError(Exception):
    """Base class for every exception raised by the repro packages.

    Positional arguments behave exactly like :class:`Exception`;
    keyword arguments become structured context on :attr:`context`.
    """

    def __init__(self, *args: Any, **context: Any):
        super().__init__(*args)
        self.context: Dict[str, Any] = context

    def __str__(self) -> str:
        base = super().__str__()
        if not self.context:
            return base
        detail = ", ".join("%s=%s" % (key, _format_value(value))
                           for key, value in sorted(self.context.items()))
        return "%s [%s]" % (base, detail) if base else "[%s]" % detail


class InjectedFault(ReproError):
    """A fault deliberately raised by a :class:`repro.faults.FaultPlan`.

    Carries the injection *point* name and the zero-based *occurrence*
    index at which the plan fired, plus whatever context the injection
    site supplied (region, segment, site, pc, ...).
    """

    def __init__(self, point: str, occurrence: int, **context: Any):
        super().__init__("injected fault at %s" % point,
                         point=point, occurrence=occurrence, **context)
        self.point = point
        self.occurrence = occurrence


# -- monitored region service --------------------------------------------------

class MrsError(ReproError):
    """Raised for invalid MRS operations.

    Defined here (rather than in :mod:`repro.core.service`) so the
    dynamic-patching layer can subclass it without importing the
    service; ``repro.core.service`` re-exports it, so existing
    ``from repro.core.service import MrsError`` imports and ``except``
    clauses keep working.
    """


class MrsTransactionError(MrsError):
    """An MRS operation failed and was rolled back to its pre-call state.

    The original failure (injected or real) is chained as ``__cause__``;
    :attr:`context` names the operation's target (region, symbol, patch
    site) and the debuggee pc at the time of the call.
    """

    @property
    def region(self):
        return self.context.get("region")

    @property
    def segment(self):
        return self.context.get("segment")

    @property
    def site(self):
        return self.context.get("site")

    @property
    def pc(self):
        return self.context.get("pc")


class ProtocolError(ReproError):
    """A malformed, oversized or out-of-protocol wire message.

    Raised by :mod:`repro.server.protocol` on framing violations
    (truncated length prefix, frame larger than the negotiated maximum),
    undecodable JSON, and messages missing required fields.  The
    :attr:`context` names what was wrong (``frame_size``, ``field``,
    ``reason``) so servers can report it in a structured error payload
    without parsing message strings.
    """


class ServerError(ReproError):
    """A debug-server request failed server-side.

    Covers session-level failures that are not MRS transactions:
    unknown session ids, session-capacity exhaustion, draining servers
    rejecting new work, and unsupported protocol versions.  Retryable
    failures (``capacity``, ``draining``, ``initializing``) carry a
    ``retryAfter`` context hint — seconds the client should back off
    before retrying — so overload degrades gracefully.
    """

    @property
    def retry_after(self):
        return self.context.get("retryAfter")


class HibernationError(ReproError):
    """A frozen-session file could not be written, read or trusted.

    Raised by :mod:`repro.server.hibernate` when a checkpoint write
    fails mid-stream (the previous intact frozen file is left in
    place), and on load when a file is torn, truncated, carries a bad
    magic/version, or fails its digest check — in which case the file
    is quarantined, never trusted.  :attr:`context` carries ``reason``
    (``"write_failed"``, ``"torn"``, ``"digest"``, ``"format"``,
    ``"io"``), the ``session`` id and, for quarantined files, the
    ``quarantined`` path.
    """

    @property
    def reason(self):
        return self.context.get("reason")

    @property
    def quarantined(self):
        return self.context.get("quarantined")


class StoreError(ReproError):
    """The persistent trace store could not serve a request.

    Raised by :mod:`repro.store` when the SQLite database stays locked
    past the bounded retry budget, a transaction is rolled back (an
    injected ``store.commit`` fault counts — the previous committed
    generation survives intact), an ingested payload fails validation,
    or a query names an unknown run or workload.  :attr:`context`
    carries ``reason`` (``"locked"``, ``"commit_failed"``,
    ``"corrupt"``, ``"unknown_run"``, ``"unresolvable"``, ...) plus
    whatever identifies the run or path involved.
    """

    @property
    def reason(self):
        return self.context.get("reason")


class StateError(ReproError):
    """Bytes that do not decode to a machine state.

    Raised by :mod:`repro.machine.state` for every malformed payload,
    program image or instruction record — it never lets a
    ``struct.error``, ``KeyError`` or ``IndexError`` escape.
    :attr:`context` carries ``reason``: ``"format"`` (empty, cut, bad
    magic, trailing bytes, a field out of range), ``"version"`` (an
    encoding generation this build does not read) or ``"image"`` (the
    payload names a different program image than the one supplied).
    """

    @property
    def reason(self):
        return self.context.get("reason")


class ReplayError(ReproError):
    """An invalid record/replay request (e.g. time travel without an
    active recording), or a recording that can no longer serve one."""


class DivergenceError(ReplayError):
    """Deterministic re-execution drifted from the recorded trace.

    Replay is only correct if re-execution reproduces the recorded run
    exactly; any mismatch — a monitor hit that differs from the
    recorded one, or a keyframe whose state digest no longer matches —
    raises this instead of silently returning a wrong answer.
    :attr:`context` carries the expected and observed values
    (``expected_pc``/``observed_pc``, ``expected_digest``/
    ``observed_digest``, ``index``).
    """

    @property
    def expected(self):
        return {key[len("expected_"):]: value
                for key, value in self.context.items()
                if key.startswith("expected_")}

    @property
    def observed(self):
        return {key[len("observed_"):]: value
                for key, value in self.context.items()
                if key.startswith("observed_")}


class PredicateCompileError(ReproError):
    """A watchpoint predicate failed to compile.

    Raised at *arm time* — ``watch()``, ``setDataBreakpoints`` — never
    at first hit: bad syntax, an undefined symbol, an unsupported
    construct (calls, frame-locals), or a constant subexpression that
    already faults (``1 / 0``).  :attr:`context` carries the offending
    ``token`` and the predicate ``source`` so protocol layers can
    surface a structured ``invalid_condition`` error.
    """

    @property
    def token(self):
        return self.context.get("token")


class PredicateError(ReproError):
    """A watchpoint predicate failed while evaluating a hit.

    Division by zero, a dereference of an unmapped or misaligned
    address, an out-of-range index.  The evaluation engine catches
    this, *disarms* the watchpoint (recording the error on it) and
    keeps the session alive — a broken predicate must not crash the
    debuggee.  :attr:`context` names the ``reason`` (``div_zero``,
    ``bad_deref``, ``bad_index``) and the fault operands.
    """

    @property
    def reason(self):
        return self.context.get("reason")


class OptimizeModeError(ReproError, ValueError):
    """An unknown optimization mode was requested from ``build_plan``.

    Raised instead of a bare ``ValueError`` so the CLI (and the debug
    server's ``launch`` request) can report a structured, catchable
    error; still a ``ValueError`` subclass so historical ``except``
    clauses keep working.  :attr:`context` carries the offending
    ``mode`` and the ``valid`` tuple of accepted mode names.
    """

    @property
    def mode(self):
        return self.context.get("mode")

    @property
    def valid(self):
        return self.context.get("valid")


class AuditError(ReproError):
    """A soundness audit could not certify a run.

    Raised by :mod:`repro.analysis.audit` for divergences that are not
    a missed monitor hit: extra or reordered hits, output or exit-code
    mismatches between the instrumented run and the uninstrumented
    ground truth.  :attr:`context` names the ``reason`` and the
    expected/observed values.
    """

    @property
    def reason(self):
        return self.context.get("reason")


class UnsoundEliminationError(AuditError):
    """The auditor proved an eliminated check swallowed a monitor hit.

    The trace-backed audit replays a recording's canonical WriteTrace
    against the uninstrumented ground truth; a write that lands in a
    monitored region with no corresponding notification means some
    pass eliminated a check it had no right to remove.  :attr:`context`
    names the write ``site``, the eliminating ``elim_pass``, the
    ``provenance`` chain the pass recorded when it made the decision,
    and the offending ``addr``.
    """

    @property
    def site(self):
        return self.context.get("site")

    @property
    def elim_pass(self):
        return self.context.get("elim_pass")

    @property
    def provenance(self):
        return self.context.get("provenance")

    @property
    def addr(self):
        return self.context.get("addr")


class RegionCreateError(MrsTransactionError):
    """``CreateMonitoredRegion`` failed; all state was rolled back."""


class RegionDeleteError(MrsTransactionError):
    """``DeleteMonitoredRegion`` failed; all state was rolled back."""


class MonitorPatchError(MrsTransactionError):
    """``PreMonitor``/``PostMonitor`` failed; patches were rolled back."""
