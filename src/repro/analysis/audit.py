"""Trace-backed soundness auditor for check elimination (`repro audit`).

The §4 optimizer's contract is subtle: an eliminated check is only
sound if the §4.2 pre-monitor protocol re-inserts it for every symbol
whose storage the store could hit.  This module *checks the contract
end-to-end* instead of trusting it:

1. run the program **uninstrumented** with a full write trace — the
   ground truth of every ``(site, addr, width)`` store;
2. build the requested plan, instrument, arm watchpoints through the
   real ``pre_monitor``/``create_region`` protocol, and record the run
   with the replay :class:`~repro.replay.recorder.Recorder`, whose
   canonical WriteTrace captures every monitor notification;
3. compare: every ground-truth write that lands in a monitored region
   must appear, in order, in the recording.  A missing notification is
   mapped back to its write site and raised as a structured
   :class:`~repro.errors.UnsoundEliminationError` naming the site, the
   eliminating pass and the provenance chain it recorded; any other
   divergence (extra or reordered hits, output/exit mismatch) raises
   :class:`~repro.errors.AuditError`.

Combined with the ``analysis.unsound`` fault-injection point in the
ipa pass, this turns "the optimizer silently corrupted monitoring"
into a tier-1-testable artifact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.asm.parser import parse
from repro.core.regions import MonitoredRegion, RegionSet
from repro.errors import AuditError, UnsoundEliminationError
from repro.faults import FaultPlan
from repro.instrument.writes import enumerate_write_sites
from repro.minic import compile_source
from repro.optimizer.pipeline import build_plan
from repro.session import DebugSession, run_uninstrumented

#: plenty for the scaled-down §6 workloads the audit runs
_MAX_TRACE = 1_000_000


class AuditReport:
    """Result of one successful audit."""

    def __init__(self, mode: Optional[str], monitors: List[Tuple],
                 writes_total: int, hits_verified: int,
                 sites_eliminated: int, summary: Dict[str, int],
                 pass_stats: Dict[str, Dict[str, int]]):
        self.mode = mode
        self.monitors = monitors
        self.writes_total = writes_total
        self.hits_verified = hits_verified
        self.sites_eliminated = sites_eliminated
        self.summary = summary
        self.pass_stats = pass_stats
        self.ok = True

    def render(self) -> str:
        lines = ["audit OK (mode=%s)" % (self.mode or "none")]
        lines.append("  monitors:        %s"
                     % ", ".join("%s%s" % (name,
                                           " (%s)" % func if func
                                           else "")
                                 for name, func in self.monitors))
        lines.append("  writes traced:   %d" % self.writes_total)
        lines.append("  hits verified:   %d" % self.hits_verified)
        lines.append("  checks removed:  %d  %s"
                     % (self.sites_eliminated,
                        {k: v for k, v in self.summary.items() if v}))
        for pass_name, stats in self.pass_stats.items():
            lines.append("  pass %-8s    %s" % (pass_name, stats))
        return "\n".join(lines)


def _ground_truth_hits(write_trace, regions: Sequence[Tuple[int, int]]):
    """Ordered ``(site, addr, width)`` ground-truth monitor hits."""
    region_set = RegionSet()
    for start, size in regions:
        region_set.add(MonitoredRegion(start, size))
    return [(site, addr, width) for site, addr, width in write_trace
            if region_set.hit(addr, width)]


def pick_monitors(symtab, write_trace, count: int = 2) -> List[Tuple]:
    """Choose audit monitors automatically: the global symbols with the
    most ground-truth writes (they exercise the elimination machinery
    hardest), falling back to any global."""
    totals = []
    for entry in symtab.globals():
        if entry.address is None:
            continue
        writes = sum(1 for _site, addr, width in write_trace
                     if entry.covers_address(addr))
        totals.append((writes, entry.name))
    totals.sort(key=lambda pair: (-pair[0], pair[1]))
    chosen = [(name, None) for writes, name in totals[:count] if writes]
    if not chosen and totals:
        chosen = [(totals[0][1], None)]
    return chosen


def audit_asm(asm: str, mode: Optional[str] = "ipa",
              monitors: Optional[List[Tuple]] = None,
              strategy: str = "BitmapInlineRegisters",
              faults: Optional[FaultPlan] = None,
              max_instructions: int = 400_000_000) -> AuditReport:
    """Audit one assembly program; see the module docstring.

    ``monitors`` is a list of ``(symbol, func_or_None)`` pairs; when
    omitted, :func:`pick_monitors` selects the most-written globals.
    ``faults`` reaches the plan build (the ``analysis.unsound`` point).
    """
    from repro.debugger.debugger import Debugger

    # stamp site ids on the baseline statements so the ground-truth
    # write trace names the same write sites the plan eliminated
    baseline_stmts = parse(asm)
    enumerate_write_sites(baseline_stmts)
    exit_base, base = run_uninstrumented(
        baseline_stmts, record_writes=True,
        max_instructions=max_instructions)

    plan = None
    if mode:
        _stmts, plan = build_plan(asm, mode=mode, faults=faults)
    session = DebugSession.from_asm(asm, strategy=strategy, plan=plan)
    debugger = Debugger(session)

    if monitors is None:
        monitors = pick_monitors(debugger.symtab, base.cpu.write_trace)
    if not monitors:
        raise AuditError("nothing to audit: no monitorable globals",
                         reason="no_monitors")
    for name, func in monitors:
        debugger.watch(name, func=func, action="log")

    regions = sorted({watchpoint.region.key()
                      for watchpoint in debugger.watchpoints})
    expected = _ground_truth_hits(base.cpu.write_trace, regions)

    recorder = debugger.record(max_trace=_MAX_TRACE)
    reason = debugger.run(max_instructions=max_instructions)
    if reason != "exited":
        raise AuditError("instrumented run did not exit",
                         reason="no_exit", stop_reason=reason)
    if recorder.trace.dropped:
        raise AuditError("monitor trace overflowed; raise max_trace",
                         reason="trace_dropped",
                         dropped=recorder.trace.dropped)
    if session.cpu.exit_code != exit_base:
        raise AuditError("exit codes diverged", reason="exit_mismatch",
                         expected=exit_base,
                         observed=session.cpu.exit_code)
    if session.output != base.output:
        raise AuditError("program output diverged",
                         reason="output_mismatch")

    actual = [(record.addr, record.size) for record in recorder.trace
              if not record.is_read]

    limit = max(len(expected), len(actual))
    for index in range(limit):
        want = expected[index] if index < len(expected) else None
        got = actual[index] if index < len(actual) else None
        if want is not None and (got is None or
                                 got != (want[1], want[2])):
            site, addr, width = want
            seen_later = got is not None and \
                (want[1], want[2]) in actual[index:]
            if not seen_later:
                raise UnsoundEliminationError(
                    "eliminated check swallowed a monitor hit",
                    site=site,
                    elim_pass=(plan.eliminate.get(site)
                               if plan else None),
                    provenance=(plan.why_eliminated.get(site)
                                if plan else None),
                    addr=addr, width=width, index=index,
                    mode=mode or "none")
            raise AuditError("monitor hits reordered",
                             reason="hit_mismatch", index=index,
                             expected_addr=want[1], observed_addr=got[0])
        if want is None:
            raise AuditError("unexpected extra monitor hit",
                             reason="extra_hit", index=index,
                             observed_addr=got[0],
                             observed_size=got[1])

    return AuditReport(
        mode=mode, monitors=list(monitors),
        writes_total=len(base.cpu.write_trace),
        hits_verified=len(expected),
        sites_eliminated=len(plan.eliminate) if plan else 0,
        summary=plan.summary() if plan else {},
        pass_stats={name: stats.as_dict()
                    for name, stats in plan.pass_stats.items()}
        if plan else {})


def audit_source(source: str, lang: str = "C",
                 mode: Optional[str] = "ipa", **kwargs) -> AuditReport:
    """Compile mini-C *source* and audit it."""
    return audit_asm(compile_source(source, lang=lang), mode=mode,
                     **kwargs)


def audit_workload(name: str, mode: Optional[str] = "ipa",
                   scale: float = 0.3, **kwargs) -> AuditReport:
    """Audit one §6 workload at *scale* under *mode*."""
    from repro.workloads import WORKLOADS, workload_source

    if name not in WORKLOADS:
        raise AuditError("unknown workload %r" % name,
                         reason="unknown_workload",
                         valid=sorted(WORKLOADS))
    spec = WORKLOADS[name]
    asm = compile_source(workload_source(name, scale), lang=spec.lang)
    return audit_asm(asm, mode=mode, **kwargs)
