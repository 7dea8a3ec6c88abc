"""Overhead measurement: instrumented vs. uninstrumented cycle counts.

The protocol follows §3.3: the monitored region service is attached and
*enabled* but no monitored regions exist (Table 1 overheads are
"independent of the number of breakpoints in use"); the "Disabled" row
runs the same binary with the global disabled flag set.

Graceful degradation: a bench may be given an instruction budget.
When it runs out, runs return partial counts instead of raising, and
the derived overheads are :class:`Partial` floats marked ``truncated``
so they stay distinguishable through averaging and formatting.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.core.layout import MonitorLayout
from repro.instrument.plan import OptimizationPlan
from repro.machine.costs import CostModel, DEFAULT_COSTS
from repro.machine.cpu import SimulationLimit
from repro.minic.codegen import compile_source
from repro.session import DebugSession, run_uninstrumented
from repro.workloads import WORKLOADS, workload_source


class Partial(float):
    """A measurement cut short by its instruction budget.

    Behaves as a plain float in arithmetic and formatting, but carries
    ``truncated = True`` so tables can flag it and averages can
    propagate the mark.
    """

    truncated = True


def truncated(value) -> bool:
    """True if *value* (a float or RunResult) was cut short."""
    return bool(getattr(value, "truncated", False))


class RunResult:
    """Cycle/instruction counts of one simulated run.

    ``truncated`` is True when the run was stopped by its instruction
    budget rather than running to completion; the counts then cover
    only the executed prefix.
    """

    __slots__ = ("cycles", "instructions", "stores", "tag_cycles",
                 "tag_counts", "output", "hits", "session", "truncated")

    def __init__(self, cycles: int, instructions: int, stores: int,
                 tag_cycles: Dict[str, int], tag_counts: Dict[str, int],
                 output: List[str], hits: int = 0, session=None,
                 truncated: bool = False):
        self.cycles = cycles
        self.instructions = instructions
        self.stores = stores
        self.tag_cycles = tag_cycles
        self.tag_counts = tag_counts
        self.output = output
        self.hits = hits
        self.session = session
        self.truncated = truncated


class WorkloadBench:
    """One workload, compiled once, runnable under many configurations.

    *max_instructions* bounds every run; exhausting it yields a
    truncated :class:`RunResult` instead of an exception.
    """

    def __init__(self, name: str, scale: float = 1.0,
                 costs: CostModel = DEFAULT_COSTS,
                 cache_bytes: Optional[int] = None,
                 max_instructions: int = 400_000_000):
        self.name = name
        self.spec = WORKLOADS[name]
        self.scale = scale
        self.costs = costs
        self.max_instructions = max_instructions
        from repro.machine.cache import DEFAULT_CACHE_BYTES
        self.cache_bytes = cache_bytes if cache_bytes is not None \
            else DEFAULT_CACHE_BYTES
        self.asm = compile_source(workload_source(name, scale),
                                  lang=self.spec.lang)
        self._baseline: Optional[RunResult] = None

    def baseline(self, record_writes: bool = False) -> RunResult:
        if self._baseline is None or record_writes:
            code, loaded = run_uninstrumented(
                self.asm, costs=self.costs, record_writes=record_writes,
                cache_bytes=self.cache_bytes,
                max_instructions=self.max_instructions, on_limit="partial")
            was_cut = code is None
            if not was_cut and code != 0:
                raise RuntimeError("%s exited with %d" % (self.name, code))
            cpu = loaded.cpu
            result = RunResult(cpu.cycles, cpu.instructions, cpu.stores,
                               dict(cpu.tag_cycles), dict(cpu.tag_counts),
                               list(loaded.output), session=loaded,
                               truncated=was_cut)
            if not record_writes:
                self._baseline = result
            return result
        return self._baseline

    def run_instrumented(self, strategy: str,
                         enabled: bool = True,
                         plan: Optional[OptimizationPlan] = None,
                         layout: Optional[MonitorLayout] = None,
                         record_writes: bool = False,
                         regions: Optional[List] = None) -> RunResult:
        session = DebugSession.from_asm(
            self.asm, strategy=strategy, plan=plan, layout=layout,
            costs=self.costs, record_writes=record_writes,
            cache_bytes=self.cache_bytes)
        if enabled:
            session.mrs.enable()
        for start, size in regions or ():
            session.mrs.create_region(start, size)
        was_cut = False
        try:
            code = session.run(max_instructions=self.max_instructions)
        except SimulationLimit:
            was_cut = True
            code = None
        if not was_cut and code != 0:
            raise RuntimeError("%s/%s exited with %d"
                               % (self.name, strategy, code))
        base = self.baseline()
        # a truncated run stops mid-stream, so its output is a prefix at
        # best — only a complete pair must match exactly
        if not was_cut and not base.truncated \
                and session.output != base.output:
            raise RuntimeError("%s/%s changed program output"
                               % (self.name, strategy))
        cpu = session.cpu
        return RunResult(cpu.cycles, cpu.instructions, cpu.stores,
                         dict(cpu.tag_cycles), dict(cpu.tag_counts),
                         list(session.output),
                         hits=session.mrs.hit_count(), session=session,
                         truncated=was_cut)

    def overhead(self, strategy: str, **kwargs) -> float:
        """Percent overhead of *strategy* relative to the baseline.

        Returns a :class:`Partial` when either run was truncated by its
        instruction budget.
        """
        instrumented = self.run_instrumented(strategy, **kwargs)
        base = self.baseline()
        value = 100.0 * (instrumented.cycles / base.cycles - 1.0)
        if instrumented.truncated or base.truncated:
            return Partial(value)
        return value


def average(values: List[float]) -> float:
    """Mean of *values*; :class:`Partial` if any input was truncated."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if any(truncated(v) for v in values):
        return Partial(mean)
    return mean


def header_lines(columns: List[str], width: int) -> List[str]:
    """Header lines of a table with an 18-wide ``Program`` column and
    *width*-wide cells.  A name longer than ``width - 1`` wraps at its
    CamelCase or ``_`` word breaks onto further lines, so every heading
    stays inside its column with a space before it."""
    wrapped = [_wrap(name, width - 1) for name in columns]
    lines = []
    for row in range(max(len(words) for words in wrapped)):
        cells = ["%-18s" % ("Program" if row == 0 else "")]
        cells += ["%*s" % (width, words[row] if row < len(words) else "")
                  for words in wrapped]
        lines.append("".join(cells).rstrip())
    return lines


def _wrap(name: str, limit: int) -> List[str]:
    lines = []
    while len(name) > limit:
        cut = [match.start() for match in
               re.finditer(r"(?<=[a-z0-9])[A-Z]|_", name[:limit + 1])][-1]
        lines.append(name[:cut])
        name = name[cut:].lstrip("_")
    return lines + [name]
