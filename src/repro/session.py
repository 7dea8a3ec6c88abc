"""High-level pipeline: mini-C (or assembly) -> instrumented debuggee.

`DebugSession` wires the whole stack together: compile, instrument with
a write-check strategy (and optionally a §4 optimization plan), assemble,
load, and attach a :class:`~repro.core.service.MonitoredRegionService`.
The first three steps (:meth:`DebugSession.build`) depend only on the
program, the last two (:meth:`DebugSession.attach`) make the running
debuggee.  This is the main entry point for examples, tests and the
evaluation harness.  A session is re-runnable: a fresh
:meth:`DebugSession.run` rewinds to the entry state, which a
:class:`~repro.debugger.debugger.Debugger` driving the session
captures as its own snapshot, so the rewind restores its watch state
with the machine.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.asm.assembler import assemble
from repro.asm.loader import LoadedProgram, load_program
from repro.core.layout import MonitorLayout
from repro.core.service import MonitoredRegionService
from repro.faults import FaultPlan
from repro.instrument.plan import OptimizationPlan
from repro.instrument.rewriter import InstrumentResult, instrument_source
from repro.machine.cache import DEFAULT_CACHE_BYTES
from repro.machine.costs import CostModel, DEFAULT_COSTS
from repro.minic.codegen import compile_source


class DebugSession:
    """One debuggee instrumented for data breakpoints."""

    def __init__(self, inst: InstrumentResult, loaded: LoadedProgram,
                 mrs: MonitoredRegionService):
        self.inst = inst
        self.loaded = loaded
        self.mrs = mrs
        self.cpu = loaded.cpu
        self.program = loaded.program
        #: True once the debuggee has been started
        self.started = False
        #: puts the debuggee back to its entry state for a fresh run()
        self._rewind: Optional[Callable[[], None]] = None

    def mark_started(self,
                     rewind: Optional[Callable[[], None]] = None) -> None:
        """Fix how a later fresh :meth:`run` rewinds to the entry
        state, at the first start: *rewind* when a host passes one (the
        debugger, which drives the CPU directly instead of through
        :meth:`run`, restores the snapshot it took there), else a
        machine+MRS checkpoint taken now."""
        if self._rewind is None:
            if rewind is None:
                from repro.machine.checkpoint import Checkpoint
                entry = Checkpoint(self.cpu, output=self.loaded.output,
                                   mrs=self.mrs)

                def rewind() -> None:
                    entry.restore(self.cpu, output=self.loaded.output,
                                  mrs=self.mrs)
            self._rewind = rewind
        self.started = True

    @staticmethod
    def build(asm_source: str, strategy="Bitmap",
              layout: Optional[MonitorLayout] = None,
              plan: Optional[OptimizationPlan] = None,
              monitor_reads: bool = False) -> InstrumentResult:
        """Instrument and assemble *asm_source*: the half of a session
        that depends only on the program.  Nothing changes the result
        afterwards (a session's patches, bitmap and segment table live
        in its own machine), so one build can serve any number of
        :meth:`attach` calls."""
        inst = instrument_source(asm_source, strategy, layout, plan,
                                 monitor_reads)
        inst.assemble()
        return inst

    @classmethod
    def attach(cls, inst: InstrumentResult,
               costs: CostModel = DEFAULT_COSTS,
               cache_bytes: int = DEFAULT_CACHE_BYTES,
               record_writes: bool = False,
               faults: Optional[FaultPlan] = None,
               mrs_class=MonitoredRegionService) -> "DebugSession":
        """Load an assembled *inst* into a new machine and attach an
        MRS to it; *faults* arms that MRS and the machine's memory."""
        loaded = load_program(inst.program, cache_bytes=cache_bytes,
                              costs=costs, record_writes=record_writes)
        if faults is not None:
            mrs = mrs_class(loaded, inst, faults=faults)
            # arm the memory.write injection point only after loading,
            # so the data-image writes don't consume occurrences
            loaded.cpu.mem.faults = faults
        else:
            mrs = mrs_class(loaded, inst)
        return cls(inst, loaded, mrs)

    @classmethod
    def from_asm(cls, asm_source: str, strategy="Bitmap",
                 layout: Optional[MonitorLayout] = None,
                 plan: Optional[OptimizationPlan] = None,
                 costs: CostModel = DEFAULT_COSTS,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 record_writes: bool = False,
                 monitor_reads: bool = False,
                 faults: Optional[FaultPlan] = None,
                 mrs_class=MonitoredRegionService) -> "DebugSession":
        inst = cls.build(asm_source, strategy, layout, plan, monitor_reads)
        return cls.attach(inst, costs=costs, cache_bytes=cache_bytes,
                          record_writes=record_writes, faults=faults,
                          mrs_class=mrs_class)

    @classmethod
    def from_minic(cls, c_source: str, lang: str = "C", **kwargs
                   ) -> "DebugSession":
        return cls.from_asm(compile_source(c_source, lang=lang), **kwargs)

    def run(self, max_instructions: int = 400_000_000,
            resume: bool = False) -> int:
        """Run (or resume) the debuggee; safely re-runnable.

        A fresh ``run()`` after a previous one — e.g. a rerun after a
        :class:`~repro.machine.cpu.SimulationLimit` — rewinds the
        debuggee to the state it had when first started (memory image,
        registers, counters, output, monitor state; under a debugger,
        its watchpoints, breakpoints and their logs too), so
        instruction/cycle counters are not double-counted and stale trap
        state cannot leak into the new run.  *max_instructions* counts
        from the (restored) counters, so each call grants its full
        budget.  ``resume=True`` before any run is treated as a fresh
        start.
        """
        if resume and not self.started:
            resume = False
        if not resume:
            if self._rewind is not None:
                self._rewind()
                self.cpu.running = False
                self.cpu.exit_code = None
            self.mark_started()
        return self.loaded.run(max_instructions=max_instructions)

    @property
    def output(self) -> List[str]:
        return self.loaded.output

    def symbol(self, name: str, func: Optional[str] = None):
        return self.program.symtab.lookup(name, func)


def run_uninstrumented(asm_source: str,
                       costs: CostModel = DEFAULT_COSTS,
                       cache_bytes: int = DEFAULT_CACHE_BYTES,
                       record_writes: bool = False,
                       max_instructions: int = 400_000_000,
                       on_limit: str = "raise"
                       ) -> Tuple[Optional[int], LoadedProgram]:
    """Assemble and run *asm_source* without any checks (the baseline
    against which Table 1 / Table 2 overheads are computed).

    With ``on_limit="partial"``, running out of *max_instructions*
    returns ``(None, loaded)`` — the partially-run program — instead of
    raising :class:`~repro.machine.cpu.SimulationLimit`.
    """
    from repro.machine.cpu import SimulationLimit

    program = assemble(asm_source)
    loaded = load_program(program, cache_bytes=cache_bytes, costs=costs,
                          record_writes=record_writes)
    try:
        exit_code = loaded.run(max_instructions=max_instructions)
    except SimulationLimit:
        if on_limit != "partial":
            raise
        exit_code = None
    return exit_code, loaded
