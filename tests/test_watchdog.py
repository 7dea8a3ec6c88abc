"""Instruction budgets, resumable limits, and graceful eval degradation."""

import pytest

from repro.asm.assembler import assemble
from repro.asm.loader import load_program
from repro.baselines.trap import TrapBasedDebugger
from repro.eval.overhead import Partial, WorkloadBench, average, truncated
from repro.eval.table1 import format_table, measure_workload
from repro.machine.checkpoint import Checkpoint
from repro.machine.cpu import SimulationError, SimulationLimit
from repro.minic.codegen import compile_source
from repro.session import DebugSession

PROGRAM = """
int total;
int main() {
    register int i;
    total = 0;
    for (i = 0; i < 500; i = i + 1) {
        total = total + i;
    }
    print(total);
    print(1);
    print(2);
    return 0;
}
"""


def _session():
    session = DebugSession.from_minic(PROGRAM)
    session.mrs.enable()
    return session


SHORT = "int main() { print(7); return 0; }"


def _cpu_run(budget):
    loaded = load_program(assemble(compile_source(SHORT)))
    return loaded.run(max_instructions=budget), loaded.cpu


def _session_run(budget):
    session = DebugSession.from_minic(SHORT)
    return session.run(max_instructions=budget), session.cpu


def _trap_run(budget):
    debugger = TrapBasedDebugger(compile_source(SHORT))
    return debugger.run(max_instructions=budget), debugger.loaded.cpu


class TestBudgets:
    @pytest.mark.parametrize("kwargs,kind", [
        ({"max_instructions": 300}, "instructions"),
    ])
    def test_each_budget_kind_trips_with_context(self, kwargs, kind):
        session = _session()
        with pytest.raises(SimulationLimit) as excinfo:
            session.run(**kwargs)
        limit = excinfo.value
        assert limit.budget == kind
        for key in ("pc", "cycles", "instructions", "traps"):
            assert key in limit.context
        # a watchdog limit is a SimulationError, so existing handlers
        # for runaway simulations keep working
        assert isinstance(limit, SimulationError)

    def test_limit_is_resumable_to_completion(self):
        reference = _session()
        assert reference.run() == 0

        session = _session()
        interruptions = 0
        resume = False
        while True:
            try:
                session.run(max_instructions=700, resume=resume)
                break
            except SimulationLimit:
                # each run grants the budget again from the current pc
                interruptions += 1
                resume = True
                assert interruptions < 100
        assert interruptions >= 1
        assert session.output == reference.output
        assert session.cpu.instructions == reference.cpu.instructions

    def test_checkpoint_from_limit_restores_the_debuggee(self):
        session = _session()
        with pytest.raises(SimulationLimit) as excinfo:
            session.run(max_instructions=900)
        # the CPU stops on a clean boundary, so a checkpoint taken
        # after catching the limit captures the state at the limit
        snapshot = Checkpoint(session.cpu, output=session.output,
                              mrs=session.mrs)
        # run to completion, then rewind to the limit point and finish
        # again: both continuations must agree exactly
        assert session.run(resume=True) == 0
        first = (list(session.output), session.cpu.instructions)
        snapshot.restore(session.cpu, output=session.output,
                         mrs=session.mrs)
        assert session.cpu.instructions == excinfo.value.context[
            "instructions"]
        assert session.run(resume=True) == 0
        assert (list(session.output), session.cpu.instructions) == first

    @pytest.mark.parametrize("runner", [_cpu_run, _session_run,
                                        _trap_run],
                             ids=["cpu", "session", "trap"])
    def test_exit_on_the_last_budgeted_instruction_is_not_a_limit(
            self, runner):
        _code, cpu = runner(10_000)
        total = cpu.instructions
        code, cpu = runner(total)
        assert (code, cpu.running, cpu.instructions) == (0, False, total)
        with pytest.raises(SimulationLimit) as excinfo:
            runner(total - 1)
        assert excinfo.value.context["instructions"] == total - 1

    def test_default_instruction_cap_still_enforced(self):
        session = _session()
        with pytest.raises(SimulationLimit):
            session.run(max_instructions=50)


class TestEvalDegradation:
    def test_overhead_becomes_partial_under_instruction_budget(self):
        probe = WorkloadBench("023.eqntott", scale=0.1)
        full_instructions = probe.baseline().instructions

        bench = WorkloadBench("023.eqntott", scale=0.1,
                              max_instructions=full_instructions // 3)
        overhead = bench.overhead("Bitmap", enabled=True)
        assert isinstance(overhead, Partial)
        assert truncated(overhead)
        assert bench.baseline().truncated
        # the partial measurement is still a usable float
        assert -100.0 < float(overhead) < 1000.0

    def test_unbounded_overhead_stays_a_plain_float(self):
        bench = WorkloadBench("023.eqntott", scale=0.1)
        overhead = bench.overhead("Bitmap", enabled=True)
        assert not truncated(overhead)
        assert not isinstance(overhead, Partial)

    def test_average_propagates_truncation(self):
        assert truncated(average([1.0, Partial(3.0)]))
        assert not truncated(average([1.0, 3.0]))
        assert average([1.0, Partial(3.0)]) == 2.0

    def test_table1_row_truncates_instead_of_raising(self):
        row = measure_workload("023.eqntott", scale=0.1,
                               columns=["Disabled", "Bitmap"],
                               max_instructions=2_000)
        assert all(truncated(value) for value in row.values())

    def test_format_table_flags_truncated_cells(self):
        results = {"023.eqntott": {
            "Disabled": 1.0, "Bitmap": Partial(12.0), "BitmapInline": 2.0,
            "BitmapInlineRegisters": 3.0, "Cache": 4.0, "CacheInline": 5.0}}
        text = format_table(results, with_paper=False)
        assert "12.0%*" in text
        assert "1.0%*" not in text
        assert "truncated by its instruction budget" in text

    def test_max_instructions_bound_without_fault_plan(self):
        bench = WorkloadBench("023.eqntott", scale=0.1,
                              max_instructions=500)
        overhead = bench.overhead("Bitmap", enabled=True)
        assert truncated(overhead)
