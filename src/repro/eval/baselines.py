"""Experiment E6: the §1/§3 baseline comparison.

Reproduces the headline comparisons against prior implementation
strategies:

* dbx-style trap-per-instruction: "a factor of 85,000, independent of
  the program being debugged";
* Wahbe '92 hash-table procedure-call checks: "209% to 642%";
* hardware watchpoints: free but capacity-limited (SPARC: one word);
* VAX DEBUG page protection: per-fault costs plus false faults from
  unmonitored data sharing pages.

Run as ``python -m repro baselines [--scale S]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.hardware import (HardwareWatchpoints,
                                      WatchpointCapacityError)
from repro.baselines.hashtable import HashTableStrategy
from repro.baselines.trap import TrapBasedDebugger
from repro.baselines.vmprotect import PageProtectionDebugger
from repro.eval.overhead import WorkloadBench
from repro.eval.paper_data import (DBX_OVERHEAD_FACTOR,
                                   HASHTABLE_OVERHEAD_RANGE)
from repro.minic.codegen import compile_source
from repro.session import run_uninstrumented
from repro.workloads import WORKLOAD_ORDER, WORKLOADS, workload_source

#: small program for the (very slow to simulate) trap baseline
_TRAP_PROGRAM = """
int buf[16];
int main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 16; i = i + 1) {
        buf[i] = i * 5;
        s = s + buf[i];
    }
    print(s);
    return 0;
}
"""


def measure_trap_factor() -> float:
    """Slowdown factor of the dbx trap-per-instruction model."""
    asm = compile_source(_TRAP_PROGRAM)
    _code, base = run_uninstrumented(asm)
    debugger = TrapBasedDebugger(asm)
    debugger.run()
    return debugger.overhead_factor(base.cpu.cycles)


def measure_hashtable_overheads(scale: float = 1.0,
                                workloads: Optional[List[str]] = None
                                ) -> Dict[str, float]:
    """Hash-table write-check overhead per workload (no regions)."""
    workloads = workloads or WORKLOAD_ORDER
    results = {}
    for name in workloads:
        bench = WorkloadBench(name, scale=scale)
        run = bench.run_instrumented(HashTableStrategy(), enabled=True)
        base = bench.baseline()
        results[name] = 100.0 * (run.cycles / base.cycles - 1.0)
    return results


def demonstrate_hardware_limit() -> str:
    """Show the SPARC single-word watchpoint failing a two-word watch."""
    asm = compile_source(_TRAP_PROGRAM)
    from repro.asm.assembler import assemble
    from repro.asm.loader import load_program
    loaded = load_program(assemble(asm))
    hardware = HardwareWatchpoints(loaded, processor="SPARC")
    buf = loaded.program.symtab.lookup("buf")
    hardware.watch(buf.address, 4)
    try:
        hardware.watch(buf.address + 4, 4)
    except WatchpointCapacityError as exc:
        return str(exc)
    raise AssertionError("capacity limit did not trigger")


def measure_vmprotect(scale: float = 0.5,
                      workload: str = "042.fpppp") -> Dict[str, float]:
    """Page-protection overhead when one global is watched."""
    spec = WORKLOADS[workload]
    asm = compile_source(workload_source(workload, scale), lang=spec.lang)
    _code, base = run_uninstrumented(asm)
    debugger = PageProtectionDebugger(asm)
    target = debugger.loaded.program.symtab.lookup("gout")
    debugger.watch(target.address, 4)
    debugger.run()
    overhead = 100.0 * (debugger.loaded.cpu.cycles / base.cpu.cycles - 1.0)
    return {"overhead": overhead, "hits": len(debugger.hits),
            "false_faults": debugger.false_faults}


def main(scale: float = 0.5) -> Dict[str, object]:
    results: Dict[str, object] = {}

    factor = measure_trap_factor()
    results["trap_factor"] = factor
    print("dbx trap-per-instruction slowdown: %.0fx "
          "(paper: ~%dx)" % (factor, DBX_OVERHEAD_FACTOR))

    hashes = measure_hashtable_overheads(scale)
    results["hashtable"] = hashes
    low, high = min(hashes.values()), max(hashes.values())
    print("hash-table write checks: %.0f%% .. %.0f%% across workloads "
          "(paper: %.0f%% .. %.0f%%)"
          % (low, high, *HASHTABLE_OVERHEAD_RANGE))
    for name, value in hashes.items():
        print("   %-16s %7.1f%%" % (name, value))

    message = demonstrate_hardware_limit()
    results["hardware_limit"] = message
    print("hardware watchpoints: %s" % message)

    vm = measure_vmprotect(scale)
    results["vmprotect"] = vm
    print("VAX DEBUG page protection on 042.fpppp: %.0f%% overhead, "
          "%d hits, %d false faults from page sharing"
          % (vm["overhead"], vm["hits"], vm["false_faults"]))
    return results
