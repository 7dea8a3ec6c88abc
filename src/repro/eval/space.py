"""Experiment E7: bitmap space overhead (§3).

"a segmented bitmap consumes more space than a hash table — roughly 3%
of the total memory used by the program" (one bit per word = 1/32 =
3.125%, plus the lazily touched segment table).

We populate the bitmap over each workload's entire data segment (the
worst case: everything monitored) and report allocated bitmap bytes as
a fraction of program memory.

Run as ``python -m repro space [--scale S]``.
"""

from __future__ import annotations

from typing import Dict, Optional, List

from repro.core.bitmap import SegmentedBitmap
from repro.core.layout import MonitorLayout
from repro.core.regions import MonitoredRegion
from repro.machine.memory import Memory
from repro.minic.codegen import compile_source
from repro.asm.assembler import assemble
from repro.workloads import WORKLOAD_ORDER, WORKLOADS, workload_source


def measure_workload(name: str, scale: float = 1.0) -> Dict[str, float]:
    spec = WORKLOADS[name]
    asm = compile_source(workload_source(name, scale), lang=spec.lang)
    program = assemble(asm)
    # run once to learn how much heap the workload allocates
    from repro.session import run_uninstrumented
    from repro.asm.loader import DEFAULT_HEAP_BASE
    _code, loaded = run_uninstrumented(asm)
    heap_bytes = loaded.cpu.mem.brk - DEFAULT_HEAP_BASE

    memory = Memory()
    layout = MonitorLayout()
    bitmap = SegmentedBitmap(memory, layout)
    data_bytes = program.data_size()
    if data_bytes:
        bitmap.set_region(MonitoredRegion(program.data_base,
                                          (data_bytes + 3) & ~3))
    if heap_bytes:
        bitmap.set_region(MonitoredRegion(DEFAULT_HEAP_BASE,
                                          (heap_bytes + 3) & ~3))
    bitmap_bytes = bitmap.bitmap_bytes_allocated()
    allocated = data_bytes + heap_bytes
    program_bytes = program.text_size() + allocated
    return {
        "program_bytes": program_bytes,
        "data_bytes": allocated,
        "bitmap_bytes": bitmap_bytes,
        "fraction": bitmap_bytes / allocated if allocated else 0.0,
    }


def main(scale: float = 1.0,
         workloads: Optional[List[str]] = None) -> Dict[str, Dict]:
    workloads = workloads or WORKLOAD_ORDER
    results = {name: measure_workload(name, scale) for name in workloads}
    print("Bitmap space overhead (worst case: entire data segment "
          "monitored); paper: ~3%")
    print("%-18s %10s %10s %10s %9s" % ("Program", "total",
                                        "data+heap", "bitmap",
                                        "bitmap/data"))
    for name, row in results.items():
        print("%-18s %10d %10d %10d %8.2f%%"
              % (name, row["program_bytes"], row["data_bytes"],
                 row["bitmap_bytes"], 100.0 * row["fraction"]))
    return results
