"""Experiment E3: reproduce Figure 3 — segment cache locality as a
function of segment size (§3.1).

For each segment size we run the ``Cache`` strategy (no monitored
regions, MRS enabled) and measure the per-write-type segment-cache hit
rate: ``1 - cache_misses / checked_writes``.  The paper picked 128-word
segments because "segment sizes greater than 128 words did not offer
enough gain in cache locality to justify the possible increase in full
lookups" (and segment-table size).

Run as ``python -m repro figure3 [--scale S]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.layout import MonitorLayout
from repro.eval.overhead import WorkloadBench, average
from repro.workloads import WORKLOAD_ORDER

#: segment sizes (in words) swept; the paper's x-axis starts at 128
SEGMENT_SIZES = [32, 64, 128, 256, 512, 1024, 2048]


def measure_hit_rate(name: str, segment_words: int,
                     scale: float = 1.0) -> float:
    """Segment-cache hit rate of one workload at one segment size."""
    bench = WorkloadBench(name, scale=scale)
    layout = MonitorLayout(segment_words)
    run = bench.run_instrumented("Cache", enabled=True, layout=layout,
                                 record_writes=True)
    checks = run.session.cpu.write_trace
    misses = run.tag_counts.get("miss_entry", 0)
    total = len(checks)
    if total == 0:
        return 1.0
    return 1.0 - misses / total


def measure_figure3(scale: float = 1.0,
                    workloads: Optional[List[str]] = None,
                    sizes: Optional[List[int]] = None
                    ) -> Dict[int, Dict[str, float]]:
    workloads = workloads or WORKLOAD_ORDER
    sizes = sizes or SEGMENT_SIZES
    results: Dict[int, Dict[str, float]] = {}
    for size in sizes:
        results[size] = {name: measure_hit_rate(name, size, scale)
                         for name in workloads}
    return results


def format_series(results: Dict[int, Dict[str, float]]) -> str:
    lines = ["%-10s %-18s %s" % ("seg words", "avg hit rate", "bar")]
    for size, per_workload in sorted(results.items()):
        rate = average(list(per_workload.values()))
        bar = "#" * int(round(rate * 50))
        lines.append("%-10d %-18.3f %s" % (size, rate, bar))
    return "\n".join(lines)


def main(scale: float = 1.0,
         workloads: Optional[List[str]] = None
         ) -> Dict[int, Dict[str, float]]:
    results = measure_figure3(scale, workloads)
    print("Figure 3: segment cache locality vs segment size "
          "(measured, scale=%.2g)" % scale)
    print(format_series(results))
    rates = {size: average(list(r.values()))
             for size, r in results.items()}
    if 128 in rates and max(rates) > 128:
        big = max(rates)
        print("\n128-word hit rate %.3f vs %d-word %.3f: the paper's "
              "observation that larger segments buy little locality"
              % (rates[128], big, rates[big]))
    return results
