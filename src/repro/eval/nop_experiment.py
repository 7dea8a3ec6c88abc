"""Experiment E2: the §3.3.1 cache-effect experiment (Table 1's σ).

"We inserted 2, 4, 8, 16, or 32 nop instructions before each write
instruction.  In the absence of cache effects, the overhead should be
linearly dependent on the number of instructions inserted. ... For each
program we performed a simple linear regression on the measured
overhead ... any deviation from the expected linear behavior must be
caused by cache alignment effects.  The last column of Table 1 shows
the standard deviation of the differences between expected and
observed overhead."

Run as ``python -m repro nop [--scale S]``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.eval.overhead import WorkloadBench
from repro.instrument.strategies import CheckStrategy
from repro.instrument.writes import WriteSite
from repro.workloads import WORKLOAD_ORDER

NOP_COUNTS = [2, 4, 8, 16, 32]

#: The cache must be comparable to the instrumented working set for
#: alignment effects to exist at all; the paper's SS2-class machine had
#: a 64 KB cache against megabyte programs, our mimics are ~10-60 KB of
#: code+data, so the experiment runs against an 8 KB cache.
NOP_CACHE_BYTES = 8 * 1024


class NopStrategy(CheckStrategy):
    """Inserts *count* nops after each write instead of a check."""

    name = "Nops"

    def __init__(self, count: int, layout=None):
        super().__init__(layout)
        self.count = count

    def site_check(self, site: WriteSite, is_read: bool = False
                   ) -> List[str]:
        return ["nop"] * self.count

    def library(self) -> str:
        return "\t.text\n"


def linear_regression(xs: List[float], ys: List[float]
                      ) -> Tuple[float, float]:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    return slope, intercept


def measure_workload(name: str, scale: float = 1.0
                     ) -> Dict[str, float]:
    """Overheads per nop count plus the regression residual σ."""
    bench = WorkloadBench(name, scale=scale,
                          cache_bytes=NOP_CACHE_BYTES)
    overheads = []
    for count in NOP_COUNTS:
        run = bench.run_instrumented(NopStrategy(count), enabled=False)
        base = bench.baseline()
        overheads.append(100.0 * (run.cycles / base.cycles - 1.0))
    slope, intercept = linear_regression(
        [float(c) for c in NOP_COUNTS], overheads)
    residuals = [y - (slope * c + intercept)
                 for c, y in zip(NOP_COUNTS, overheads)]
    sigma = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    result = {"nop%d" % c: o for c, o in zip(NOP_COUNTS, overheads)}
    result.update({"slope": slope, "intercept": intercept,
                   "sigma": sigma})
    return result


def measure_sigma(scale: float = 1.0,
                  workloads: Optional[List[str]] = None
                  ) -> Dict[str, Dict[str, float]]:
    workloads = workloads or WORKLOAD_ORDER
    return {name: measure_workload(name, scale) for name in workloads}


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    header = "%-18s" % "Program"
    header += "".join("%9s" % ("nop%d" % c) for c in NOP_COUNTS)
    header += "%9s%9s" % ("slope", "sigma")
    lines = [header, "-" * len(header)]
    for name, row in results.items():
        cells = "%-18s" % name
        cells += "".join("%8.1f%%" % row["nop%d" % c] for c in NOP_COUNTS)
        cells += "%9.2f%8.1f%%" % (row["slope"], row["sigma"])
        lines.append(cells)
    return "\n".join(lines)


def main(scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    results = measure_sigma(scale)
    print("Nop-insertion cache-effect experiment (σ column of Table 1)")
    print(format_table(results))
    return results
