"""Experiment E1: reproduce Table 1 — MRS overhead per write-check
implementation, on the ten SPEC-mimic workloads.

Run as ``python -m repro table1 [--scale S]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.eval.overhead import WorkloadBench, average, header_lines, \
    truncated
from repro.eval.paper_data import TABLE1, TABLE1_AVERAGES, TABLE1_COLUMNS
from repro.workloads import C_WORKLOADS, F_WORKLOADS, WORKLOAD_ORDER, \
    WORKLOADS


def measure_workload(name: str, scale: float = 1.0,
                     columns: Optional[List[str]] = None,
                     max_instructions: int = 400_000_000
                     ) -> Dict[str, float]:
    """Overhead (%) of each Table 1 column for one workload.

    *max_instructions* bounds each run; cells whose runs were cut short
    come back as truncated :class:`Partial` values.
    """
    columns = columns or TABLE1_COLUMNS
    bench = WorkloadBench(name, scale=scale,
                          max_instructions=max_instructions)
    results: Dict[str, float] = {}
    for column in columns:
        if column == "Disabled":
            results[column] = bench.overhead("Bitmap", enabled=False)
        else:
            results[column] = bench.overhead(column, enabled=True)
    return results


def measure_table1(scale: float = 1.0,
                   workloads: Optional[List[str]] = None,
                   max_instructions: int = 400_000_000
                   ) -> Dict[str, Dict[str, float]]:
    workloads = workloads or WORKLOAD_ORDER
    return {name: measure_workload(name, scale,
                                   max_instructions=max_instructions)
            for name in workloads}


def summarize(results: Dict[str, Dict[str, float]]
              ) -> Dict[str, Dict[str, float]]:
    """C / FORTRAN / overall averages, as in the bottom of Table 1."""
    summary = {}
    for group, names in (("C", C_WORKLOADS), ("F", F_WORKLOADS),
                         ("overall", list(results))):
        rows = [results[n] for n in names if n in results]
        if not rows:
            continue
        summary[group] = {col: average([r[col] for r in rows])
                          for col in rows[0]}
    return summary


def _cell(value: float) -> str:
    """One 14-wide table cell; truncated measurements get a ``*``."""
    if truncated(value):
        return "%12.1f%%*" % value
    return "%13.1f%%" % value


def format_table(results: Dict[str, Dict[str, float]],
                 with_paper: bool = True) -> str:
    columns = TABLE1_COLUMNS
    lines = header_lines(columns, 14) + ["-" * (18 + 14 * len(columns))]
    any_truncated = False
    for name in results:
        lang = WORKLOADS[name].lang
        row = ["(%s) %-14s" % (lang, name)]
        row += [_cell(results[name][c]) for c in columns]
        any_truncated = any_truncated or \
            any(truncated(results[name][c]) for c in columns)
        lines.append("".join(row))
    lines.append("-" * (18 + 14 * len(columns)))
    for group, row in summarize(results).items():
        label = {"C": "C AVERAGE", "F": "FORTRAN AVERAGE",
                 "overall": "OVERALL AVERAGE"}[group]
        cells = ["%-18s" % label]
        cells += [_cell(row[c]) for c in columns]
        lines.append("".join(cells))
        if with_paper and group in TABLE1_AVERAGES:
            cells = ["%-18s" % ("  (paper)")]
            cells += ["%13.1f%%" % TABLE1_AVERAGES[group][c]
                      for c in columns]
            lines.append("".join(cells))
    if any_truncated:
        lines.append("* = run truncated by a watchdog budget; "
                     "overhead covers only the executed prefix")
    return "\n".join(lines)


def main(scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    results = measure_table1(scale)
    print("Table 1: monitored region service overhead "
          "(measured, scale=%.2g)" % scale)
    print(format_table(results))
    if scale == 1.0:
        print("\nPer-program paper values (for shape comparison):")
        for name in results:
            paper = TABLE1.get(name)
            if paper:
                print("  %-15s paper Bitmap=%6.1f%%  Cache=%6.1f%%  "
                      "measured Bitmap=%6.1f%%  Cache=%6.1f%%"
                      % (name, paper["Bitmap"], paper["Cache"],
                         results[name]["Bitmap"], results[name]["Cache"]))
    return results
