"""Experiment E4/E5: reproduce Table 2 — write-check elimination.

For each workload we report, as percentages of dynamic write checks:

* checks **eliminated** by symbol matching / loop-invariant motion /
  monotonic range conversion (and their total);
* pre-header checks **generated** (LI and range), per §4.6.1;
* the runtime **overhead** of the ``Full`` (symbol + loop) and ``Sym``
  (symbol only) configurations, per §4.6.2 — both include the
  supporting %fp-definition and indirect-jump verification costs.

Run as ``python -m repro table2 [--scale S]``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.eval.overhead import WorkloadBench, average, header_lines
from repro.eval.paper_data import TABLE2_AVERAGES
from repro.instrument.plan import (ELIM_LOOP_INVARIANT, ELIM_RANGE,
                                   ELIM_SYMBOL)
from repro.optimizer.pipeline import build_plan
from repro.workloads import C_WORKLOADS, F_WORKLOADS, WORKLOAD_ORDER, \
    WORKLOADS

#: strategy used for the remaining (uneliminated) checks; the paper's
#: recommended implementation (§5)
CHECK_STRATEGY = "BitmapInlineRegisters"

COLUMNS = ["sym", "li", "range", "total", "gen_li", "gen_range", "full",
           "sym_overhead"]


def measure_workload(name: str, scale: float = 1.0) -> Dict[str, float]:
    bench = WorkloadBench(name, scale=scale)
    base = bench.baseline()

    # Full plan, writes recorded: recording costs no simulated cycles,
    # so this one run both counts the writes and measures the overhead
    _stmts, full_plan = build_plan(bench.asm, mode="full")
    counted = bench.run_instrumented(CHECK_STRATEGY, enabled=True,
                                     plan=full_plan, record_writes=True)
    trace = counted.session.cpu.write_trace
    total_writes = len(trace)
    by_site = Counter(site for site, _addr, _width in trace
                      if site is not None)
    eliminated = Counter()
    for site, count in by_site.items():
        kind = full_plan.eliminate.get(site)
        if kind is not None:
            eliminated[kind] += count

    def pct(value: float) -> float:
        return 100.0 * value / total_writes if total_writes else 0.0

    result = {
        "sym": pct(eliminated[ELIM_SYMBOL]),
        "li": pct(eliminated[ELIM_LOOP_INVARIANT]),
        "range": pct(eliminated[ELIM_RANGE]),
        "gen_li": pct(counted.tag_counts.get("phead_li", 0)),
        "gen_range": pct(counted.tag_counts.get("phead_range", 0)),
    }
    result["total"] = result["sym"] + result["li"] + result["range"]
    result["full"] = 100.0 * (counted.cycles / base.cycles - 1.0)

    _stmts, sym_plan = build_plan(bench.asm, mode="sym")
    sym_run = bench.run_instrumented(CHECK_STRATEGY, enabled=True,
                                     plan=sym_plan)
    result["sym_overhead"] = 100.0 * (sym_run.cycles / base.cycles - 1.0)
    return result


def measure_table2(scale: float = 1.0,
                   workloads: Optional[List[str]] = None
                   ) -> Dict[str, Dict[str, float]]:
    workloads = workloads or WORKLOAD_ORDER
    return {name: measure_workload(name, scale) for name in workloads}


def summarize(results: Dict[str, Dict[str, float]]
              ) -> Dict[str, Dict[str, float]]:
    summary = {}
    for group, names in (("C", C_WORKLOADS), ("F", F_WORKLOADS),
                         ("overall", list(results))):
        rows = [results[n] for n in names if n in results]
        if rows:
            summary[group] = {col: average([r[col] for r in rows])
                              for col in COLUMNS}
    return summary


def format_table(results: Dict[str, Dict[str, float]],
                 with_paper: bool = True) -> str:
    rule = "-" * (18 + 11 * len(COLUMNS))
    lines = header_lines(COLUMNS, 11) + [rule]
    for name, row in results.items():
        lang = WORKLOADS[name].lang
        cells = "(%s) %-14s" % (lang, name)
        cells += "".join("%10.1f%%" % row[c] for c in COLUMNS)
        lines.append(cells)
    lines.append(rule)
    labels = {"C": "C AVERAGE", "F": "FORTRAN AVERAGE",
              "overall": "OVERALL AVERAGE"}
    for group, row in summarize(results).items():
        cells = "%-18s" % labels[group]
        cells += "".join("%10.1f%%" % row[c] for c in COLUMNS)
        lines.append(cells)
        if with_paper and group in TABLE2_AVERAGES:
            cells = "%-18s" % "  (paper)"
            cells += "".join("%10.1f%%" % TABLE2_AVERAGES[group][c]
                             for c in COLUMNS)
            lines.append(cells)
    return "\n".join(lines)


def main(scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    results = measure_table2(scale)
    print("Table 2: write-check elimination (measured, scale=%.2g)"
          % scale)
    print(format_table(results))
    return results
