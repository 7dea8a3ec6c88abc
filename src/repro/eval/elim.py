"""Experiment: interprocedural analysis — checks eliminated per mode.

For every §6 workload we report the **"checks eliminated %"** column —
the percentage of *dynamic* write checks removed — under the three
elimination modes (``sym``, ``full``, ``ipa``), plus the static site
counts and the ``ipa`` pass statistics (sites seen / eliminated /
guarded, i.e. refused for soundness).  ``ipa`` must be at least as
strong as ``full`` everywhere and strictly stronger on some workloads;
the heap-heavy ones (gcc's sbrk-backed obstacks) are where it refuses —
the adversarial-aliasing showcase.

Run as ``python -m repro elim [--scale S]``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.eval.overhead import WorkloadBench
from repro.optimizer.pipeline import build_plan
from repro.workloads import WORKLOAD_ORDER, WORKLOADS

#: strategy used for the remaining (uneliminated) checks
CHECK_STRATEGY = "BitmapInlineRegisters"

MODES = ("sym", "full", "ipa")

COLUMNS = ["sym", "full", "ipa", "ipa_sites", "ipa_guarded"]


def measure_workload(name: str, scale: float = 1.0) -> Dict[str, float]:
    bench = WorkloadBench(name, scale=scale)

    # one counting run per workload: the dynamic write trace does not
    # depend on the plan (checks never change program semantics)
    _stmts, count_plan = build_plan(bench.asm, mode="sym")
    counted = bench.run_instrumented(CHECK_STRATEGY, enabled=True,
                                     plan=count_plan, record_writes=True)
    trace = counted.session.cpu.write_trace
    total = len(trace)
    by_site = Counter(site for site, _addr, _width in trace
                      if site is not None)

    result: Dict[str, float] = {}
    for mode in MODES:
        _stmts, plan = build_plan(bench.asm, mode=mode)
        dynamic = sum(count for site, count in by_site.items()
                      if site in plan.eliminate)
        result[mode] = 100.0 * dynamic / total if total else 0.0
        result[mode + "_static"] = len(plan.eliminate)
        if mode == "ipa":
            stats = plan.pass_stats.get("ipa")
            result["ipa_sites"] = stats.eliminated if stats else 0
            result["ipa_guarded"] = stats.guarded if stats else 0
    return result


def measure_analyze(scale: float = 1.0,
                    workloads: Optional[List[str]] = None
                    ) -> Dict[str, Dict[str, float]]:
    workloads = workloads or WORKLOAD_ORDER
    return {name: measure_workload(name, scale) for name in workloads}


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    header = ("%-18s" % "Program") \
        + "".join("%12s" % ("%s elim" % m) for m in MODES) \
        + "%11s%13s" % ("ipa sites", "ipa guarded")
    lines = [header, "-" * len(header)]
    for name, row in results.items():
        lang = WORKLOADS[name].lang
        cells = "(%s) %-14s" % (lang, name)
        cells += "".join("%11.1f%%" % row[m] for m in MODES)
        cells += "%11d%13d" % (row["ipa_sites"], row["ipa_guarded"])
        if row["ipa_static"] > row["full_static"]:
            cells += "   < ipa wins"
        lines.append(cells)
    return "\n".join(lines)


def main(scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    results = measure_analyze(scale)
    print("Interprocedural write-check elimination (measured, "
          "scale=%.2g)" % scale)
    print(format_table(results))
    wins = [name for name, row in results.items()
            if row["ipa_static"] > row["full_static"]]
    print("ipa eliminates strictly more checks than full on %d "
          "workload(s): %s" % (len(wins), ", ".join(wins) or "none"))
    return results
