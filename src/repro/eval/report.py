"""Run the entire evaluation and write a markdown report.

``python -m repro.eval.report [scale] [output.md]`` regenerates every
table and figure (E1-E9) and writes a single self-contained report —
the artifact a reviewer would diff against EXPERIMENTS.md.

:func:`measure` runs the experiments and returns their results as
plain data; :func:`render` turns those results into the report.
``tests/test_eval_harness.py`` checks the paper's shapes on one
:func:`measure` call.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List


def measure(scale: float = 0.5) -> Dict[str, Any]:
    """Every experiment of the report at *scale*, keyed by section."""
    from repro.eval import (ablations, baselines, breakeven, figure3,
                            nop_experiment, space, table1, table2)

    start = time.time()
    results: Dict[str, Any] = {
        "scale": scale,
        "table1": table1.measure_table1(scale),
        "table2": table2.measure_table2(scale),
        "figure3": figure3.measure_figure3(scale),
        "nop": nop_experiment.measure_sigma(scale),
        "trap_factor": baselines.measure_trap_factor(),
        "hashtable": baselines.measure_hashtable_overheads(scale),
        "hardware_limit": baselines.demonstrate_hardware_limit(),
        "vmprotect": baselines.measure_vmprotect(scale),
        "space": {name: space.measure_workload(name, scale)
                  for name in ("022.li", "030.matrix300")},
        "breakeven": breakeven.compute_breakeven(),
        "cache_size": ablations.sweep_cache_size(scale=scale),
        "loop_safety": ablations.sweep_loop_safety(scale=scale),
    }
    results["seconds"] = time.time() - start
    return results


def render(results: Dict[str, Any]) -> str:
    """The markdown report for the output of :func:`measure`."""
    from repro.eval.figure3 import format_series
    from repro.eval.nop_experiment import format_table as format_nop
    from repro.eval.table1 import format_table as format_t1
    from repro.eval.table2 import format_table as format_t2

    scale = results["scale"]
    sections: List[str] = []
    sections.append("# Practical Data Breakpoints — evaluation report")
    sections.append("Workload scale: %.2g.  Regenerate: "
                    "`python -m repro.eval.report %.2g`." % (scale, scale))

    sections.append("## E1 — Table 1: write-check overhead\n```")
    sections.append(format_t1(results["table1"]))
    sections.append("```")

    sections.append("## E4/E5 — Table 2: write-check elimination\n```")
    sections.append(format_t2(results["table2"]))
    sections.append("```")

    sections.append("## E3 — Figure 3: segment cache locality\n```")
    sections.append(format_series(results["figure3"]))
    sections.append("```")

    sections.append("## E2 — nop-insertion σ (8 KB cache)\n```")
    sections.append(format_nop(results["nop"]))
    sections.append("```")

    sections.append("## E6 — baselines\n```")
    sections.append("dbx trap factor: %.0fx" % results["trap_factor"])
    hashes = results["hashtable"]
    sections.append("hash-table checks: %.0f%% .. %.0f%%"
                    % (min(hashes.values()), max(hashes.values())))
    sections.append(results["hardware_limit"])
    vm = results["vmprotect"]
    sections.append("VAX DEBUG model: %.0f%% overhead, %d false faults"
                    % (vm["overhead"], vm["false_faults"]))
    sections.append("```")

    sections.append("## E7 — bitmap space\n```")
    for name, row in results["space"].items():
        sections.append("%-16s %.2f%%" % (name, 100 * row["fraction"]))
    sections.append("```")

    sections.append("## E8 — break-even\n```")
    ranges = results["breakeven"]
    sections.append("C: %.1f%%..%.1f%%   F: %.1f%%..%.1f%%"
                    % (*ranges["C"], *ranges["F"]))
    sections.append("```")

    sections.append("## E9 — ablations\n```")
    sections.append("cache size (gcc, Bitmap): " + ", ".join(
        "%dKB=%.0f%%" % (k // 1024, v)
        for k, v in results["cache_size"].items()))
    for label, row in results["loop_safety"].items():
        sections.append("%-18s %s" % (label, row))
    sections.append("```")

    sections.append("_Generated in %.0f seconds._" % results["seconds"])
    return "\n\n".join(sections) + "\n"


def generate(scale: float = 0.5) -> str:
    return render(measure(scale))


def main(scale: float = 0.5, path: str = "evaluation_report.md") -> str:
    report = generate(scale)
    with open(path, "w") as handle:
        handle.write(report)
    print("wrote %s (%d bytes)" % (path, len(report)))
    return report


if __name__ == "__main__":
    scale_arg = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    path_arg = sys.argv[2] if len(sys.argv) > 2 else "evaluation_report.md"
    main(scale_arg, path_arg)
