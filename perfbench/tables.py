"""The paper's experiment: Table 1 columns and the Table 2 ``Full`` plan.

Each drawn program gets its baseline, the six Table 1 configurations
(MRS enabled, no regions) and the ``Full`` plan under
BitmapInlineRegisters, all through ``repro.eval.overhead.WorkloadBench``.
No region is monitored, so every check misses: instrumented execution
does the work and the server, replay and store layers are bypassed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import repro.optimizer.pipeline as pipeline
from repro.eval.overhead import WorkloadBench
from repro.eval.paper_data import TABLE1, TABLE1_AVERAGES

from inputs import CONFIGS

#: simulated-clock tags.  Pre-header check code is reported as one
#: ``phead`` tag; ``preheader`` and ``miss_entry`` tag the first
#: instruction of a pre-header check and of the segment-cache miss
#: handler only so their executions can be counted, and fold into
#: ``phead`` and ``lib``.
TAGS = ("orig", "lib", "check", "fpcheck", "jmpcheck", "phead", "patch")
_FOLD = {"phead_li": "phead", "phead_range": "phead", "preheader": "phead",
         "miss_entry": "lib"}


class Cell:
    __slots__ = ("program", "config", "overhead", "tags")

    def __init__(self, program: str, config: str, overhead: float,
                 tags: Dict[str, float]):
        self.program = program
        self.config = config
        self.overhead = overhead  #: percent over baseline cycles
        self.tags = tags          #: tag -> cycles as percent of baseline


def _tag_shares(tag_cycles: Dict[str, int], base_cycles: int
                ) -> Dict[str, float]:
    shares = dict.fromkeys(TAGS, 0.0)
    for tag, cycles in tag_cycles.items():
        key = _FOLD.get(tag, tag)
        if key not in shares:
            raise RuntimeError("unknown simulated-cycle tag %r" % tag)
        shares[key] += 100.0 * cycles / base_cycles
    return shares


def _run(bench: WorkloadBench, config: str):
    if config == "Disabled":
        return bench.run_instrumented("Bitmap", enabled=False)
    if config == "Full":
        _stmts, plan = pipeline.build_plan(bench.asm, mode="full")
        return bench.run_instrumented("BitmapInlineRegisters", enabled=True,
                                      plan=plan)
    return bench.run_instrumented(config, enabled=True)


def cells_of(programs: List[Tuple[str, float]]
             ) -> List[Tuple[str, float, str]]:
    """Every (program, scale, config) cell of *programs*, program by
    program, in the order :meth:`Sweep.run` must produce them."""
    return [(name, scale, config) for name, scale in programs
            for config in CONFIGS]


class Sweep:
    """The drawn cells, produced a slice at a time.

    A program's bench and baseline run are made at its first cell and
    dropped after its last, so a slice may end inside a program.

    Oracle: each instrumented run's output equals its baseline output
    and takes zero monitor hits.
    """

    def __init__(self):
        #: host time spent producing cells, per slice
        self.seconds: List[float] = []
        self.cells: List[Cell] = []
        self.mismatches: List[str] = []
        self._open: Dict[str, tuple] = {}   #: program -> (bench, baseline)

    def run(self, cells: List[Tuple[str, float, str]]) -> None:
        begin = time.perf_counter()
        for name, scale, config in cells:
            if name not in self._open:
                bench = WorkloadBench(name, scale=scale)
                self._open[name] = (bench, bench.baseline())
            bench, base = self._open[name]
            result = _run(bench, config)
            if result.output != base.output or result.hits != 0 \
                    or result.truncated:
                self.mismatches.append(
                    "%s/%s: output %s baseline, %d hits"
                    % (name, config, "==" if result.output == base.output
                       else "!=", result.hits))
            self.cells.append(Cell(
                name, config, 100.0 * (result.cycles / base.cycles - 1.0),
                _tag_shares(result.tag_cycles, base.cycles)))
            if config == CONFIGS[-1]:
                del self._open[name]
        self.seconds.append(time.perf_counter() - begin)


def overhead_pct(cells: List[Cell]) -> float:
    """Mean simulated-cycle overhead over the drawn cells."""
    return sum(cell.overhead for cell in cells) / len(cells)


def tag_metrics(cells: List[Cell]) -> Dict[str, float]:
    """``sim.<config>.<tag>_pct``: mean over programs per config."""
    out: Dict[str, float] = {}
    for config in CONFIGS:
        rows = [cell for cell in cells if cell.config == config]
        for tag in TAGS:
            out["sim.%s.%s_pct" % (config, tag)] = \
                sum(cell.tags[tag] for cell in rows) / len(rows)
    return out


def render(cells: List[Cell]) -> List[str]:
    """Each cell as stacked per-tag components of its simulated cycles,
    then the column averages beside the paper's."""
    lines = ["simulated cycles per cell, as % of the baseline run:"]
    for cell in cells:
        parts = " + ".join("%s %.1f" % (tag, cell.tags[tag])
                           for tag in TAGS if cell.tags[tag])
        lines.append("  %-14s %-22s %s = %.1f%% (overhead %.1f%%)"
                     % (cell.program, cell.config, parts,
                        100.0 + cell.overhead, cell.overhead))
    lines.append("column averages over the drawn programs "
                 "(paper: all ten programs):")
    for config in CONFIGS:
        rows = [cell for cell in cells if cell.config == config]
        mean = sum(cell.overhead for cell in rows) / len(rows)
        extra = {tag: sum(cell.tags[tag] for cell in rows) / len(rows)
                 for tag in TAGS if tag not in ("orig", "lib")}
        paper = TABLE1_AVERAGES["overall"].get(config)
        lines.append("  %-22s %6.1f%%  paper %s  check-code cycles: %s"
                     % (config, mean,
                        "%5.1f%%" % paper if paper is not None else "  n/a ",
                        ", ".join("%s %.1f" % item for item in extra.items()
                                  if item[1])))
    by_cell = {(cell.program, cell.config): cell for cell in cells}
    if ("020.nasker", "Bitmap") in by_cell:
        bitmap = by_cell[("020.nasker", "Bitmap")]
        inline = by_cell[("020.nasker", "BitmapInline")]
        lines.append("  020.nasker Bitmap %.1f%% vs BitmapInline %.1f%% "
                     "(paper %.1f%% vs %.1f%%); check cycles %.1f vs %.1f"
                     % (bitmap.overhead, inline.overhead,
                        TABLE1["020.nasker"]["Bitmap"],
                        TABLE1["020.nasker"]["BitmapInline"],
                        bitmap.tags["check"], inline.tags["check"]))
    return lines
