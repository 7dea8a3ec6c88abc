"""Optimizer driver: assembly statements -> OptimizationPlan (§4).

Modes:

* ``"sym"``  — symbol-table pattern matching only (Table 2's "Sym"):
  known writes run unchecked (re-inserted by ``PreMonitor``), at the
  cost of %fp-definition and indirect-jump verification;
* ``"full"`` — symbol matching plus loop optimization (Table 2's
  "Full"): loop-invariant check motion and monotonic range checks;
* ``"ipa"``  — everything "full" does, then the interprocedural
  points-to/range pass of :mod:`repro.analysis` eliminates stores
  whose addresses provably stay within named static data even when
  they flow through callees.

The plan is consumed by :class:`repro.instrument.rewriter.Rewriter`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.asm.ast import Statement
from repro.asm.parser import parse
from repro.core.layout import DEFAULT_LAYOUT, MonitorLayout
from repro.errors import OptimizeModeError
from repro.faults import FaultPlan
from repro.instrument.plan import ELIM_SYMBOL, OptimizationPlan
from repro.instrument.rewriter import _find_lang
from repro.instrument.writes import enumerate_write_sites
from repro.ir.build import apply_promotion, build_ir
from repro.ir.loops import find_loops
from repro.ir.ssa import convert_to_ssa
from repro.optimizer.asserts import insert_asserts
from repro.optimizer.loopopt import LoopOptimizer
from repro.optimizer.symbols import collect_static_symbols

#: every mode build_plan accepts, in increasing aggressiveness
VALID_MODES = ("sym", "full", "ipa")


def build_plan(statements_or_source, mode: str = "full",
               layout: Optional[MonitorLayout] = None,
               guard_aliases: bool = False,
               guard_overflow: bool = False,
               faults: Optional[FaultPlan] = None
               ) -> Tuple[List[Statement], OptimizationPlan]:
    """Analyze a program and build its optimization plan.

    Returns ``(statements, plan)`` — the statements must be passed on to
    the rewriter unchanged (write-site numbering is shared through
    them).  ``faults`` exposes the ``analysis.unsound`` injection point
    of the ipa pass to the soundness-auditor tests.
    """
    if mode not in VALID_MODES:
        raise OptimizeModeError("unknown optimization mode",
                                mode=mode, valid=VALID_MODES)
    if isinstance(statements_or_source, str):
        statements = parse(statements_or_source)
    else:
        statements = statements_or_source
    layout = layout if layout is not None else DEFAULT_LAYOUT
    lang = _find_lang(statements)

    enumerate_write_sites(statements, lang)  # stamps stmt.site
    symbols = collect_static_symbols(statements)
    funcs, escaped_labels = build_ir(statements, symbols)

    plan = OptimizationPlan()
    plan.reset_stats()
    plan.reserved_registers = 4 if mode == "sym" else 5

    # -- §4.2 symbol-table pattern matching ------------------------------
    sym_stats = plan.stats_for("symbol")
    for func in funcs:
        for access in func.accesses:
            if access.kind != "st":
                continue
            site = access.op.site
            if site is None:
                continue
            sym_stats.seen += 1
            if not access.covering:
                continue
            plan.merge_site(site, ELIM_SYMBOL,
                            why="symbol: stabs match %s"
                            % ", ".join(sorted(
                                entry.name
                                for entry in access.covering)))
            sym_stats.eliminated += 1
            for entry in access.covering:
                key = (entry.func or "", entry.name)
                sites = plan.symbol_sites.setdefault(key, [])
                if site not in sites:
                    sites.append(site)

    # the supporting obligations: verify %fp definitions and indirect
    # jumps so the control-flow assumptions of the analysis hold
    for func in funcs:
        if func.save_stmt_index >= 0:
            plan.fp_push_indices.append(func.save_stmt_index)
        for ret_index in func.ret_stmt_indices:
            plan.fp_check_indices.append(ret_index)
            plan.jmp_check_indices.append(ret_index)

    # -- §4.3/§4.4 loop optimization ---------------------------------------
    ssa_infos = []
    if mode in ("full", "ipa"):
        plan.promoted = apply_promotion(funcs, escaped_labels)
        loop_stats = plan.stats_for("loop")
        loop_stats.seen = sym_stats.seen - sym_stats.eliminated
        next_loop_id = 0
        for func in funcs:
            insert_asserts(func)
            ssa = convert_to_ssa(func)
            if not ssa.order:
                continue
            ssa_infos.append(ssa)
            loops = find_loops(func, ssa.order)
            optimizer = LoopOptimizer(func, ssa, layout, plan,
                                      statements, next_loop_id,
                                      guard_aliases, guard_overflow)
            next_loop_id = optimizer.optimize(loops)
        for loop_id, sites in plan.loop_sites.items():
            for site in sites:
                loop_stats.eliminated += 1
                loop_stats.guarded += 1
                plan.why_eliminated.setdefault(
                    site, "loop %d: %s check hoisted to pre-header "
                    "guard" % (loop_id, plan.eliminate.get(site, "?")))

    # -- interprocedural elimination (repro.analysis) ----------------------
    if mode == "ipa":
        from repro.analysis import run_ipa_pass
        run_ipa_pass(statements, funcs, ssa_infos, symbols, plan,
                     faults=faults)

    return statements, plan
