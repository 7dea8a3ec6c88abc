"""Ablation studies for the reproduction's design choices.

Three knobs DESIGN.md calls out, each swept here:

* **cache size** — the §3.3.1 cache effects depend on how much of the
  instrumented program fits in the direct-mapped cache;
* **window-trap bulk** — procedure-call checks push a register window;
  whether steady-depth call chains thrash the window file depends on
  how many windows the overflow trap moves at once;
* **loop-optimization safety** — the paper measured the optimistic
  configuration (no alias/overflow guards, §4.6.2); `guard_aliases`
  trades eliminated checks for static soundness.

Run as ``python -m repro ablations [--scale S]``.
"""

from __future__ import annotations

from typing import Dict

from repro.optimizer.pipeline import build_plan

CACHE_SIZES = [16 * 1024, 64 * 1024, 256 * 1024]
BULKS = [1, 4]


def sweep_cache_size(workload: str = "001.gcc1.35",
                     scale: float = 0.5) -> Dict[int, float]:
    """Bitmap overhead vs cache size: smaller caches amplify the code
    growth that checks cause (§3.3.1)."""
    from repro.minic.codegen import compile_source
    from repro.session import DebugSession, run_uninstrumented
    from repro.workloads import WORKLOADS, workload_source

    spec = WORKLOADS[workload]
    asm = compile_source(workload_source(workload, scale), lang=spec.lang)
    results = {}
    for size in CACHE_SIZES:
        _code, base = run_uninstrumented(asm, cache_bytes=size)
        session = DebugSession.from_asm(asm, strategy="Bitmap",
                                        cache_bytes=size)
        session.mrs.enable()
        session.run()
        results[size] = 100.0 * (session.cpu.cycles /
                                 base.cpu.cycles - 1.0)
    return results


#: deep steady recursion with per-call stores — the worst case for
#: procedure-call checks pushing a register window at full depth
_DEEP_RECURSION = """
int depths[40];
int walk(int d, int acc) {
    int local;
    local = acc + d;
    depths[d % 40] = local;
    if (d == 0) return local;
    return walk(d - 1, local % 10007);
}
int main() {
    register int round;
    int total;
    total = 0;
    for (round = 0; round < 120; round = round + 1) {
        total = (total + walk(30, round)) % 100003;
    }
    print(total);
    return 0;
}
"""


def sweep_window_bulk() -> Dict[int, float]:
    """Bitmap overhead with single-window vs bulk spill traps.

    Procedure-call checks at steady deep recursion trap on *every*
    save/restore pair when the overflow handler moves one window, and
    only on depth changes when it moves several.
    """
    import repro.isa.registers as registers
    from repro.minic.codegen import compile_source
    from repro.session import DebugSession, run_uninstrumented

    asm = compile_source(_DEEP_RECURSION)
    results = {}
    original = registers.WINDOW_TRAP_BULK
    try:
        for bulk in BULKS:
            registers.WINDOW_TRAP_BULK = bulk
            _code, base = run_uninstrumented(asm)
            session = DebugSession.from_asm(asm, strategy="Bitmap")
            session.mrs.enable()
            session.run()
            results[bulk] = {
                "baseline_cycles": base.cpu.cycles,
                "checked_cycles": session.cpu.cycles,
                "overhead_pct": 100.0 * (session.cpu.cycles /
                                         base.cpu.cycles - 1.0),
            }
    finally:
        registers.WINDOW_TRAP_BULK = original
    return results


def sweep_loop_safety(workload: str = "030.matrix300",
                      scale: float = 0.5) -> Dict[str, Dict[str, float]]:
    """Elimination under optimistic vs alias-guarded loop optimization."""
    from repro.minic.codegen import compile_source
    from repro.workloads import WORKLOADS, workload_source

    spec = WORKLOADS[workload]
    asm = compile_source(workload_source(workload, scale), lang=spec.lang)
    results = {}
    for label, kwargs in (
            ("optimistic", {}),
            ("alias-guarded", {"guard_aliases": True}),
            ("overflow-guarded", {"guard_overflow": True})):
        _stmts, plan = build_plan(asm, mode="full", **kwargs)
        summary = plan.summary()
        summary["preheaders"] = len(plan.preheaders)
        results[label] = summary
    return results


def main(scale: float = 0.5) -> Dict[str, object]:
    results: Dict[str, object] = {}

    cache = sweep_cache_size(scale=scale)
    results["cache_size"] = cache
    print("Bitmap overhead on 001.gcc1.35 vs cache size:")
    for size, overhead in cache.items():
        print("  %4d KB: %6.1f%%" % (size // 1024, overhead))

    bulk = sweep_window_bulk()
    results["window_bulk"] = bulk
    print("Deep recursion vs window-trap bulk (note: single-window "
          "traps slow the *baseline* too, shrinking relative overhead):")
    for count, row in bulk.items():
        print("  spill %d/trap: base %8d cy, checked %8d cy, "
              "overhead %6.1f%%" % (count, row["baseline_cycles"],
                                    row["checked_cycles"],
                                    row["overhead_pct"]))

    safety = sweep_loop_safety(scale=scale)
    results["loop_safety"] = safety
    print("matrix300 static eliminations per loop-safety mode:")
    for label, row in safety.items():
        print("  %-18s %s" % (label, row))
    return results
