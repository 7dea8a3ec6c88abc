"""Self-test of the benchmark.

(a) The gate can fail: one process runs two traced ``time-travel``
    passes with one seed.  In the second, the tracer's ``compile_block``
    wrapper sleeps ``DELAY_S`` before every block compile.  Both passes
    pay the same tracing cost, so what differs is the delay.  The
    delayed pass's ``reverse_ms.p50`` must be worse than the other's by
    more than the metric's bound in BENCHMARK.json, and
    ``sim_overhead_pct`` must be exactly equal (simulated cycles do not
    see host time).
(b) Seeds matter: two seeds draw different table program sets and
    different session orders.

Usage: ``python3 perfbench/selftest.py``.  Exits 0 when both checks
hold.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: the seed of check (a), and the first of the two seeds of check (b)
SEED = 1
#: seconds the delayed pass sleeps before every block compile
DELAY_S = 0.0005


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def traced_pass(delay: float) -> dict:
    """One traced ``time-travel`` pass, in a scratch directory of its
    own so that its trace store starts empty."""
    import inputs
    import run
    import tracer as tracing

    args = argparse.Namespace(workload="time-travel", seed=SEED,
                              seconds=benchmark()["run_seconds"])
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-",
                               dir=os.path.join(ROOT, ".perfbench"))
    try:
        result = run.run_pass(args, inputs.draw(SEED), 0.0, scratch,
                              tracer=tracing.Tracer(compile_delay=delay))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if result["mismatches"]:
        raise SystemExit("oracle mismatch: %s" % result["mismatches"][:3])
    return result["metrics"]


def gate() -> bool:
    bound = {metric["name"]: metric["bound"]
             for metric in benchmark()["end_to_end"]}["reverse_ms.p50"]
    plain = traced_pass(0.0)
    slowed = traced_pass(DELAY_S)
    worse = slowed["reverse_ms.p50"] / plain["reverse_ms.p50"] - 1.0
    print("(a) reverse_ms.p50 %.2f ms -> %.2f ms with %.2f ms per block "
          "compile: %+.0f%% against a bound of %.0f%%: gate %s"
          % (plain["reverse_ms.p50"], slowed["reverse_ms.p50"],
             1e3 * DELAY_S, 100 * worse, 100 * bound,
             "FAILS as it should" if worse > bound else "does not fail"))
    same = plain["sim_overhead_pct"] == slowed["sim_overhead_pct"]
    print("    sim_overhead_pct %r -> %r: %s"
          % (plain["sim_overhead_pct"], slowed["sim_overhead_pct"],
             "unchanged" if same else "CHANGED"))
    return worse > bound and same


def seeds(first: int, second: int) -> bool:
    import inputs

    one, two = inputs.draw(first), inputs.draw(second)
    sets = sorted(name for name, _ in one.tables), \
        sorted(name for name, _ in two.tables)

    def order(drawn):
        return [plan.program for plan in
                itertools.islice(inputs.session_order(drawn), 10)]

    orders = order(one), order(two)
    print("(b) seed %d: tables %s, sessions %s"
          % (first, sets[0], orders[0]))
    print("    seed %d: tables %s, sessions %s"
          % (second, sets[1], orders[1]))
    return sets[0] != sets[1] and orders[0] != orders[1]


def main() -> int:
    import speed
    speed.pin_to_one_cpu()
    import repro.session  # noqa: F401  (import order, see tracer.py)
    ok = seeds(SEED, SEED + 1)
    ok = gate() and ok
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
