"""Experiment E8: the §3.3.3 segment-caching break-even analysis.

"To address this issue, we compared the cycle counts for
BitmapInlineRegisters and Cache.  BitmapInlineRegisters executes 12
register instructions and 2 loads.  Cache executes 6 register
instructions and no loads if there is a segment cache hit, 13 register
instructions and 1 load if there is a cache miss, and 26 register
instructions and 2 loads if there is a full lookup.  Assuming that
loads take between 2-8 cycles, the break-even point for C programs
occurs when the percentage of write instructions requiring a full
lookup is 24.3-44.0%.  For FORTRAN programs, the break-even point is
16.4-36.7%."

We redo the analysis with *our* implementations' instruction counts
(derived from the generated check code) and measured cache-hit rates.

Run as ``python -m repro breakeven``.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: instruction counts of our generated code paths (checks enabled,
#: segment unmonitored), counted from repro.instrument.strategies:
#: common prefix (tst/bne/nop/addr) = 4 register instructions.
REGISTERS_REG_INSNS = 4 + 5        # + srl,sll,tst,be,nop
REGISTERS_LOADS = 1                # segment-table entry
REGISTERS_FULL_EXTRA_REG = 10      # full bit test registers
REGISTERS_FULL_EXTRA_LOADS = 1

CACHE_HIT_REG_INSNS = 4 + 4        # srl,cmp,be,nop
CACHE_MISS_EXTRA_REG = 2 + 12      # call,nop + miss routine registers
CACHE_MISS_EXTRA_LOADS = 1
CACHE_FULL_EXTRA_REG = 10
CACHE_FULL_EXTRA_LOADS = 1


def cost_registers(full_fraction: float, load_cost: float) -> float:
    base = REGISTERS_REG_INSNS + REGISTERS_LOADS * load_cost
    extra = full_fraction * (REGISTERS_FULL_EXTRA_REG
                             + REGISTERS_FULL_EXTRA_LOADS * load_cost)
    return base + extra


def cost_cache(full_fraction: float, miss_fraction: float,
               load_cost: float) -> float:
    """Expected cycles per check for the Cache strategy.

    ``miss_fraction`` — segment-cache misses that find an unmonitored
    segment (update the cache); ``full_fraction`` — checks that need
    the full bitmap lookup (monitored segment).
    """
    cost = CACHE_HIT_REG_INSNS
    cost += miss_fraction * (CACHE_MISS_EXTRA_REG
                             + CACHE_MISS_EXTRA_LOADS * load_cost)
    cost += full_fraction * (CACHE_MISS_EXTRA_REG + CACHE_FULL_EXTRA_REG
                             + (CACHE_MISS_EXTRA_LOADS
                                + CACHE_FULL_EXTRA_LOADS) * load_cost)
    return cost


def breakeven_full_fraction(miss_fraction: float,
                            load_cost: float) -> float:
    """Full-lookup fraction at which Cache stops beating Registers."""
    low, high = 0.0, 1.0
    for _ in range(60):
        mid = (low + high) / 2
        if cost_cache(mid, miss_fraction, load_cost) < \
                cost_registers(mid, load_cost):
            low = mid
        else:
            high = mid
    return (low + high) / 2


def compute_breakeven(miss_fraction_c: float = 0.05,
                      miss_fraction_f: float = 0.10
                      ) -> Dict[str, Tuple[float, float]]:
    """Break-even full-lookup percentages for load costs 2..8."""
    results = {}
    for label, miss in (("C", miss_fraction_c), ("F", miss_fraction_f)):
        fast = breakeven_full_fraction(miss, 2.0)
        slow = breakeven_full_fraction(miss, 8.0)
        results[label] = (100.0 * min(fast, slow),
                          100.0 * max(fast, slow))
    return results


def main() -> Dict[str, Tuple[float, float]]:
    results = compute_breakeven()
    print("Segment-caching break-even full-lookup rate "
          "(load cost swept 2..8 cycles)")
    print("  C programs:       %.1f%% .. %.1f%%   (paper: 24.3%% .. "
          "44.0%%)" % results["C"])
    print("  FORTRAN programs: %.1f%% .. %.1f%%   (paper: 16.4%% .. "
          "36.7%%)" % results["F"])
    print("Below the break-even rate, segment caching wins; above it, "
          "the extra cache-check instructions cancel its benefit "
          "(§3.3.3).")
    return results
