"""Bound propagation — the paper's Figure 4 algorithm (§4.3.2).

Every SSA variable used in the current loop is tagged with bounds
``(L, U)`` drawn from the ordered lattice

    C  >  LI  >  M  >  A  >  BOT          (paper: L_C > L_LI > L_M > L_A > ⊥)

* ``C``  — bound derived from constants only;
* ``LI`` — from loop invariants (or constants);
* ``M``  — from the variable's own monotonic extreme (needs a range
  check in the pre-header rather than a standard check);
* ``A``  — from an assert definition (§4.3.1);
* ``BOT`` — no known bound.

The algorithm is the fixed-point worklist of Figure 4: each defining
statement recomputes its destination's bounds from its operands, the
``max`` combiner keeps only improvements, and changed destinations put
their uses back on the worklist.

A write is *bounded* when both its bounds exceed BOT; §4.4 then picks
the optimization: ``l >= LI and u >= LI`` -> the address is loop
invariant (standard pre-header check); ``l == M and u >= A`` (or the
mirror) -> monotonic (pre-header range check).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.build import Block
from repro.ir.loops import Loop
from repro.ir.tac import Const, IrOp, SsaVar, SymAddr
from repro.optimizer.affine import (MonotonicVar, fold_constant,
                                    is_invariant)

BOT, A, M, LI, C = 0, 1, 2, 3, 4
CLASS_NAMES = {BOT: "bot", A: "A", M: "M", LI: "LI", C: "C"}

Bounds = Tuple[int, int]


class BoundTable:
    """Per-loop bounds for SSA variables (values default per §4.3.2)."""

    def __init__(self, loop: Loop, monotonic: Dict[int, MonotonicVar]):
        self.loop = loop
        self.monotonic = monotonic
        self._table: Dict[int, Bounds] = {}

    def initial(self, value) -> Bounds:
        if isinstance(value, (Const, SymAddr)):
            return (C, C)
        if not isinstance(value, SsaVar):
            return (BOT, BOT)
        mono = self.monotonic.get(id(value))
        if mono is not None:
            return (M, BOT) if mono.direction == "inc" else (BOT, M)
        if is_invariant(value, self.loop):
            return (LI, LI)
        return (BOT, BOT)

    def get(self, value) -> Bounds:
        if isinstance(value, SsaVar):
            found = self._table.get(id(value))
            if found is not None:
                return found
        return self.initial(value)

    def raise_to(self, var: SsaVar, bounds: Bounds) -> bool:
        old = self.get(var)
        new = (max(old[0], bounds[0]), max(old[1], bounds[1]))
        if new != old:
            self._table[id(var)] = new
            return True
        return False


def _value_class(table: BoundTable, value) -> int:
    """How good is *value itself* as a bound expression?"""
    if isinstance(value, (Const,)):
        return C
    if isinstance(value, SymAddr):
        return C
    if isinstance(value, SsaVar):
        if fold_constant(value) is not None:
            return C
        if is_invariant(value, table.loop):
            return LI
    return BOT


def _transfer(op: IrOp, table: BoundTable) -> List[Tuple[SsaVar, Bounds]]:
    """Bounds computed for *op*'s destinations from its operands."""
    results: List[Tuple[SsaVar, Bounds]] = []
    if op.kind == "move":
        dest = op.defs[0]
        if isinstance(dest, SsaVar):
            results.append((dest, table.get(op.uses[0])))
        return results
    if op.kind == "phi":
        dest = op.defs[0]
        if isinstance(dest, SsaVar) and id(dest) not in table.monotonic:
            lowers = [table.get(use)[0] for use in op.uses]
            uppers = [table.get(use)[1] for use in op.uses]
            results.append((dest, (min(lowers), min(uppers))))
        return results
    if op.kind == "assert":
        left, right = op.mem
        relation = op.relation
        for dest in op.defs:
            if not isinstance(dest, SsaVar):
                continue
            position = op.defs.index(dest)
            source = op.uses[position]
            lower, upper = table.get(source)
            this_is_left = _same(source, left)
            other = right if this_is_left else left
            other_class = max(_value_class(table, other),
                              min(A, table.get(other)[0]),
                              min(A, table.get(other)[1]))
            refinement = min(A, other_class)
            if relation == "eq":
                lower = max(lower, refinement)
                upper = max(upper, refinement)
            elif this_is_left:
                if relation in ("lt", "le"):
                    upper = max(upper, refinement)
                elif relation in ("gt", "ge"):
                    lower = max(lower, refinement)
            else:
                if relation in ("lt", "le"):
                    lower = max(lower, refinement)
                elif relation in ("gt", "ge"):
                    upper = max(upper, refinement)
            results.append((dest, (lower, upper)))
        return results
    if op.kind == "alu":
        dest = next((d for d in op.defs
                     if isinstance(d, SsaVar) and d.name != ("cc",)),
                    None)
        if dest is None:
            return results
        left, right = op.uses
        l1, u1 = table.get(left)
        l2, u2 = table.get(right)
        if op.op in ("add", "sll", "smul"):
            # the paper's "simple conjunction rule"
            results.append((dest, (min(l1, l2), min(u1, u2))))
        elif op.op == "sub":
            # upper bound of a-b needs a's upper and b's lower
            results.append((dest, (min(l1, u2), min(u1, l2))))
        else:
            results.append((dest, (BOT, BOT)))
        return results
    if op.kind == "ld":
        dest = op.defs[0]
        if isinstance(dest, SsaVar):
            parts = [p for p in (op.mem[0], op.mem[1]) if p is not None]
            if all(is_invariant(p, table.loop) or
                   not isinstance(p, SsaVar) for p in parts):
                results.append((dest, (LI, LI)))
        return results
    return results


def _same(value, other) -> bool:
    return value is other


def propagate_bounds(loop: Loop, blocks: List[Block],
                     monotonic: Dict[int, MonotonicVar]) -> BoundTable:
    """Run Figure 4 to a fixed point over the ops of *loop*."""
    table = BoundTable(loop, monotonic)

    ops: List[IrOp] = []
    uses_of: Dict[int, List[IrOp]] = {}
    for block in blocks:
        if block.bid not in loop.body:
            continue
        for op in block.all_ops():
            ops.append(op)
    for op in ops:
        for use in op.uses:
            if isinstance(use, SsaVar):
                uses_of.setdefault(id(use), []).append(op)

    work = list(ops)
    in_work = {id(op) for op in work}
    iterations = 0
    while work:
        iterations += 1
        if iterations > 100000:
            break  # safety net; the lattice is finite so this never fires
        op = work.pop()
        in_work.discard(id(op))
        for dest, bounds in _transfer(op, table):
            if table.raise_to(dest, bounds):
                for user in uses_of.get(id(dest), ()):
                    if id(user) not in in_work:
                        work.append(user)
                        in_work.add(id(user))
    return table


def classify_address(table: BoundTable, parts: List) -> Optional[str]:
    """§4.4: decide the optimization for a write whose address is the
    sum of *parts* (base, optional index, constant displacement)."""
    lower = upper = C
    for part in parts:
        if part is None:
            continue
        part_lower, part_upper = table.get(part)
        lower = min(lower, part_lower)
        upper = min(upper, part_upper)
    if lower >= LI and upper >= LI:
        return "li"
    if (lower == M and upper >= A) or (upper == M and lower >= A):
        return "range"
    return None
