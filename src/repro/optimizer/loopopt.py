"""Loop-based write-check elimination (§4.3-§4.4).

For each natural loop (inner to outer) and each still-checked write in
it, the optimizer asks Figure 4 (:mod:`repro.optimizer.bounds`) for the
address's bound classes:

* loop-invariant address -> eliminate the in-loop check and emit a
  standard write check in the pre-header;
* monotonic address -> eliminate the check and emit a *range check* in
  the pre-header against the superpage count table (§4.3's "efficient
  data structure ... at most three memory accesses").

If a pre-header check succeeds at runtime it traps to the MRS
(``ta 0x45`` with the loop id in ``%g6``), which re-inserts the
eliminated checks via their Kessler patches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.layout import MonitorLayout
from repro.instrument.plan import (ELIM_LOOP_INVARIANT, ELIM_RANGE,
                                   OptimizationPlan, PreheaderCheck)
from repro.ir.build import FuncIr
from repro.ir.cfg import dominates
from repro.ir.loops import Loop, preheader_anchor
from repro.ir.ssa import SsaInfo
from repro.ir.tac import Const, IrOp, SsaVar, SymAddr, walk_to_def
from repro.optimizer.affine import (Affine, ExprGen, ExprGenError,
                                    MonotonicVar, decompose_affine,
                                    find_monotonic_vars, is_invariant,
                                    resolve_monotonic)
from repro.optimizer.bounds import classify_address, propagate_bounds

TRAP_PREHEADER_HIT = 0x45


class LoopOptimizer:
    """Optimizes the loops of one function."""

    def __init__(self, func: FuncIr, ssa: SsaInfo,
                 layout: MonitorLayout, plan: OptimizationPlan,
                 statements, next_loop_id: int,
                 guard_aliases: bool = False,
                 guard_overflow: bool = False):
        self.func = func
        self.ssa = ssa
        self.layout = layout
        self.plan = plan
        self.statements = statements
        self.next_loop_id = next_loop_id
        #: §4.5 alias safety: refuse an optimization whose pre-header
        #: code re-reads memory that a store in the loop might alias.
        #: The paper's measured configuration ran without this ("does
        #: not check for ... aliases"); enabling it trades eliminated
        #: checks for static soundness against in-loop bound mutation.
        self.guard_aliases = guard_aliases
        #: §4.5.1 overflow safety: reject range checks whose statically
        #: evaluable bounds leave the 32-bit address space.
        self.guard_overflow = guard_overflow
        self._label_counter = 0

    # -- driver --------------------------------------------------------------

    def optimize(self, loops: List[Loop]) -> int:
        """Process loops inner-to-outer; returns the next free loop id."""
        for loop in loops:
            self._optimize_loop(loop)
        return self.next_loop_id

    def _optimize_loop(self, loop: Loop) -> None:
        anchor = preheader_anchor(self.func, loop, self.statements)
        if anchor is None:
            return
        preheader_block = self._entry_pred(loop)
        if preheader_block is None:
            return
        monotonic = find_monotonic_vars(loop)
        table = propagate_bounds(loop, self.ssa.order, monotonic)
        has_unknown_store = self._loop_has_unknown_store(loop)
        loop_id = None
        li_lines: List[str] = []
        range_lines: List[str] = []
        eliminated: List[int] = []

        for op in self._loop_stores(loop):
            if op.site is None or op.site in self.plan.eliminate:
                continue
            base, index, disp = op.mem
            kind = classify_address(table, [base, index,
                                            Const(disp) if disp else None])
            if kind is None:
                continue
            if loop_id is None:
                loop_id = self.next_loop_id
            if kind == "li":
                result = self._gen_li_check(op, preheader_block, loop_id)
            else:
                result = self._gen_range_check(op, loop, monotonic,
                                               preheader_block, loop_id)
            if result is None:
                continue
            lines, alias_slots = result
            if self.guard_aliases and alias_slots and has_unknown_store:
                # §4.5: a store in the loop may alias the memory the
                # pre-header re-reads; keep the in-loop check
                continue
            if kind == "li":
                li_lines.extend(lines)
                self.plan.merge_site(op.site, ELIM_LOOP_INVARIANT)
            else:
                range_lines.extend(lines)
                self.plan.merge_site(op.site, ELIM_RANGE)
            eliminated.append(op.site)

        if not eliminated:
            return
        self.next_loop_id = loop_id + 1
        self.plan.loop_sites[loop_id] = eliminated
        if li_lines:
            self.plan.preheaders.append(
                PreheaderCheck(loop_id, "li", anchor,
                               self._guarded(li_lines, "li")))
        if range_lines:
            self.plan.preheaders.append(
                PreheaderCheck(loop_id, "range", anchor,
                               self._guarded(range_lines, "range")))

    # -- helpers ---------------------------------------------------------------

    def _entry_pred(self, loop: Loop):
        entries = [p for p in loop.header.preds
                   if p.bid not in loop.body]
        if len(entries) != 1:
            return None
        return entries[0]

    def _loop_stores(self, loop: Loop) -> List[IrOp]:
        stores = []
        for block in self.ssa.order:
            if block.bid not in loop.body:
                continue
            for op in block.ops:
                if op.kind == "st":
                    stores.append(op)
        return stores

    def _label(self, hint: str) -> str:
        self._label_counter += 1
        return ".Lph_%s_%d_%d" % (hint, self.next_loop_id,
                                  self._label_counter)

    def _guarded(self, body: List[str], kind: str) -> List[str]:
        """Wrap check lines with the disabled-flag branch; tag the first
        instruction distinctly so executions can be counted."""
        skip = self._label("skip" + kind)
        lines = ["tst %g2",
                 ".tag preheader",
                 "bne %s" % skip,
                 "nop"]
        lines += body
        lines.append("%s:" % skip)
        return lines

    # -- loop-invariant checks ----------------------------------------------------

    def _gen_li_check(self, op: IrOp, preheader_block,
                      loop_id: int):
        base, index, disp = op.mem
        gen = ExprGen(self.ssa, preheader_block, self.plan.promoted)
        try:
            gen.gen_value(base, "%g4")
            if index is not None:
                gen.gen_value(index, "%g6", avoid=frozenset({"%g4"}))
                gen.lines.append("add %g4, %g6, %g4")
            if disp:
                gen.lines.append("add %%g4, %d, %%g4" % disp)
        except ExprGenError:
            return None
        lines = gen.take_lines()
        ok = self._label("liok")
        mask = self.layout.segment_words - 1
        lines += [
            "srl %%g4, %d, %%g6" % self.layout.seg_shift,
            "sll %g6, 2, %g6",
            "ld [%g5+%g6], %g7",
            "tst %g7",
            "be %s" % ok,
            "nop",
            # full bitmap bit test (scratch %g6, %m0)
            "srl %g4, 2, %g6",
            "and %%g6, %d, %%g6" % mask,
            "srl %g6, 5, %m0",
            "sll %m0, 2, %m0",
            "ld [%g7+%m0], %g7",
            "and %g6, 31, %g6",
            "srl %g7, %g6, %g7",
            "andcc %g7, 1, %g0",
            "be %s" % ok,
            "nop",
            "mov %d, %%g6" % loop_id,
            "ta 0x%x" % TRAP_PREHEADER_HIT,
            "%s:" % ok,
        ]
        return lines, gen.alias_slots

    # -- range checks -----------------------------------------------------------

    def _gen_range_check(self, op: IrOp, loop: Loop,
                         monotonic: Dict[int, MonotonicVar],
                         preheader_block, loop_id: int):
        base, index, disp = op.mem
        affine = Affine()
        for part, sign in ((base, 1), (index, 1)):
            if part is None:
                continue
            partial = decompose_affine(part, loop, monotonic)
            if partial is None:
                return None
            affine.merge(partial, sign)
        affine.const += disp

        lo_subst: Dict[int, object] = {}
        hi_subst: Dict[int, object] = {}
        lo_adjust = hi_adjust = 0
        saw_monotonic = False
        for key, (atom, coef) in affine.terms.items():
            mono = resolve_monotonic(atom, monotonic) \
                if isinstance(atom, SsaVar) else None
            if mono is None:
                if isinstance(atom, SsaVar) and \
                        not is_invariant(atom, loop):
                    return None
                continue
            saw_monotonic = True
            if coef <= 0:
                return None  # negative scaling handled conservatively
            bound = self._assert_bound(op, loop, mono)
            if bound is None:
                return None
            bound_value, bound_adjust = bound
            if mono.direction == "inc":
                lo_subst[key] = mono.entry_value
                hi_subst[key] = bound_value
                hi_adjust += coef * bound_adjust
            else:
                hi_subst[key] = mono.entry_value
                lo_subst[key] = bound_value
                lo_adjust += coef * bound_adjust
        if not saw_monotonic:
            return None
        if self.guard_overflow and not self._bounds_fit(
                affine, lo_subst, hi_subst, lo_adjust, hi_adjust):
            return None

        gen = ExprGen(self.ssa, preheader_block, self.plan.promoted)
        try:
            lo_affine = _shifted(affine, lo_adjust)
            gen.gen_affine(lo_affine, "%g4", lo_subst)
            gen.regs = ("%g7", "%g6", "%m0")
            hi_affine = _shifted(affine, hi_adjust)
            saved = gen.lines
            gen.lines = []
            gen.gen_affine(hi_affine, "%g7", hi_subst)
            hi_lines = gen.lines
            gen.lines = saved + hi_lines
        except ExprGenError:
            return None
        lines = gen.take_lines()

        hit = self._label("rhit")
        ok = self._label("rok")
        lines += [
            "srl %%g4, %d, %%g4" % self.layout.superpage_shift,
            "srl %%g7, %d, %%g7" % self.layout.superpage_shift,
            "sub %g7, %g4, %g6",
            "cmp %g6, 1",
            "bgu %s" % hit,          # >2 superpages: conservative hit
            "nop",
            "set %d, %%g6" % self.layout.superpage_table_base,
            "sll %g4, 2, %g4",
            "ld [%g6+%g4], %g4",
            "tst %g4",
            "bne %s" % hit,
            "nop",
            "sll %g7, 2, %g7",
            "ld [%g6+%g7], %g7",
            "tst %g7",
            "be %s" % ok,
            "nop",
            "%s:" % hit,
            "mov %d, %%g6" % loop_id,
            "ta 0x%x" % TRAP_PREHEADER_HIT,
            "%s:" % ok,
        ]
        return lines, gen.alias_slots

    def _loop_has_unknown_store(self, loop: Loop) -> bool:
        """Is there a store in the loop whose target no analysis
        resolved (and which could therefore alias anything)?"""
        for op in self._loop_stores(loop):
            if op.site is not None and \
                    op.site not in self.plan.eliminate and \
                    op.site not in self._symbol_known_sites():
                return True
        return False

    def _symbol_known_sites(self):
        if not hasattr(self, "_known_cache"):
            known = set()
            for sites in self.plan.symbol_sites.values():
                known.update(sites)
            self._known_cache = known
        return self._known_cache

    def _bounds_fit(self, affine, lo_subst, hi_subst, lo_adjust,
                    hi_adjust) -> bool:
        """§4.5.1 overflow guard: when both bounds fold to integers,
        require them inside the 32-bit address space and ordered."""
        from repro.optimizer.affine import fold_constant
        from repro.ir.tac import SymAddr

        def static_value(substitution, adjust):
            total = affine.const + adjust
            for key, (atom, coef) in affine.terms.items():
                value = substitution.get(key, atom)
                if isinstance(value, SymAddr):
                    return None  # symbolic base: cannot overflow the
                                 # scaled index without folding
                folded = fold_constant(value) \
                    if not isinstance(value, int) else value
                if folded is None:
                    return None
                total += coef * folded
            return total

        lo = static_value(lo_subst, lo_adjust)
        hi = static_value(hi_subst, hi_adjust)
        if lo is None or hi is None:
            return True  # not statically evaluable: accept (paper mode)
        return -(1 << 31) <= lo <= hi < (1 << 32)

    def _usable_bound(self, value, loop: Loop) -> bool:
        """Can *value* serve as a pre-header-evaluable bound?

        Invariant values always can.  As in the paper's optimistic
        configuration, a value loaded from an invariant address inside
        the loop also can (re-reading it in the pre-header assumes the
        loop does not alias it — the §4.5 alias list records the slot).
        """
        if is_invariant(value, loop):
            return True
        base = walk_to_def(value)
        if not isinstance(base, SsaVar) or base.def_op is None:
            return False
        op = base.def_op
        if op.kind != "ld" or op.mem is None:
            return False
        parts = [p for p in (op.mem[0], op.mem[1]) if p is not None]
        return all(is_invariant(p, loop) for p in parts)

    def _assert_bound(self, store: IrOp, loop: Loop,
                      mono: MonotonicVar) -> Optional[Tuple[object, int]]:
        """Find an assert bounding *mono* on the side its direction
        needs, valid at *store*.  Returns (bound value, adjust) where
        adjust corrects strict comparisons (i < n  =>  i <= n-1)."""
        want = ("lt", "le") if mono.direction == "inc" else ("gt", "ge")
        phi_var = mono.phi.defs[0]
        best: Optional[Tuple[object, int]] = None
        for block in self.ssa.order:
            if block.bid not in loop.body:
                continue
            for op in block.ops:
                if op.kind != "assert" or op.mem is None:
                    continue
                left, right = op.mem
                relation = op.relation
                if isinstance(left, SsaVar) and \
                        walk_to_def(left) is phi_var:
                    this, other = left, right
                elif isinstance(right, SsaVar) and \
                        walk_to_def(right) is phi_var:
                    # mirror the relation: (a REL b) == (b REL' a)
                    relation = {"lt": "gt", "le": "ge", "gt": "lt",
                                "ge": "le", "eq": "eq",
                                "ne": "ne"}[relation]
                    this, other = right, left
                else:
                    continue
                if relation not in want:
                    continue
                if not self._usable_bound(other, loop):
                    continue
                if not dominates(block, store.block):
                    continue
                adjust = 0
                if relation == "lt":
                    adjust = -1
                elif relation == "gt":
                    adjust = 1
                best = (other, adjust)
                return best
        return best


def _shifted(affine: Affine, delta: int) -> Affine:
    clone = Affine()
    clone.terms = dict(affine.terms)
    clone.const = affine.const + delta
    return clone
