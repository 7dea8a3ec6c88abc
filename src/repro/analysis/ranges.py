"""Interprocedural value-range analysis with an affine extension.

Abstract values form a small lattice:

* ``BOT``                      — unvisited (identity for joins)
* ``("int", lo, hi)``          — an integer in ``[lo, hi]``; ``None``
                                 bounds mean ±infinity
* ``("sym", L, lo, hi)``       — the address of data label ``L`` plus a
                                 byte offset in ``[lo, hi]`` (the affine
                                 extension: "label + interval")
* ``TOP`` (``None``)           — unknown

The solver mirrors :class:`repro.analysis.pointsto.PointsTo`: chaotic
iteration over every function's SSA ops with interprocedural parameter,
return and promoted-global cells.  Because the interval lattice has
infinite ascending chains, joins widen a bound to infinity once a cell
has grown a few times — the classic interval widening, which is what
turns ``hp = 0; hp = hp + 2`` loops into ``[0, +inf)`` instead of
iterating forever.

Arithmetic is evaluated mathematically (no 32-bit wrap); see the
package docstring for the memory/overflow model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.callgraph import CallGraph, callee_name
from repro.ir.tac import Const, IrOp, SsaVar, SymAddr

if TYPE_CHECKING:  # annotation-only; avoids an import cycle (ir.build
    # pulls in the whole optimizer package at import time)
    from repro.ir.build import FuncIr  # noqa: F401
    from repro.ir.ssa import SsaInfo  # noqa: F401

BOT = ("bot",)
TOP = None

#: joins before a growing bound is widened to infinity
_WIDEN_AFTER = 3
#: rounds over every function before :meth:`RangeAnalysis.run` gives up
MAX_ITERATIONS = 64


def _as_signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def interval(lo: Optional[int], hi: Optional[int]):
    return ("int", lo, hi)


def _add_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


def _lo_min(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return min(a, b)


def _hi_max(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return max(a, b)


def join(a, b, widen: bool = False):
    """Least upper bound; with ``widen``, growing bounds go to ±inf."""
    if a == BOT:
        return b
    if b == BOT:
        return a
    if a is TOP or b is TOP:
        return TOP
    if a[0] != b[0] or (a[0] == "sym" and a[1] != b[1]):
        return TOP
    lo = _lo_min(a[-2], b[-2])
    hi = _hi_max(a[-1], b[-1])
    if widen:
        if lo is not None and a[-2] is not None and lo < a[-2]:
            lo = None
        if hi is not None and a[-1] is not None and hi > a[-1]:
            hi = None
    if a[0] == "sym":
        return ("sym", a[1], lo, hi)
    return ("int", lo, hi)


def add(a, b):
    if a == BOT or b == BOT:
        return BOT
    if a is TOP or b is TOP:
        return TOP
    if a[0] == "sym" and b[0] == "sym":
        return TOP
    if a[0] == "sym" or b[0] == "sym":
        sym, other = (a, b) if a[0] == "sym" else (b, a)
        return ("sym", sym[1], _add_bound(sym[2], other[1]),
                _add_bound(sym[3], other[2]))
    return ("int", _add_bound(a[1], b[1]), _add_bound(a[2], b[2]))


def negate(a):
    if a == BOT:
        return BOT
    if a is TOP or a[0] == "sym":
        return TOP
    return ("int", None if a[2] is None else -a[2],
            None if a[1] is None else -a[1])


def sub(a, b):
    if a == BOT or b == BOT:
        return BOT
    if a is TOP or b is TOP:
        return TOP
    if a[0] == "sym" and b[0] == "sym":
        if a[1] == b[1]:
            return ("int",
                    None if a[2] is None or b[3] is None
                    else a[2] - b[3],
                    None if a[3] is None or b[2] is None
                    else a[3] - b[2])
        return TOP
    if b[0] == "sym":
        return TOP
    if a[0] == "sym":
        return ("sym", a[1],
                None if a[2] is None or b[2] is None else a[2] - b[2],
                None if a[3] is None or b[1] is None else a[3] - b[1])
    return add(a, negate(b))


def _nonneg(a) -> bool:
    return a not in (BOT, TOP) and a[0] == "int" and \
        a[1] is not None and a[1] >= 0


class RangeAnalysis:
    """See the module docstring."""

    def __init__(self, statements, funcs: List[FuncIr],
                 graph: CallGraph, ssa_infos: List[SsaInfo]):
        self.statements = statements
        self.funcs = funcs
        self.graph = graph
        self.ssa_by_func: Dict[str, SsaInfo] = {
            info.func.name: info for info in ssa_infos}
        self.var: Dict[SsaVar, object] = {}
        self.par: Dict[Tuple[str, int], object] = {}
        self.mem: Dict[Tuple, object] = {}
        self._joins: Dict = {}
        self._changed = False

    # -- lattice plumbing --------------------------------------------------

    def _update(self, table: Dict, key, value) -> None:
        old = table.get(key, BOT)
        count = self._joins.get(key, 0)
        new = join(old, value, widen=count >= _WIDEN_AFTER)
        if new != old:
            self._joins[key] = count + 1
            table[key] = new
            self._changed = True

    # -- evaluation --------------------------------------------------------

    def value_of(self, value, func: Optional[str] = None):
        if isinstance(value, Const):
            signed = _as_signed(value.value)
            return ("int", signed, signed)
        if isinstance(value, SymAddr):
            if value.name.startswith("\x00"):
                return TOP
            return ("sym", value.name, value.addend, value.addend)
        if isinstance(value, SsaVar):
            if value.def_op is None:
                return self._undefined_value(value, func)
            return self.var.get(value, BOT)
        return TOP

    def _undefined_value(self, var: SsaVar, func: Optional[str]):
        name = var.name
        if isinstance(name, tuple) and name and name[0] == "v":
            return self.mem.get(("pseudo", name), BOT)
        if isinstance(name, tuple) and len(name) == 2 and \
                name[0] == "r" and 24 <= name[1] < 30 and \
                func is not None:
            return self.par.get((func, name[1] - 24), BOT)
        return TOP

    def _alu(self, op: IrOp, func: str):
        a = self.value_of(op.uses[0], func)
        b = self.value_of(op.uses[1], func) if len(op.uses) > 1 else TOP
        if a == BOT or b == BOT:
            return BOT  # an operand is unvisited; retry next iteration
        kind = op.op
        if kind == "add":
            return add(a, b)
        if kind == "sub":
            return sub(a, b)
        if kind == "or":
            if a == ("int", 0, 0):
                return b
            if b == ("int", 0, 0):
                return a
            if _nonneg(a) and _nonneg(b):
                return ("int", 0, None)
            return TOP
        if kind == "and":
            for operand in (a, b):
                if operand not in (BOT, TOP) and \
                        operand[0] == "int" and \
                        operand[1] is not None and \
                        operand[1] == operand[2] and operand[1] >= 0:
                    return ("int", 0, operand[1])
            return TOP
        if kind in ("sll", "srl", "sra"):
            if b in (BOT, TOP) or b[0] != "int" or b[1] != b[2] or \
                    b[1] is None or not 0 <= b[1] < 32:
                return TOP
            shift = b[1]
            if a in (BOT, TOP) or a[0] != "int":
                return ("int", 0, None) if kind == "srl" else TOP
            lo, hi = a[1], a[2]
            if kind == "sll":
                if lo is None or lo < 0:
                    return TOP
                new_hi = None if hi is None else hi << shift
                if new_hi is not None and new_hi >= 2 ** 31:
                    new_hi = None
                return ("int", lo << shift, new_hi)
            if kind == "srl":
                if lo is not None and lo >= 0:
                    return ("int", lo >> shift,
                            None if hi is None else hi >> shift)
                return ("int", 0, None)
            # sra on a known-nonnegative value is a division
            if lo is not None and lo >= 0:
                return ("int", lo >> shift,
                        None if hi is None else hi >> shift)
            return TOP
        if kind == "smul":
            if _nonneg(a) and _nonneg(b):
                if a[2] is not None and b[2] is not None and \
                        a[2] * b[2] < 2 ** 31:
                    return ("int", a[1] * b[1], a[2] * b[2])
                return ("int", 0, None)
            return TOP
        if kind == "sdiv":
            if _nonneg(a) and b not in (BOT, TOP) and b[0] == "int" \
                    and b[1] is not None and b[1] > 0:
                return ("int", 0,
                        None if a[2] is None or b[1] is None
                        else a[2] // b[1])
            return TOP
        return TOP

    # -- transfer ----------------------------------------------------------

    def _transfer(self, func: FuncIr, info: SsaInfo, op: IrOp) -> None:
        kind = op.kind
        name = func.name
        if kind == "phi":
            value = BOT
            for use in op.uses:
                value = join(value, self.value_of(use, name))
            self._update(self.var, op.defs[0], value)
        elif kind == "move":
            value = TOP if op.op == "sethi_hi" \
                else self.value_of(op.uses[0], name)
            dest = op.defs[0]
            if isinstance(dest, SsaVar):
                self._update(self.var, dest, value)
                if isinstance(dest.name, tuple) and dest.name and \
                        dest.name[0] == "v":
                    self._update(self.mem, ("pseudo", dest.name),
                                 value)
        elif kind == "assert":
            for dest, use in zip(op.defs, op.uses):
                if isinstance(dest, SsaVar):
                    self._update(self.var, dest,
                                 self.value_of(use, name))
        elif kind == "alu":
            value = self._alu(op, name)
            for dest in op.defs:
                if isinstance(dest, SsaVar) and dest.name != ("cc",):
                    self._update(self.var, dest, value)
        elif kind == "call":
            callee = callee_name(op, self.statements)
            for position in range(min(6, len(op.uses))):
                self._update(self.par, (callee, position),
                             self.value_of(op.uses[position], name))
            for dest in op.defs:
                if not isinstance(dest, SsaVar):
                    continue
                if isinstance(dest.name, tuple) and dest.name and \
                        dest.name[0] == "v":
                    self._update(self.var, dest,
                                 self.mem.get(("pseudo", dest.name),
                                              BOT))
                elif dest.name == ("r", 8) and \
                        self.graph.is_defined(callee):
                    self._update(self.var, dest,
                                 self.mem.get(("ret", callee), BOT))
                else:
                    self._update(self.var, dest, TOP)
        elif kind == "ret":
            ret_var = info.exit_version.get((op.block.bid, ("r", 24))) \
                if op.block is not None else None
            if ret_var is not None:
                self._update(self.mem, ("ret", name),
                             self.value_of(ret_var, name))
        else:
            # ld/trap/save/restore/branch/...: defs unknown
            for dest in op.defs:
                if isinstance(dest, SsaVar):
                    self._update(self.var, dest, TOP)

    # -- driver ------------------------------------------------------------

    def run(self) -> None:
        for _ in range(MAX_ITERATIONS):
            self._changed = False
            for func in self.funcs:
                info = self.ssa_by_func.get(func.name)
                if info is None:
                    continue
                for block in info.order:
                    for op in block.phis:
                        self._transfer(func, info, op)
                    for op in block.ops:
                        self._transfer(func, info, op)
            if not self._changed:
                return
        for key in list(self.var):
            self.var[key] = TOP

    # -- queries -----------------------------------------------------------

    def store_offset(self, op: IrOp):
        """Abstract address of a ld/st: ``("sym", L, lo, hi)`` if the
        analysis proves the address is label L plus a bounded (or
        half-bounded) byte offset; TOP otherwise."""
        owner = None
        for func in self.funcs:
            if func.start_index <= op.stmt_index < func.end_index:
                owner = func.name
                break
        base, index, disp = op.mem
        address = self.value_of(base, owner)
        if index is not None:
            address = add(address, self.value_of(index, owner))
        if disp:
            address = add(address, ("int", disp, disp))
        if address == BOT:
            return TOP
        return address
