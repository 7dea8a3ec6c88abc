"""Flow-insensitive Andersen-style points-to analysis over SSA TAC.

Abstract objects ("atoms") are coarse on purpose — one per data label,
one per stack frame, a single sbrk arena, and an unknown top element:

* ``("label", L)`` — the static data storage behind label ``L``
* ``("frame", f)`` — function ``f``'s stack frame
* ``("heap",)``    — everything returned by the ``sbrk`` trap
* ``("unknown",)`` — top: may be any address

Every SSA variable, callee parameter, function return and per-object
memory summary cell holds a *set* of atoms; scalars hold the empty set.
The solver is a chaotic iteration to a global fixpoint: the lattice is
finite (atoms are bounded by labels + functions + 2) and every transfer
joins monotonically, so it terminates.  Interprocedural flow uses the
call graph: argument atoms join into callee parameter cells
(``%i0``–``%i5`` read as undefined SSA vars inside the callee),
``%o0`` after a call reads the callee's return cell, and promoted
global pseudo-variables communicate through their memory cell at every
call boundary (calls redefine promoted globals in the IR, so the SSA
def-use chains already route cross-call reads through here).

Stores through an unresolvable pointer poison every object cell — the
classic Andersen treatment of ``*top = v``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.callgraph import (TRAP_SBRK, CallGraph, callee_name,
                                      trap_code)
from repro.ir.tac import Const, IrOp, SsaVar, SymAddr
from repro.isa.registers import FP, SP

if TYPE_CHECKING:  # annotation-only; avoids an import cycle (ir.build
    # pulls in the whole optimizer package at import time)
    from repro.ir.build import FuncIr  # noqa: F401
    from repro.ir.ssa import SsaInfo  # noqa: F401

HEAP = ("heap",)
UNKNOWN = ("unknown",)

_EMPTY: frozenset = frozenset()
_TOP = frozenset([UNKNOWN])

#: %i0..%i5 — callee-side incoming argument registers
_IN_REG_BASE = 24
#: %o0 — caller-side return value register
_O0 = ("r", 8)
_RET_REG = ("r", _IN_REG_BASE)

#: alu ops through which a pointer keeps its object identity
_PTR_PRESERVING = ("add", "sub", "or")

#: rounds over every function before :meth:`PointsTo.run` gives up
MAX_ITERATIONS = 64


def is_label(atom) -> bool:
    return atom[0] == "label"


def is_frame(atom) -> bool:
    return atom[0] == "frame"


def _label(name: str):
    return ("label", name)


def _frame(func: str):
    return ("frame", func)


def _is_pseudo(name) -> bool:
    return isinstance(name, tuple) and name and name[0] == "v"


class PointsTo:
    """See the module docstring.  Usage::

        pt = PointsTo(statements, funcs, graph, ssa_infos)
        pt.run()
        atoms = pt.store_atoms(st_op)   # frozenset of atoms
    """

    def __init__(self, statements, funcs: List[FuncIr],
                 graph: CallGraph, ssa_infos: List[SsaInfo]):
        self.statements = statements
        self.funcs = funcs
        self.graph = graph
        self.ssa_by_func: Dict[str, SsaInfo] = {
            info.func.name: info for info in ssa_infos}
        #: SSA variable (by identity) -> atom set
        self.var: Dict[SsaVar, frozenset] = {}
        #: (callee, arg index) -> join of argument atoms over call sites
        self.par: Dict[Tuple[str, int], frozenset] = {}
        #: function name -> join of returned atoms
        self.ret: Dict[str, frozenset] = {}
        #: object / pseudo-variable summary cell -> contained atoms
        self.mem: Dict[Tuple, frozenset] = {}
        #: atoms stored through unresolvable pointers (joins every read)
        self.anywhere: frozenset = _EMPTY
        self._changed = False

    # -- lattice helpers ---------------------------------------------------

    def _join_var(self, var: SsaVar, atoms: frozenset) -> None:
        old = self.var.get(var, _EMPTY)
        new = old | atoms
        if new != old:
            self.var[var] = new
            self._changed = True

    def _join_map(self, table: Dict, key, atoms: frozenset) -> None:
        old = table.get(key, _EMPTY)
        new = old | atoms
        if new != old:
            table[key] = new
            self._changed = True

    def _read_mem(self, key) -> frozenset:
        return self.mem.get(key, _EMPTY) | self.anywhere

    # -- value evaluation --------------------------------------------------

    def atoms_of(self, value, func: Optional[str] = None) -> frozenset:
        if isinstance(value, Const):
            return _EMPTY
        if isinstance(value, SymAddr):
            if value.name.startswith("\x00"):
                return _TOP
            return frozenset([_label(value.name)])
        if isinstance(value, SsaVar):
            if value.def_op is None:
                return self._undefined_atoms(value, func)
            return self.var.get(value, _EMPTY)
        if isinstance(value, tuple):
            # un-renamed variable name; only possible pre-SSA
            return _TOP
        return _TOP

    def _undefined_atoms(self, var: SsaVar,
                         func: Optional[str]) -> frozenset:
        name = var.name
        if _is_pseudo(name):
            return self._read_mem(("pseudo", name))
        if isinstance(name, tuple) and len(name) == 2 and \
                name[0] == "r" and \
                _IN_REG_BASE <= name[1] < _IN_REG_BASE + 6 and \
                func is not None:
            return self.par.get((func, name[1] - _IN_REG_BASE), _EMPTY)
        # caller garbage in any other register (incl. %fp/%sp before
        # a save): could be anything
        return _TOP

    def _addr_atoms_raw(self, op: IrOp,
                        func: Optional[str]) -> frozenset:
        """Atoms of a ld/st address, empty when nothing is known *yet*.

        An empty result during iteration usually means the feeding
        cells are still at bottom; transfers must treat it as "no
        information", not "unknown address".
        """
        base, index, _disp = op.mem
        base_atoms = self.atoms_of(base, func)
        index_atoms = self.atoms_of(index, func) \
            if index is not None else _EMPTY
        if UNKNOWN in base_atoms or UNKNOWN in index_atoms:
            return _TOP
        if base_atoms and index_atoms:
            return _TOP  # pointer + pointer arithmetic
        return base_atoms | index_atoms

    def _addr_atoms(self, op: IrOp, func: Optional[str]) -> frozenset:
        """Post-fixpoint query: an address with no atoms is unknown
        (an integer treated as a pointer)."""
        atoms = self._addr_atoms_raw(op, func)
        return atoms if atoms else _TOP

    # -- transfer ----------------------------------------------------------

    def _transfer(self, func: FuncIr, info: SsaInfo, op: IrOp) -> None:
        kind = op.kind
        name = func.name
        if kind == "phi":
            joined = _EMPTY
            for use in op.uses:
                joined = joined | self.atoms_of(use, name)
            self._join_var(op.defs[0], joined)
        elif kind == "move":
            atoms = _TOP if op.op == "sethi_hi" \
                else self.atoms_of(op.uses[0], name)
            dest = op.defs[0]
            if isinstance(dest, SsaVar):
                self._join_var(dest, atoms)
                if _is_pseudo(dest.name):
                    self._join_map(self.mem, ("pseudo", dest.name),
                                   atoms)
        elif kind == "assert":
            for dest, use in zip(op.defs, op.uses):
                if isinstance(dest, SsaVar):
                    self._join_var(dest, self.atoms_of(use, name))
        elif kind == "alu":
            parts = [self.atoms_of(use, name) for use in op.uses]
            pointers = [p for p in parts if p]
            if not pointers:
                atoms = _EMPTY
            elif len(pointers) == 1 and op.op in _PTR_PRESERVING and \
                    UNKNOWN not in pointers[0]:
                atoms = pointers[0]
            else:
                atoms = _TOP
            for dest in op.defs:
                if isinstance(dest, SsaVar):
                    self._join_var(dest, atoms)
        elif kind == "ld":
            targets = self._addr_atoms_raw(op, name)
            if UNKNOWN in targets:
                atoms = _TOP
            else:
                atoms = _EMPTY
                for atom in targets:
                    atoms = atoms | self._read_mem(atom)
            for dest in op.defs:
                if isinstance(dest, SsaVar):
                    self._join_var(dest, atoms)
        elif kind == "st":
            targets = self._addr_atoms_raw(op, name)
            value = self.atoms_of(op.uses[-1], name)
            if UNKNOWN in targets:
                if value and not (value <= self.anywhere):
                    self.anywhere = self.anywhere | value
                    self._changed = True
            else:
                for atom in targets:
                    self._join_map(self.mem, atom, value)
        elif kind == "call":
            callee = callee_name(op, self.statements)
            for position in range(min(6, len(op.uses))):
                self._join_map(self.par, (callee, position),
                               self.atoms_of(op.uses[position], name))
            known = self.graph.is_defined(callee)
            for dest in op.defs:
                if not isinstance(dest, SsaVar):
                    continue
                if _is_pseudo(dest.name):
                    self._join_var(dest,
                                   self._read_mem(("pseudo",
                                                   dest.name)))
                elif dest.name == _O0:
                    self._join_var(dest,
                                   self.ret.get(callee, _EMPTY)
                                   if known else _TOP)
                elif dest.name == ("cc",):
                    pass
                else:
                    self._join_var(dest, _TOP)
        elif kind == "trap":
            code = trap_code(op, self.statements)
            atoms = frozenset([HEAP]) if code == TRAP_SBRK else _EMPTY
            for dest in op.defs:
                if isinstance(dest, SsaVar):
                    self._join_var(dest, atoms)
        elif kind == "save":
            for dest in op.defs:
                if isinstance(dest, SsaVar) and \
                        dest.name in (("r", SP), ("r", FP)):
                    self._join_var(dest, frozenset([_frame(name)]))
        elif kind == "restore":
            for dest in op.defs:
                if isinstance(dest, SsaVar):
                    self._join_var(dest, _TOP)
        elif kind == "ret":
            ret_var = info.exit_version.get((op.block.bid, _RET_REG)) \
                if op.block is not None else None
            if ret_var is not None:
                self._join_map(self.ret, name,
                               self.atoms_of(ret_var, name))
        else:
            # branch/jump/entry/...: no pointer effect
            for dest in op.defs:
                if isinstance(dest, SsaVar):
                    self._join_var(dest, _TOP)

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
        # did not converge (should be impossible: finite lattice,
        # monotone joins) — poison every cell rather than under-report
        self.anywhere = _TOP
        for key in list(self.mem):
            self.mem[key] = _TOP

    # -- queries -----------------------------------------------------------

    def store_atoms(self, op: IrOp) -> frozenset:
        """Atom set a store op's address may point into (post-run)."""
        return self._addr_atoms(op, self._owner_of(op))

    def _owner_of(self, op: IrOp) -> Optional[str]:
        for func in self.funcs:
            if func.start_index <= op.stmt_index < func.end_index:
                return func.name
        return None
