"""Two-pass assembler: symbolic statements -> decoded program.

Pass 1 lays out text and data, assigning addresses to labels.  Pass 2
builds :class:`~repro.isa.instructions.Instruction` objects, resolving
symbol references (branch/call targets, ``%hi``/``%lo`` relocations,
``.word`` initializers) against the label map.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.asm.ast import (ALU_MNEMONICS, AsmInsn, AsmSyntaxError,
                           BRANCH_MNEMONICS, Directive, Imm, Label,
                           LOAD_WIDTHS, Mem, Reg, Statement, STORE_WIDTHS,
                           Sym)
from repro.asm.parser import parse
from repro.asm.symtab import SymbolTable, SymEntry
from repro.isa import instructions as I

DEFAULT_TEXT_BASE = 0x00010000
# data starts a quarter of the way into the 64 KB direct-mapped
# cache index space so text/data/heap/stack do not all collide at
# index 0 (real OSes achieve the same via page coloring)
DEFAULT_DATA_BASE = 0x10004000


class FunctionInfo:
    """Extent of one function in the instruction stream."""

    __slots__ = ("name", "start_index", "end_index", "address")

    def __init__(self, name: str, start_index: int):
        self.name = name
        self.start_index = start_index
        self.end_index = start_index
        self.address = 0

    def __repr__(self) -> str:
        return "<func %s [%d:%d] @0x%x>" % (
            self.name, self.start_index, self.end_index, self.address)


class Program:
    """Assembled program, ready for :mod:`repro.asm.loader`."""

    def __init__(self, text_base: int, data_base: int):
        self.text_base = text_base
        self.data_base = data_base
        self.insns: List[I.Instruction] = []
        #: source statement giving rise to each instruction (for reporting)
        self.insn_stmts: List[AsmInsn] = []
        self.labels: Dict[str, int] = {}
        #: data image: list of (word address, value)
        self.data_words: List[Tuple[int, int]] = []
        self.data_end = data_base
        self.symtab = SymbolTable()
        self.functions: List[FunctionInfo] = []
        self.lang = "C"

    def function_named(self, name: str) -> FunctionInfo:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError("no function %r" % name)

    def data_size(self) -> int:
        return self.data_end - self.data_base

    def text_size(self) -> int:
        return 4 * len(self.insns)


class Assembler:
    """See :func:`assemble`."""

    def __init__(self, text_base: int = DEFAULT_TEXT_BASE,
                 data_base: int = DEFAULT_DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    def assemble(self, statements: List[Statement]) -> Program:
        program = Program(self.text_base, self.data_base)
        text_stmts: List[AsmInsn] = []
        self._layout(statements, program, text_stmts)
        self._encode(text_stmts, program)
        self._resolve_stabs(program)
        return program

    # -- pass 1: layout ----------------------------------------------------

    def _layout(self, statements: List[Statement], program: Program,
                text_stmts: List[AsmInsn]) -> None:
        section = "text"
        data_cursor = self.data_base
        pending_data: List[Tuple[int, Union[int, Sym]]] = []
        current_func: Optional[FunctionInfo] = None
        stab_directives: List[Tuple[Directive, Optional[str]]] = []

        for stmt in statements:
            if isinstance(stmt, Label):
                if section == "text":
                    program.labels[stmt.name] = \
                        self.text_base + 4 * len(text_stmts)
                else:
                    program.labels[stmt.name] = data_cursor
                continue
            if isinstance(stmt, Directive):
                name = stmt.name
                if name in ("text", "data", "bss"):
                    section = "text" if name == "text" else "data"
                elif name == "global":
                    pass
                elif name == "lang":
                    program.lang = str(stmt.args[0]) if stmt.args else "C"
                elif name == "proc":
                    func_name = self._str_arg(stmt, 0)
                    current_func = FunctionInfo(func_name, len(text_stmts))
                    program.functions.append(current_func)
                elif name == "endproc":
                    if current_func is not None:
                        current_func.end_index = len(text_stmts)
                        current_func = None
                elif name == "word":
                    for arg in stmt.args:
                        if isinstance(arg, (int, Sym)):
                            pending_data.append((data_cursor, arg))
                        else:
                            raise AsmSyntaxError(
                                "bad .word arg %r" % (arg,), stmt.line_no)
                        data_cursor += 4
                elif name == "skip":
                    data_cursor += int(stmt.args[0])
                    data_cursor = (data_cursor + 3) & ~3
                elif name == "align":
                    align = int(stmt.args[0])
                    data_cursor = (data_cursor + align - 1) & ~(align - 1)
                elif name == "stabs":
                    stab_directives.append(
                        (stmt, current_func.name if current_func else None))
                else:
                    raise AsmSyntaxError("unknown directive .%s" % name,
                                         stmt.line_no)
                continue
            if isinstance(stmt, AsmInsn):
                if section != "text":
                    raise AsmSyntaxError("instruction in data section",
                                         stmt.line_no)
                text_stmts.append(stmt)
                continue
            raise AsmSyntaxError("unexpected statement %r" % (stmt,))

        for func in program.functions:
            if func.end_index <= func.start_index:
                func.end_index = len(text_stmts)
            func.address = self.text_base + 4 * func.start_index

        program.data_end = (data_cursor + 3) & ~3
        for addr, value in pending_data:
            if isinstance(value, Sym):
                resolved = self._symbol_value(value, program)
            else:
                resolved = value & 0xFFFFFFFF
            program.data_words.append((addr, resolved))
        self._stab_directives = stab_directives

    @staticmethod
    def _str_arg(stmt: Directive, index: int) -> str:
        arg = stmt.args[index]
        if isinstance(arg, Sym):
            return arg.name
        return str(arg)

    # -- symbol resolution ---------------------------------------------------

    @staticmethod
    def _symbol_value(sym: Sym, program: Program) -> int:
        if sym.name == "":
            value = sym.addend & 0xFFFFFFFF
        else:
            if sym.name not in program.labels:
                raise AsmSyntaxError("undefined symbol %r" % sym.name)
            value = (program.labels[sym.name] + sym.addend) & 0xFFFFFFFF
        if sym.part == "hi":
            return value >> 10
        if sym.part == "lo":
            return value & 0x3FF
        return value

    def _operand2(self, op, program: Program) -> I.Operand2:
        if isinstance(op, Reg):
            return I.Operand2.reg(op.rid)
        if isinstance(op, Imm):
            return I.Operand2.imm(op.value)
        if isinstance(op, Sym):
            value = self._symbol_value(op, program)
            if op.part != "lo":
                raise AsmSyntaxError(
                    "absolute symbol %r in ALU operand (use %%lo)" % op.name)
            return I.Operand2.imm(value)
        raise AsmSyntaxError("bad second operand %r" % (op,))

    # -- pass 2: encoding ---------------------------------------------------

    def _encode(self, text_stmts: List[AsmInsn], program: Program) -> None:
        for stmt in text_stmts:
            insn = self._encode_one(stmt, program)
            insn.tag = stmt.tag
            insn.site = stmt.site
            program.insns.append(insn)
            program.insn_stmts.append(stmt)

    def _encode_one(self, stmt: AsmInsn, program: Program) -> I.Instruction:
        m = stmt.mnemonic
        ops = stmt.ops
        try:
            if m == "nop":
                return I.NopInsn()
            if m in ALU_MNEMONICS or (m.endswith("cc")
                                      and m[:-2] in ALU_MNEMONICS):
                set_cc = m.endswith("cc") and m[:-2] in ALU_MNEMONICS
                base = m[:-2] if set_cc else m
                rs1, op2, rd = ops
                return I.ArithInsn(base, rs1.rid,
                                   self._operand2(op2, program), rd.rid,
                                   set_cc)
            if m == "sethi":
                value, rd = ops
                if isinstance(value, Sym):
                    imm22 = self._symbol_value(value, program)
                    if value.part != "hi":
                        raise AsmSyntaxError("sethi needs %hi()")
                else:
                    imm22 = value.value
                return I.SethiInsn(imm22, rd.rid)
            if m in LOAD_WIDTHS:
                mem, rd = ops
                return I.LoadInsn(LOAD_WIDTHS[m], self._mem(mem), rd.rid,
                                  signed=(m == "ldsb"))
            if m in STORE_WIDTHS:
                rd, mem = ops
                return I.StoreInsn(STORE_WIDTHS[m], rd.rid, self._mem(mem))
            if m in BRANCH_MNEMONICS:
                target = self._symbol_value(ops[0], program)
                cond = {"bneg": "neg", "bpos": "pos"}.get(m, m[1:])
                return I.BranchInsn(cond, target, annul=stmt.annul)
            if m == "call":
                return I.CallInsn(self._symbol_value(ops[0], program))
            if m == "jmpl":
                rs1, op2, rd = ops
                return I.JmplInsn(rs1.rid, self._operand2(op2, program),
                                  rd.rid)
            if m == "save":
                rs1, op2, rd = ops
                return I.SaveInsn(rs1.rid, self._operand2(op2, program),
                                  rd.rid)
            if m == "restore":
                rs1, op2, rd = ops
                return I.RestoreInsn(rs1.rid, self._operand2(op2, program),
                                     rd.rid)
            if m == "ta":
                return I.TrapInsn(ops[0].value)
        except AsmSyntaxError:
            raise
        except Exception as exc:
            raise AsmSyntaxError("bad instruction %r: %s" % (stmt, exc),
                                 stmt.line_no)
        raise AsmSyntaxError("cannot encode %r" % (stmt,), stmt.line_no)

    @staticmethod
    def _mem(op: Mem) -> I.MemAddress:
        if not isinstance(op, Mem):
            raise AsmSyntaxError("expected memory operand, got %r" % (op,))
        return I.MemAddress(op.base, op.index, op.disp)

    # -- stabs -------------------------------------------------------------

    def _resolve_stabs(self, program: Program) -> None:
        for stmt, func in self._stab_directives:
            args = stmt.args
            name = str(args[0])
            kind = self._stab_kind(args[1])
            if kind in ("local", "param"):
                offset = int(args[2])
                size = int(args[3])
                elem = int(args[4]) if len(args) > 4 else None
                program.symtab.add(SymEntry(name, kind, func=func,
                                            offset=offset, size=size,
                                            elem=elem))
            elif kind == "global":
                sym = args[2]
                if not isinstance(sym, Sym):
                    raise AsmSyntaxError("global stab needs a symbol",
                                         stmt.line_no)
                address = self._symbol_value(sym, program)
                size = int(args[3])
                elem = int(args[4]) if len(args) > 4 else None
                program.symtab.add(SymEntry(name, "global", address=address,
                                            size=size, elem=elem))
            elif kind == "register":
                reg = args[2]
                if not isinstance(reg, Reg):
                    raise AsmSyntaxError("register stab needs a register",
                                         stmt.line_no)
                size = int(args[3]) if len(args) > 3 else 4
                program.symtab.add(SymEntry(name, "register", func=func,
                                            reg=reg.rid, size=size))
            else:
                raise AsmSyntaxError("unknown stab kind %r" % kind,
                                     stmt.line_no)

    @staticmethod
    def _stab_kind(arg) -> str:
        if isinstance(arg, Sym):
            return arg.name
        return str(arg)


def assemble(source_or_statements, text_base: int = DEFAULT_TEXT_BASE,
             data_base: int = DEFAULT_DATA_BASE) -> Program:
    """Assemble assembly text or a statement list into a Program."""
    if isinstance(source_or_statements, str):
        statements = parse(source_or_statements)
    else:
        statements = source_or_statements
    return Assembler(text_base, data_base).assemble(statements)
