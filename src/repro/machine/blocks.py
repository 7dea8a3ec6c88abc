"""Basic-block fast-path execution engine (DESIGN.md §14).

The per-instruction interpreter loop in :mod:`repro.machine.cpu` pays
Python dispatch overhead — fetch, bounds checks, two dict updates for
tag attribution, delayed-branch state — for every simulated
instruction.  This module removes that overhead for straight-line code:
each basic block is decoded **once** into a single specialized Python
function (superinstruction fusion taken to block granularity: the whole
block is one fused handler, a trailing compare+branch or jmpl plus its
delay slot is folded into the same function, loaded values are
forwarded directly into the instructions that consume them, and traces
extend *through* statically-targeted ``call``/``ba`` transfers so a
call-heavy inner loop still compiles to one handler).  Compiled blocks
are cached keyed by entry pc, and the cache is flushed whenever the
code space changes — Kessler write-check patches, breakpoint patches,
appended patch blocks and checkpoint restores all bump
:attr:`~repro.machine.cpu.CodeSpace.version`.  A flush is followed by
*revalidation*, not rebuilding: the cache keeps the last block built at
each entry pc together with the code slots its decode read, and the
next miss there hands that block back if every slot still holds the
same instruction object.  Only changed code is decoded again, so a
reverse step, which restores the code it flushed, rebuilds nothing
(translated code invalidated only when the code it came from changes,
as in Maebe & De Bosschere, arXiv cs/0309029).

Compiling is not cheap relative to execution: Python's ``compile()``
costs about 1 ms per block.  Yet blocks differ mostly in their
integers, so the builder writes each per-block integer — pcs, I-cache
line indices and tags, register numbers, immediates, retire counts,
site ids — into a numbered constant slot instead of the text.  What is
left, the block's *shape*, keys :func:`_code`, a process-wide table of
code objects bounded at :data:`CODE_TABLE_SIZE` shapes, and
:func:`compile_block` gives each block a copy of its shape's code
object with the block's constants patched into the slots
(copy-and-patch compilation, Xu & Kjolstad, OOPSLA 2021).  A shape
that cannot be patched is not compiled another way: its blocks are
refused, and the slow loop runs them.  Each cache builds its own
blocks, so its handlers and counters stay its own, and a kept block
keeps its code object, which Python has already specialized.

The fast path is *selective* and *exact*:

* Every architectural effect — cycles (including cache-miss penalties
  through the combined I+D cache), loads/stores/instructions counters,
  per-tag cycle attribution, condition codes, window traps, the
  write-record stream and fault-injection trip points — is reproduced
  bit-for-bit, so a fast-path run is byte-identical to the slow loop
  (same keyframe digests, same trace bytes; tests/test_fastpath.py
  enforces this).  Static per-instruction costs are *batched* (one
  ``cycles += n`` per straight run) but always flushed before any
  instruction that can raise, so observable state at every fault point
  matches the slow loop exactly.
* Blocks end at anything that must stay on the exact slow path: ``ta``
  traps (monitor hits, syscalls, breakpoints), tag changes (so per-tag
  accounting stays trivially exact), code holes, and unfusable delay
  slots.  The CPU additionally refuses the fast path while its store
  hook is armed (the §1 debugger models and the last-write scan see
  every store through it), and when a delayed control transfer is
  pending (``npc != pc + 4``).
* A block never retires past an instruction budget: callers guard with
  :attr:`BasicBlock.max_retire`, dropping to single stepping near
  keyframe strides and budget boundaries.

Mid-block exceptions (division traps, misaligned access, injected
faults, window underflow) restore exact slow-loop state — pc/npc at the
faulting instruction, counters covering only retired instructions —
before propagating, so fault-injection and divergence semantics are
unchanged.
"""

from __future__ import annotations

import builtins
import dis
import functools
import operator
from types import CodeType, FunctionType
from typing import Dict, List, Optional, Tuple, Union

from repro.faults import MEMORY_WRITE
from repro.isa.instructions import (ALU_OPS, ArithInsn, BranchInsn,
                                    CallInsn, Instruction, JmplInsn,
                                    LoadInsn, NopInsn, RestoreInsn,
                                    SaveInsn, SethiInsn, StoreInsn,
                                    alu_icc, to_signed)
from repro.machine.memory import MemoryFault

__all__ = ["BasicBlock", "BlockCache", "compile_block", "MAX_TRACE"]

_M = 4294967295          # WORD_MASK
_LINE_SHIFT = 5

#: longest trace (retired instructions) compiled into one handler.
MAX_TRACE = 96

#: slot *i* of a block's constant vector is written into its shape as
#: the literal ``_SLOT + i``.  No other literal the builder writes comes
#: near it, so the compiled shape's constants show where each slot went.
_SLOT = 1 << 40

_BUILTINS = builtins.__dict__

#: a builder operand: a constant, or run-time source text
Operand = Union[int, str]

#: branch-condition expressions over the flag locals ``_fn/_fz/_fv/_fc``
#: ("a" and "n" are handled structurally, not as expressions).
_COND_EXPR = {
    "e": "_fz", "ne": "not _fz",
    "l": "_fn != _fv", "ge": "_fn == _fv",
    "le": "_fz or _fn != _fv", "g": "not _fz and _fn == _fv",
    "lu": "_fc", "geu": "not _fc",
    "leu": "_fc or _fz", "gu": "not _fc and not _fz",
    "neg": "_fn", "pos": "not _fn",
}

_ALU_EXPR = {
    "add": "(%s + %s) & 4294967295",
    "sub": "(%s - %s) & 4294967295",
    "and": "%s & %s",
    "andn": "%s & ~%s & 4294967295",
    "or": "%s | %s",
    "xor": "%s ^ %s",
    "sll": "(%s << (%s & 31)) & 4294967295",
    "srl": "%s >> (%s & 31)",
}

_ALU_EXTRA = {"smul": 4, "sdiv": 19}


def _eligible_mem(insn) -> bool:
    return insn.width != 8 or not (insn.rd & 1)


def _true(_insn: Instruction) -> bool:
    return True


#: exact-type dispatch: subclasses (strategy-specific instructions, if
#: any appear) deliberately fall back to the slow loop.
_STRAIGHT = {
    ArithInsn: _true,
    SethiInsn: _true,
    NopInsn: _true,
    LoadInsn: _eligible_mem,
    StoreInsn: _eligible_mem,
    SaveInsn: _true,
    RestoreInsn: _true,
}

_CTI = (BranchInsn, CallInsn, JmplInsn)


def _can_raise(insn: Instruction) -> bool:
    """Can executing *insn* raise (misalignment, injected fault,
    division trap, window underflow)?  Instructions that cannot raise
    skip the per-instruction exception bookkeeping entirely and have
    their static costs batched."""
    kind = type(insn)
    if kind is StoreInsn:
        return True              # misalign / fault injection
    if kind is LoadInsn:
        return insn.width != 1   # word loads check alignment
    if kind is ArithInsn:
        return insn.op == "sdiv"
    return kind is RestoreInsn   # window underflow


class BasicBlock:
    """One compiled trace: entry pc, fused handler, retire bound."""

    __slots__ = ("entry", "fn", "max_retire", "size", "tag")

    def __init__(self, entry: int, fn, max_retire: int, size: int,
                 tag: str):
        self.entry = entry
        self.fn = fn
        #: most instructions one execution can retire (annulled delay
        #: slots and untaken-annul arms may retire fewer) — callers use
        #: this to stay inside instruction budgets without overshoot.
        self.max_retire = max_retire
        self.size = size
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<BasicBlock @0x%x size=%d tag=%s>" % (
            self.entry, self.size, self.tag)


def _decode(code, entry: int, reads: Dict[int, Optional[Instruction]]):
    """Walk the trace at *entry*: straight-line instructions, embedded
    ``call``/``ba``/``bn`` transfers (statically-known successor), and a
    terminator (conditional branch, ``jmpl``, trace-ending transfer, or
    plain fall-through).  Returns ``(tag, steps, term, fall_pc)`` or
    None when the entry instruction itself cannot go fast.

    Every code slot the walk reads goes into *reads*, index -> the
    instruction found there, None for an index past the end of the code
    (it decided where the trace stops).  The result depends on nothing
    else: :func:`compile_block` revalidates a kept block against them."""
    insns = code.insns
    base = code.base
    count = len(insns)

    def at(pc: int) -> Optional[Instruction]:
        if pc < base or pc & 3:
            return None
        index = (pc - base) >> 2
        insn = reads[index] = insns[index] if index < count else None
        return insn

    first = at(entry)
    if first is None:
        return None
    tag = first.tag
    steps: List[tuple] = []
    term = None
    fall: Optional[int] = None
    seen = set()
    pc = entry
    retired = 0
    while True:
        if retired >= MAX_TRACE or pc in seen:
            fall = pc
            break
        insn = at(pc)
        if insn is None or insn.tag != tag:
            fall = pc
            break
        kind = type(insn)
        check = _STRAIGHT.get(kind)
        if check is not None:
            if not check(insn):
                fall = pc
                break
            seen.add(pc)
            steps.append(("s", pc, insn, None))
            pc += 4
            retired += 1
            continue
        if kind not in _CTI:       # ta trap / unknown: slow path only
            fall = pc
            break
        slot_pc = pc + 4
        slot = at(slot_pc)
        slot_ok = (slot is not None and slot.tag == tag
                   and _STRAIGHT.get(type(slot)) is not None
                   and _STRAIGHT[type(slot)](slot))
        if kind is JmplInsn:
            if slot_ok:
                term = ("jmpl", pc, insn, slot)
            else:
                fall = pc
            break
        if kind is BranchInsn and insn.cond not in ("a", "n"):
            if slot_ok:
                term = ("cond", pc, insn, slot)
            else:
                fall = pc
            break
        # statically-targeted transfer: call, ba[,a], bn[,a]
        if kind is CallInsn:
            target, annulled = insn.target, False
        elif insn.cond == "a":
            # ba,a annuls its delay slot even though taken
            target, annulled = insn.target, insn.annul
        else:                       # bn: never taken
            target, annulled = pc + 8, insn.annul
        if not annulled and not slot_ok:
            fall = pc
            break
        seen.add(pc)
        seen.add(slot_pc)
        retired += 1 if annulled else 2
        nxt = at(target)
        if (target in seen or retired >= MAX_TRACE or nxt is None
                or nxt.tag != tag):
            term = ("xend", pc, insn, None if annulled else slot)
            break
        steps.append(("x", pc, insn, None if annulled else slot))
        pc = target
    if not steps and term is None:
        return None
    return tag, steps, term, fall


class _Builder:
    """Generates one trace's *shape*: the body of its handler, with
    every per-block integer in a numbered constant slot, and the frame
    around it.

    Operands are constants (``int``, known at build time) or run-time
    expressions (``str``: a temp local, or a register read that is used
    once).  A constant reaches the text only through :meth:`slot`, and
    no expression the builder writes is made only of constants: those
    it computes itself with the slow loop's own semantics (``ALU_OPS``,
    :func:`alu_icc`), because Python's compiler would otherwise fold
    them into a constant that no slot maps to.  A test that can raise
    (an ``sdiv`` by a constant zero, a misaligned constant address)
    stays at run time, on a local, so the fault surfaces at the same
    instruction with the same state.
    """

    def __init__(self, cpu, decoded):
        self.tag, self.steps, self.term, self.fall = decoded
        costs = cpu.costs
        self.imiss = costs.imiss_penalty
        self.dmiss = costs.dmiss_penalty
        self.load_extra = costs.load_extra
        self.store_extra = costs.store_extra
        self.window_trap = costs.window_trap
        self.cmask = cpu.cache.index_mask
        self.use: set = set()
        self.flags_written = False
        #: register id -> operand (a temp local or a constant) holding
        #: the register's current value — the load+op / op+op
        #: value-forwarding ("fusion") map.
        self.fwd: Dict[int, Operand] = {}
        self._ntmp = 0
        #: cache line of the previous emitted fetch, or None when a
        #: data access (which may evict through the combined cache)
        #: broke the statically-provable-hit run.
        self._fetch_line: Optional[int] = None
        #: batched static counter increments, flushed before any
        #: can-raise instruction and at every exit path.
        self.pend_cycles = 0
        self.pend_hits = 0
        self.pend_loads = 0
        #: pc per retire index (for exception-exact pc recovery).
        self.pcs: List[int] = []
        self.max_retire = 0
        #: the block's constant vector: slot i holds ``consts[i]``
        self.consts: List[int] = []

    # -- small helpers ---------------------------------------------------

    def temp(self) -> str:
        self._ntmp += 1
        return "_v%d" % self._ntmp

    def slot(self, value: int) -> str:
        """A fresh slot holding *value*, as the literal that stands for
        it in the shape.  Each slot appears once in the text."""
        consts = self.consts
        consts.append(value)
        return str(_SLOT + len(consts) - 1)

    def src(self, operand: Operand) -> str:
        """*operand* as source text, a constant in a fresh slot."""
        return operand if type(operand) is str else self.slot(operand)

    def flush_static(self, out: List[str]) -> None:
        if self.pend_cycles:
            out.append("cycles += " + self.slot(self.pend_cycles))
            self.pend_cycles = 0
        if self.pend_hits:
            out.append("ch += " + self.slot(self.pend_hits))
            self.pend_hits = 0
        if self.pend_loads:
            out.append("ld += " + self.slot(self.pend_loads))
            self.pend_loads = 0

    def read(self, rid: int) -> Operand:
        fwd = self.fwd.get(rid)
        if fwd is not None:
            return fwd
        if rid == 0:
            return 0
        if rid < 8:
            self.use.add("g")
            return "g[%s]" % self.slot(rid)
        if rid < 16:
            self.use.add("win")
            return "wo[%s]" % self.slot(rid - 8)
        if rid < 24:
            self.use.add("win")
            return "wl[%s]" % self.slot(rid - 16)
        if rid < 32:
            self.use.add("win")
            return "(pi[%s] if pi is not None else 0)" % self.slot(rid - 24)
        self.use.add("mon")
        return "mon[%s]" % self.slot(rid - 32)

    def write(self, rid: int, value: Operand, out: List[str]) -> None:
        """Emit a register write of *value* (a temp local or a constant,
        always already masked to 32 bits) and update the forwarding
        map."""
        if rid == 0:
            return
        if rid < 8:
            self.use.add("g")
            out.append("g[%s] = %s" % (self.slot(rid), self.src(value)))
            self.fwd[rid] = value
        elif rid < 16:
            self.use.add("win")
            out.append("wo[%s] = %s" % (self.slot(rid - 8), self.src(value)))
            self.fwd[rid] = value
        elif rid < 24:
            self.use.add("win")
            out.append("wl[%s] = %s"
                       % (self.slot(rid - 16), self.src(value)))
            self.fwd[rid] = value
        elif rid < 32:
            self.use.add("win")
            out.append("if pi is not None:")
            out.append("    pi[%s] = %s"
                       % (self.slot(rid - 24), self.src(value)))
            # the write is discarded at the outermost frame, so the
            # value must not be forwarded into later reads
            self.fwd.pop(rid, None)
        else:
            self.use.add("mon")
            out.append("mon[%s] = %s"
                       % (self.slot(rid - 32), self.src(value)))
            self.fwd[rid] = value

    def operand2(self, op2) -> Operand:
        return op2.value & _M if op2.is_imm else self.read(op2.value)

    def local(self, operand: Operand, out: List[str],
              constant: bool = False) -> Operand:
        """*operand* in a temp local if it is a register read (the
        caller uses it more than once) or, with *constant*, a
        constant."""
        if type(operand) is str:
            if operand.startswith("_"):
                return operand
        elif not constant:
            return operand
        name = self.temp()
        out.append("%s = %s" % (name, self.src(operand)))
        return name

    def signed(self, operand: Operand, out: List[str]) -> Operand:
        """*operand* (a constant or a temp local) read as a signed
        32-bit number."""
        if type(operand) is int:
            return to_signed(operand)
        name = self.temp()
        out.append("%s = %s - 4294967296 if %s & 2147483648 else %s"
                   % (name, operand, operand, operand))
        return name

    def add(self, a: Operand, b: Operand) -> Operand:
        """``(a + b) & 4294967295``, computed here if both are
        constants."""
        if type(a) is int and type(b) is int:
            return (a + b) & _M
        return "(%s + %s) & 4294967295" % (self.src(a), self.src(b))

    def ea_expr(self, addr) -> Operand:
        base = self.read(addr.rs1)
        disp = addr.imm if addr.rs2 is None else self.read(addr.rs2)
        if disp == 0:
            return base
        return self.add(base, disp)

    def icache(self, pc: int, out: List[str], inline: bool) -> None:
        """Fetch access for the instruction at *pc*.

        Consecutive fetches from one 32-byte line are provable hits
        unless a data access ran in between (the combined cache may
        evict the code line), so most of them collapse into the batched
        hit counter.
        """
        line = pc >> _LINE_SHIFT
        if line == self._fetch_line:
            if inline:
                out.append("ch += 1")
            else:
                self.pend_hits += 1
            return
        self._fetch_line = line
        index = line & self.cmask
        out.append("if cl[%s] == %s:" % (self.slot(index), self.slot(line)))
        out.append("    ch += 1")
        out.append("else:")
        out.append("    cl[%s] = %s" % (self.slot(index), self.slot(line)))
        out.append("    cm += 1")
        out.append("    cycles += %d" % self.imiss)

    def dcache(self, ea: str, out: List[str]) -> None:
        self.use.add("mem")
        out.append("_l = %s >> 5" % ea)
        out.append("_x = _l & %d" % self.cmask)
        out.append("if cl[_x] == _l:")
        out.append("    ch += 1")
        out.append("else:")
        out.append("    cl[_x] = _l")
        out.append("    cm += 1")
        out.append("    cycles += %d" % self.dmiss)
        self._fetch_line = None

    # -- per-instruction emitters ---------------------------------------

    def emit_insn(self, insn: Instruction, pc: int, out: List[str],
                  slot_npc: Optional[Operand] = None) -> None:
        """Emit one straight-line instruction: retire bookkeeping,
        fetch, semantics.

        *slot_npc* marks a fused delay-slot instruction — mid-slot
        exceptions restore ``pc = slot pc`` with the delayed target as
        npc, exactly like the slow loop.
        """
        inline = _can_raise(insn)
        if inline:
            self.flush_static(out)
            out.append("_c = cycles")
            if slot_npc is None:
                out.append("_i = " + self.slot(len(self.pcs)))
            else:
                out.append("_xi = " + self.slot(len(self.pcs)))
                out.append("_xpc = " + self.slot(pc))
                out.append("_xnpc = " + self.src(slot_npc))
                out.append("_i = -1")
            out.append("cycles += 1")
        else:
            self.pend_cycles += 1
        self.icache(pc, out, inline)
        kind = type(insn)
        if kind is ArithInsn:
            self.gen_arith(insn, out)
        elif kind is SethiInsn:
            self.write(insn.rd, (insn.imm22 << 10) & _M, out)
        elif kind is NopInsn:
            pass
        elif kind is LoadInsn:
            self.gen_load(insn, out, inline)
        elif kind is StoreInsn:
            self.gen_store(insn, out)
        elif kind is SaveInsn:
            self.gen_save(insn, out, push=True)
        elif kind is RestoreInsn:
            self.gen_save(insn, out, push=False)
        else:  # pragma: no cover - decoder never lets this through
            raise AssertionError("unfusable %r" % insn)
        self.pcs.append(pc)

    def gen_arith(self, insn: ArithInsn, out: List[str]) -> None:
        op = insn.op
        a = self.read(insn.rs1)
        b = self.operand2(insn.op2)
        if type(a) is int and type(b) is int and (b or op != "sdiv"):
            value = ALU_OPS[op](a, b)
            self.write(insn.rd, value, out)
            self.pend_cycles += _ALU_EXTRA.get(op, 0)
            if insn.set_cc:
                self.use.add("flags")
                self.flags_written = True
                for flag, bit in zip(("_fn", "_fz", "_fv", "_fc"),
                                     alu_icc(op, a, b, value)):
                    out.append("%s = %s" % (flag, self.slot(bit)))
            return
        if insn.set_cc or op in ("sra", "smul", "sdiv"):
            # sdiv keeps its zero and sign tests at run time, so its
            # constants move into locals too
            a = self.local(a, out, op == "sdiv")
            b = self.local(b, out, op == "sdiv")
        if op in ("sll", "srl") and type(b) is int:
            expr = ("(%s << %s) & 4294967295" if op == "sll"
                    else "%s >> %s") % (a, self.slot(b & 31))
        elif op == "andn" and type(b) is int:
            expr = "%s & %s" % (a, self.slot(~b & _M))
        elif op in _ALU_EXPR:
            expr = _ALU_EXPR[op] % (self.src(a), self.src(b))
        elif op == "sra":
            shift = self.slot(b & 31) if type(b) is int else "(%s & 31)" % b
            expr = "(%s >> %s) & 4294967295" \
                % (self.src(self.signed(a, out)), shift)
        elif op == "smul":
            expr = "(%s * %s) & 4294967295" \
                % (self.src(self.signed(a, out)),
                   self.src(self.signed(b, out)))
        else:  # sdiv, over two locals
            sa = self.signed(a, out)
            sb = self.signed(b, out)
            out.append("if %s == 0:" % sb)
            out.append("    raise ZeroDivisionError('sdiv by zero')")
            quot = self.temp()
            out.append("%s = abs(%s) // abs(%s)" % (quot, sa, sb))
            out.append("if (%s < 0) != (%s < 0):" % (sa, sb))
            out.append("    %s = -%s" % (quot, quot))
            expr = "%s & 4294967295" % quot
        value = self.temp()
        out.append("%s = %s" % (value, expr))
        self.write(insn.rd, value, out)
        self.pend_cycles += _ALU_EXTRA.get(op, 0)
        if insn.set_cc:
            self.use.add("flags")
            self.flags_written = True
            out.append("_fn = 1 if %s & 2147483648 else 0" % value)
            out.append("_fz = 1 if %s == 0 else 0" % value)
            src = self.src
            if op == "add":
                out.append("_fc = 1 if %s + %s > 4294967295 else 0"
                           % (src(a), src(b)))
                out.append(
                    "_fv = 1 if (~(%s ^ %s) & (%s ^ %s)) & 2147483648 "
                    "else 0" % (src(a), src(b), src(a), value))
            elif op == "sub":
                out.append("_fc = 1 if %s < %s else 0" % (src(a), src(b)))
                out.append(
                    "_fv = 1 if ((%s ^ %s) & (%s ^ %s)) & 2147483648 "
                    "else 0" % (src(a), src(b), src(a), value))
            else:
                out.append("_fv = 0")
                out.append("_fc = 0")

    def gen_load(self, insn: LoadInsn, out: List[str],
                 inline: bool) -> None:
        self.use.update(("mem", "ld"))
        ea = self.temp()
        out.append("%s = %s" % (ea, self.src(self.ea_expr(insn.addr))))
        if inline:
            out.append("ld += 1")
            out.append("cycles += %d" % self.load_extra)
        else:
            self.pend_loads += 1
            self.pend_cycles += self.load_extra
        self.dcache(ea, out)
        value = self.temp()
        if insn.width == 1:
            out.append("%s = mw.get(%s >> 2, 0) >> ((3 - (%s & 3)) * 8) "
                       "& 255" % (value, ea, ea))
            if insn.signed:
                out.append("if %s & 128:" % value)
                out.append("    %s |= 4294967040" % value)
            self.write(insn.rd, value, out)
            return
        out.append("if %s & 3:" % ea)
        out.append("    raise _MF('misaligned word read at 0x%%x' %% %s, "
                   "addr=%s)" % (ea, ea))
        out.append("%s = mw.get(%s >> 2, 0)" % (value, ea))
        self.write(insn.rd, value, out)
        if insn.width == 8:
            hi = self.temp()
            out.append("ld += 1")
            out.append("cycles += %d" % self.load_extra)
            self.dcache("(%s + 4)" % ea, out)
            out.append("%s = mw.get((%s + 4) >> 2, 0)" % (hi, ea))
            self.write(insn.rd + 1, hi, out)

    def site(self, site: Optional[int]) -> str:
        return "None" if site is None else self.slot(site)

    def _store_word(self, ea: str, value: Operand, site: Optional[int],
                    out: List[str]) -> None:
        out.append("st += 1")
        out.append("cycles += %d" % self.store_extra)
        self.dcache(ea, out)
        if self.tag == "orig":
            out.append("if cpu.record_writes:")
            out.append("    cpu.write_trace.append((%s, %s, 4))"
                       % (self.site(site), ea))
        out.append("if %s & 3:" % ea)
        out.append("    raise _MF('misaligned word write at 0x%%x' %% %s, "
                   "addr=%s)" % (ea, ea))
        out.append("if mem.faults is not None:")
        out.append("    mem.faults.trip(_MW, addr=%s, width=4)" % ea)
        out.append("mw[%s >> 2] = %s" % (ea, self.src(value)))

    def gen_store(self, insn: StoreInsn, out: List[str]) -> None:
        self.use.update(("mem", "st"))
        ea = self.temp()
        out.append("%s = %s" % (ea, self.src(self.ea_expr(insn.addr))))
        value = self.read(insn.rd)
        if insn.width == 1:
            out.append("st += 1")
            out.append("cycles += %d" % self.store_extra)
            self.dcache(ea, out)
            if self.tag == "orig":
                out.append("if cpu.record_writes:")
                out.append("    cpu.write_trace.append((%s, %s, 1))"
                           % (self.site(insn.site), ea))
            out.append("if mem.faults is not None:")
            out.append("    mem.faults.trip(_MW, addr=%s, width=1)" % ea)
            out.append("_x = %s >> 2" % ea)
            out.append("_s = (3 - (%s & 3)) * 8" % ea)
            byte = self.slot(value & 255) if type(value) is int \
                else "(%s & 255)" % value
            out.append("mw[_x] = (mw.get(_x, 0) & ~(255 << _s)) | "
                       "(%s << _s)" % byte)
            return
        self._store_word(ea, value, insn.site, out)
        if insn.width == 8:
            ea4 = self.temp()
            out.append("%s = %s + 4" % (ea4, ea))
            self._store_word(ea4, self.read(insn.rd + 1), insn.site, out)

    def gen_save(self, insn, out: List[str], push: bool) -> None:
        self.use.update(("win", "regs"))
        value = self.add(self.read(insn.rs1), self.operand2(insn.op2))
        if type(value) is str:
            name = self.temp()
            out.append("%s = %s" % (name, value))
            value = name
        flag = self.temp()
        if push:
            out.append("%s = regs.save_window()" % flag)
        else:
            out.append("%s = regs.restore_window()" % flag)
        # the window moved: refresh the window locals and drop every
        # forwarded windowed register
        for rid in [r for r in self.fwd if 8 <= r < 32]:
            del self.fwd[rid]
        out.append("W = regs._window")
        out.append("wo = W.outs")
        out.append("wl = W.locals")
        out.append("P = W.parent")
        out.append("pi = P.outs if P is not None else None")
        self.write(insn.rd, value, out)
        out.append("if %s:" % flag)
        out.append("    cycles += %d" % self.window_trap)
        if push:
            out.append("cpu._window_depth += 1")
            out.append("if cpu._window_depth > cpu.max_window_depth:")
            out.append("    cpu.max_window_depth = cpu._window_depth")
        else:
            out.append("cpu._window_depth -= 1")

    # -- transfers and terminators ---------------------------------------

    def emit_xfer(self, pc: int, insn: Instruction,
                  slot: Optional[Instruction], out: List[str]) -> int:
        """Emit an embedded/terminating static transfer (call, ba, bn)
        plus its delay slot; returns the continuation pc."""
        self.pend_cycles += 1
        self.icache(pc, out, inline=False)
        if type(insn) is CallInsn:
            self.write(15, pc, out)        # %o7 <- pc of the call
            target = insn.target
        elif insn.cond == "a":
            target = insn.target
        else:                               # bn: falls through
            target = pc + 8
        self.pcs.append(pc)
        if slot is not None:
            self.emit_insn(slot, pc + 4, out, slot_npc=target)
        return target

    def exit_to(self, target: Operand, out: List[str]) -> None:
        """Flush the batched counters and leave for *target*."""
        self.flush_static(out)
        out.append("_pc = " + self.src(target))
        out.append("_k = " + self.slot(len(self.pcs)))
        self.max_retire = max(self.max_retire, len(self.pcs))

    def emit_term(self, out: List[str]) -> None:
        kind, pc, insn, slot = self.term
        if kind == "xend":
            self.exit_to(self.emit_xfer(pc, insn, slot, out), out)
            return
        if kind == "jmpl":
            self.pend_cycles += 1
            self.icache(pc, out, inline=False)
            out.append("_tgt = " + self.src(self.add(
                self.read(insn.rs1), self.operand2(insn.op2))))
            self.write(insn.rd, pc, out)
            self.pcs.append(pc)
            self.emit_insn(slot, pc + 4, out, slot_npc="_tgt")
            self.exit_to("_tgt", out)
            return
        # conditional branch: two arms, each with its own pending state
        self.use.add("flags")
        self.pend_cycles += 1
        self.icache(pc, out, inline=False)
        self.pcs.append(pc)
        target = insn.target
        fall = pc + 8
        state = (dict(self.fwd), self._fetch_line, self.pend_cycles,
                 self.pend_hits, self.pend_loads, list(self.pcs))

        def arm_to(arm_target: int, executes_slot: bool) -> List[str]:
            (fwd, fetch, pcy, phit, pld, pcs) = state
            self.fwd = dict(fwd)
            self._fetch_line = fetch
            self.pend_cycles = pcy
            self.pend_hits = phit
            self.pend_loads = pld
            self.pcs = list(pcs)
            arm: List[str] = []
            if executes_slot:
                self.emit_insn(slot, pc + 4, arm, slot_npc=arm_target)
            self.exit_to(arm_target, arm)
            return arm

        then_arm = arm_to(target, True)
        else_arm = arm_to(fall, not insn.annul)
        out.append("if %s:" % _COND_EXPR[insn.cond])
        out.extend("    " + line for line in then_arm)
        out.append("else:")
        out.extend("    " + line for line in else_arm)

    # -- whole-function assembly -----------------------------------------

    def build(self) -> Tuple[str, tuple]:
        """The block's shape: its body text and its frame (what the
        handler loads from the CPU and writes back), which
        :func:`_handler` wraps into the handler's source.  The
        constants are left in :attr:`consts`."""
        body: List[str] = []
        for _, pc, insn, slot in self.steps:
            if type(insn) in _CTI:
                self.emit_xfer(pc, insn, slot, body)
            else:
                self.emit_insn(insn, pc, body)
        if self.term is not None:
            self.emit_term(body)
        else:
            self.exit_to(self.fall, body)
        return "\n        ".join(body), (frozenset(self.use),
                                         self.flags_written)


def _handler(body: str, frame: tuple) -> str:
    """The source of the handler function around *body*."""
    use, flags_written = frame
    head = []
    if use & {"g", "win", "mon", "regs"}:
        head.append("regs = cpu.regs")
    if "g" in use:
        head.append("g = regs.globals")
    if "win" in use:
        head += ["W = regs._window", "wo = W.outs", "wl = W.locals",
                 "P = W.parent", "pi = P.outs if P is not None else None"]
    if "mon" in use:
        head.append("mon = regs.monitors")
    if "mem" in use:
        head += ["mem = cpu.mem", "mw = mem.words"]
    head += ["cache = cpu.cache", "cl = cache.lines", "ch = cache.hits",
             "cm = cache.misses", "cy0 = cycles = cpu.cycles",
             "_c = cycles", "ic = cpu.instructions"]
    if "ld" in use:
        head.append("ld = cpu.loads")
    if "st" in use:
        head.append("st = cpu.stores")
    if "flags" in use:
        head += ["_fn = cpu.icc_n", "_fz = cpu.icc_z", "_fv = cpu.icc_v",
                 "_fc = cpu.icc_c"]
    head.append("_i = 0")
    # write back the counters and flags the body keeps in locals
    flush = ["cache.hits = ch", "cache.misses = cm"]
    if "ld" in use:
        flush.append("cpu.loads = ld")
    if "st" in use:
        flush.append("cpu.stores = st")
    if flags_written:
        flush += ["cpu.icc_n = _fn", "cpu.icc_z = _fz", "cpu.icc_v = _fv",
                  "cpu.icc_c = _fc"]
    handler = [
        "cpu.cycles = cycles",
        "if _i < 0:",
        "    _k = _xi",
        "    cpu.pc = _xpc",
        "    cpu.npc = _xnpc",
        "else:",
        "    _k = _i",
        "    cpu.pc = _PCS[_i]",
        "    cpu.npc = _PCS[_i] + 4",
        "cpu.instructions = ic + _k",
        "if _k:",
        "    tc = cpu.tag_counts",
        "    tgc = cpu.tag_cycles",
        "    tc[_TAG] = tc.get(_TAG, 0) + _k",
        "    tgc[_TAG] = tgc.get(_TAG, 0) + (_c - cy0)",
    ] + flush + ["raise"]
    tail = [
        "cpu.cycles = cycles",
        "cpu.instructions = ic + _k",
        "tc = cpu.tag_counts",
        "tgc = cpu.tag_cycles",
        "tc[_TAG] = tc.get(_TAG, 0) + _k",
        "tgc[_TAG] = tgc.get(_TAG, 0) + (cycles - cy0)",
    ] + flush + [
        "cpu.pc = _pc",
        "cpu.npc = _pc + 4",
        "_bc.runs += 1",
        "_bc.retired += _k",
    ]
    return ("def _blk(cpu):\n    " + "\n    ".join(head)
            + "\n    try:\n        " + body
            + "\n    except BaseException:\n        "
            + "\n        ".join(handler)
            + "\n    " + "\n    ".join(tail) + "\n")


#: shapes whose compiled code objects the process keeps.  An entry is
#: the shape's body text (about 2.5 KB) and its code object with its
#: tables (about 7 KB).
CODE_TABLE_SIZE = 512

_LOADS_CONST = frozenset(dis.hasconst)
_EXTENDED_ARG = dis.opmap["EXTENDED_ARG"]


def _loaded(code: CodeType) -> set:
    """The ``co_consts`` indices some instruction of *code* loads.
    ``co_code`` is two-byte units, opcode then argument (inline caches
    read as zeros), so the opcodes are its even bytes."""
    raw = code.co_code
    ops, args = raw[0::2], raw[1::2]
    loaded = set()
    for op in _LOADS_CONST:
        at = ops.find(op)
        while at >= 0:
            arg, back = args[at], at
            while back and ops[back - 1] == _EXTENDED_ARG:
                back -= 1
                arg |= args[back] << 8 * (at - back)
            loaded.add(arg)
            at = ops.find(op, at + 1)
    return loaded


@functools.lru_cache(maxsize=CODE_TABLE_SIZE)
def _code(body: str, frame: tuple, slots: int):
    """The handler code object of the shape (*body*, *frame*), which
    has *slots* constant slots, shared by every CPU in the process:
    ``(code, order)``, where ``order`` indexes a block's ``co_consts``
    out of the shape's constants followed by the block's constant
    vector.  None when the compiled constants do not map one to one
    onto the slots (Python folded a slot into another constant, or left
    one unloaded): blocks of this shape are refused, and the slow loop
    runs their code."""
    module = compile(_handler(body, frame), "<block>", "exec")
    code = next(const for const in module.co_consts
                if type(const) is CodeType)
    consts = code.co_consts
    where = {const - _SLOT: index for index, const in enumerate(consts)
             if type(const) is int and const >= _SLOT}
    if sorted(where) != list(range(slots)) or \
            not _loaded(code).issuperset(where.values()):
        return None
    order = list(range(len(consts)))
    shared = list(consts)
    for slot, index in where.items():
        order[index] = len(consts) + slot
        shared[index] = None     # every block patches it
    return code.replace(co_consts=tuple(shared)), tuple(order)


def compile_block(cpu, entry: int, cache: "BlockCache"
                  ) -> Optional[BasicBlock]:
    """The trace entered at *entry*, compiled, or None when it cannot go
    fast; :meth:`BlockCache.lookup` calls it on every miss.

    *cache* keeps the last result built at *entry* across flushes, with
    the code slots its decode read.  If every one of them still holds
    the same instruction object, that result is returned as it is:
    instructions are replaced, never edited (:class:`~repro.machine.cpu.
    CodeSpace`), so the same objects decode to the same block, and the
    kept block's code object is already warm.  Otherwise the trace is
    decoded and built again, and the new result is kept."""
    kept = cache.kept.get(entry)
    if kept is not None and _unchanged(cpu.code.insns, kept):
        cache.revalidated += 1
        return kept[0]
    reads: Dict[int, Optional[Instruction]] = {}
    decoded = _decode(cpu.code, entry, reads)
    cache.decodes += 1
    block = None if decoded is None else _build(cpu, entry, decoded, cache)
    cache.kept[entry] = (block, tuple(reads), tuple(reads.values()),
                         max(reads, default=-1))
    return block


def _unchanged(insns: List[Optional[Instruction]], kept: tuple) -> bool:
    """Does each slot *kept* records hold the same object in *insns*
    (None past the end, as :func:`_decode` reads it)?  The usual case,
    every recorded index inside the code, compares in one pass in C."""
    _block, indices, objects, top = kept
    if top < len(insns):
        return all(map(operator.is_, map(insns.__getitem__, indices),
                       objects))
    count = len(insns)
    return all((insns[index] if index < count else None) is insn
               for index, insn in zip(indices, objects))


def _build(cpu, entry: int, decoded,
           cache: "BlockCache") -> Optional[BasicBlock]:
    """Build the trace decoded at *entry*: its handler is a copy of its
    shape's code object with the block's constants patched in.  None
    when the shape cannot be patched (:attr:`BlockCache.fallbacks`
    counts those), so the slow loop runs the entry."""
    builder = _Builder(cpu, decoded)
    body, frame = builder.build()
    consts = builder.consts
    namespace = {
        "__builtins__": _BUILTINS,
        "_PCS": tuple(builder.pcs),
        "_MF": MemoryFault,
        "_MW": MEMORY_WRITE,
        "_TAG": builder.tag,
        "_bc": cache,
    }
    stencil = _code(body, frame, len(consts))
    if stencil is None:
        cache.fallbacks += 1
        return None
    code, order = stencil
    pool = code.co_consts + tuple(consts)
    fn = FunctionType(code.replace(
        co_consts=tuple(map(pool.__getitem__, order))), namespace)
    return BasicBlock(entry, fn, builder.max_retire, len(builder.pcs),
                      builder.tag)


class BlockCache:
    """Per-CPU cache of compiled blocks, keyed by entry pc.

    Invalidation is version-based: every :class:`CodeSpace` mutation
    (Kessler patches, appended patch blocks, checkpoint restores) bumps
    ``code.version``, and the dispatch loop (``CPU._run_until``) flushes
    the whole cache before its next lookup.  A flush drops only the
    lookup table.  :attr:`kept` survives it: the last result built at
    each entry pc, which :func:`compile_block` hands back on the next
    miss there if the code slots it was decoded from are unchanged
    (:attr:`revalidated` counts those), and otherwise rebuilds
    (:attr:`decodes` counts those).  So a reverse step, which restores
    the code it flushed, rebuilds nothing.  The shared shape table
    (:func:`_code`) lets a rebuild skip Python's ``compile()`` for a
    shape seen before; a block whose shape cannot be patched is refused
    and left to the slow loop, which :attr:`fallbacks` counts.  The cost
    model and cache geometry a block bakes in are its CPU's, which never
    change.
    """

    __slots__ = ("cpu", "blocks", "kept", "version", "decodes",
                 "revalidated", "invalidations", "fallbacks", "runs",
                 "retired")

    def __init__(self, cpu):
        self.cpu = cpu
        self.blocks: Dict[int, Optional[BasicBlock]] = {}
        #: entry pc -> (block or None, the code slot indices its decode
        #: read, the instructions found there, the highest index)
        self.kept: Dict[int, tuple] = {}
        self.version = cpu.code.version
        self.decodes = 0
        #: kept results handed back unchanged after a flush
        self.revalidated = 0
        self.invalidations = 0
        #: blocks refused because their shape's code object cannot be
        #: patched; the slow loop runs their entries
        self.fallbacks = 0
        #: fast-path executions / instructions retired through blocks
        self.runs = 0
        self.retired = 0

    def lookup(self, pc: int) -> Optional[BasicBlock]:
        """The block at *pc*; a miss goes to :func:`compile_block`,
        which hands back the kept block or builds one.  The caller has
        already flushed the cache if ``code.version`` moved."""
        try:
            return self.blocks[pc]
        except KeyError:
            block = self.blocks[pc] = compile_block(self.cpu, pc, self)
            return block

    def stats(self) -> Dict[str, int]:
        return {
            "cached_blocks": sum(1 for block in self.blocks.values()
                                 if block is not None),
            "decodes": self.decodes,
            "revalidated": self.revalidated,
            "invalidations": self.invalidations,
            "fallbacks": self.fallbacks,
            "block_runs": self.runs,
            "fast_retired": self.retired,
        }
