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
are cached keyed by entry pc and invalidated whenever the code space
changes — Kessler write-check patches, breakpoint patches, appended
patch blocks and checkpoint restores all bump
:attr:`~repro.machine.cpu.CodeSpace.version`.

Compiling is not cheap relative to execution.  On traced perfbench
runs ``compile_block`` took 2.4–4.9× the time the CPU spent executing
(``run_self``), and in the time-travel recordings of seed 3, whose
reverse steps each restore a keyframe and so flush the cache, Python's
``compile()`` took 12.0 s of the 13.7 s spent in ``compile_block``.
Those recordings compiled 9,936 blocks from only 1,194 distinct
sources, so :func:`compile_block` takes its code object from
:func:`_code`, a process-wide table keyed by the whole generated source
and bounded at :data:`CODE_TABLE_SIZE` entries.  It still decodes,
generates the source and runs the code in a fresh namespace on every
cache miss, so each cache's handlers and counters stay its own.

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

import functools
from typing import Dict, List, Optional

from repro.faults import MEMORY_WRITE
from repro.isa.instructions import (ArithInsn, BranchInsn, CallInsn,
                                    Instruction, JmplInsn, LoadInsn,
                                    NopInsn, RestoreInsn, SaveInsn,
                                    SethiInsn, StoreInsn)
from repro.machine.memory import MemoryFault

__all__ = ["BasicBlock", "BlockCache", "compile_block", "MAX_TRACE"]

_M = 4294967295          # WORD_MASK
_LINE_SHIFT = 5

#: longest trace (retired instructions) compiled into one handler.
MAX_TRACE = 96

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


def _decode(code, entry: int):
    """Walk the trace at *entry*: straight-line instructions, embedded
    ``call``/``ba``/``bn`` transfers (statically-known successor), and a
    terminator (conditional branch, ``jmpl``, trace-ending transfer, or
    plain fall-through).  Returns ``(tag, steps, term, fall_pc)`` or
    None when the entry instruction itself cannot go fast."""
    insns = code.insns
    base = code.base
    count = len(insns)

    def at(pc: int) -> Optional[Instruction]:
        if pc < base or pc & 3:
            return None
        index = (pc - base) >> 2
        return insns[index] if index < count else None

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
    """Generates the specialized Python source for one trace."""

    def __init__(self, cpu, entry: int, decoded):
        self.cpu = cpu
        self.entry = entry
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
        #: register id -> expression (a temp local or literal) holding
        #: the register's current value — the load+op / op+op
        #: value-forwarding ("fusion") map.
        self.fwd: Dict[int, str] = {}
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

    # -- small helpers ---------------------------------------------------

    def temp(self) -> str:
        self._ntmp += 1
        return "_v%d" % self._ntmp

    def flush_static(self, out: List[str]) -> None:
        if self.pend_cycles:
            out.append("cycles += %d" % self.pend_cycles)
            self.pend_cycles = 0
        if self.pend_hits:
            out.append("ch += %d" % self.pend_hits)
            self.pend_hits = 0
        if self.pend_loads:
            out.append("ld += %d" % self.pend_loads)
            self.pend_loads = 0

    def read(self, rid: int) -> str:
        fwd = self.fwd.get(rid)
        if fwd is not None:
            return fwd
        if rid == 0:
            return "0"
        if rid < 8:
            self.use.add("g")
            return "g[%d]" % rid
        if rid < 16:
            self.use.add("win")
            return "wo[%d]" % (rid - 8)
        if rid < 24:
            self.use.add("win")
            return "wl[%d]" % (rid - 16)
        if rid < 32:
            self.use.add("win")
            return "(pi[%d] if pi is not None else 0)" % (rid - 24)
        self.use.add("mon")
        return "mon[%d]" % (rid - 32)

    def write(self, rid: int, value: str, out: List[str]) -> None:
        """Emit a register write of *value* (a local or literal, always
        already masked to 32 bits) and update the forwarding map."""
        if rid == 0:
            return
        if rid < 8:
            self.use.add("g")
            out.append("g[%d] = %s" % (rid, value))
            self.fwd[rid] = value
        elif rid < 16:
            self.use.add("win")
            out.append("wo[%d] = %s" % (rid - 8, value))
            self.fwd[rid] = value
        elif rid < 24:
            self.use.add("win")
            out.append("wl[%d] = %s" % (rid - 16, value))
            self.fwd[rid] = value
        elif rid < 32:
            self.use.add("win")
            out.append("if pi is not None:")
            out.append("    pi[%d] = %s" % (rid - 24, value))
            # the write is discarded at the outermost frame, so the
            # value must not be forwarded into later reads
            self.fwd.pop(rid, None)
        else:
            self.use.add("mon")
            out.append("mon[%d] = %s" % (rid - 32, value))
            self.fwd[rid] = value

    def operand2(self, op2) -> str:
        if op2.is_imm:
            return str(op2.value & _M)
        return self.read(op2.value)

    def ea_expr(self, addr) -> str:
        base = self.read(addr.rs1)
        if addr.rs2 is not None:
            return "(%s + %s) & 4294967295" % (base, self.read(addr.rs2))
        if addr.imm == 0:
            return base
        return "(%s + %d) & 4294967295" % (base, addr.imm)

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
        out.append("if cl[%d] == %d:" % (index, line))
        out.append("    ch += 1")
        out.append("else:")
        out.append("    cl[%d] = %d" % (index, line))
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
                  slot_npc: Optional[str] = None) -> None:
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
                out.append("_i = %d" % len(self.pcs))
            else:
                out.append("_xi = %d" % len(self.pcs))
                out.append("_xpc = %d" % pc)
                out.append("_xnpc = %s" % slot_npc)
                out.append("_i = -1")
            out.append("cycles += 1")
        else:
            self.pend_cycles += 1
        self.icache(pc, out, inline)
        kind = type(insn)
        if kind is ArithInsn:
            self.gen_arith(insn, out)
        elif kind is SethiInsn:
            self.write(insn.rd, str((insn.imm22 << 10) & _M), out)
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
        bind = insn.set_cc or op in ("sra", "smul", "sdiv")
        a = self.read(insn.rs1)
        if bind and not (a.isdigit() or a.startswith("_")):
            name = self.temp()
            out.append("%s = %s" % (name, a))
            a = name
        b = self.operand2(insn.op2)
        if bind and not (b.isdigit() or b.startswith("_")):
            name = self.temp()
            out.append("%s = %s" % (name, b))
            b = name
        value = self.temp()
        if op in _ALU_EXPR:
            if op in ("sll", "srl") and insn.op2.is_imm:
                # fold the shift-amount mask at compile time
                expr = _ALU_EXPR[op].replace("(%s & 31)", "%s") \
                    % (a, (insn.op2.value & _M) & 31)
            else:
                expr = _ALU_EXPR[op] % (a, b)
            out.append("%s = %s" % (value, expr))
        elif op == "sra":
            sa = self.temp()
            out.append("%s = %s - 4294967296 if %s & 2147483648 else %s"
                       % (sa, a, a, a))
            shift = str((insn.op2.value & _M) & 31) if insn.op2.is_imm \
                else "(%s & 31)" % b
            out.append("%s = (%s >> %s) & 4294967295" % (value, sa, shift))
        else:  # smul / sdiv
            sa = self.temp()
            sb = self.temp()
            out.append("%s = %s - 4294967296 if %s & 2147483648 else %s"
                       % (sa, a, a, a))
            out.append("%s = %s - 4294967296 if %s & 2147483648 else %s"
                       % (sb, b, b, b))
            if op == "smul":
                out.append("%s = (%s * %s) & 4294967295" % (value, sa, sb))
            else:
                out.append("if %s == 0:" % sb)
                out.append("    raise ZeroDivisionError('sdiv by zero')")
                quot = self.temp()
                out.append("%s = abs(%s) // abs(%s)" % (quot, sa, sb))
                out.append("if (%s < 0) != (%s < 0):" % (sa, sb))
                out.append("    %s = -%s" % (quot, quot))
                out.append("%s = %s & 4294967295" % (value, quot))
        self.write(insn.rd, value, out)
        self.pend_cycles += _ALU_EXTRA.get(op, 0)
        if insn.set_cc:
            self.use.add("flags")
            self.flags_written = True
            out.append("_fn = 1 if %s & 2147483648 else 0" % value)
            out.append("_fz = 1 if %s == 0 else 0" % value)
            if op == "add":
                out.append("_fc = 1 if %s + %s > 4294967295 else 0"
                           % (a, b))
                out.append(
                    "_fv = 1 if (~(%s ^ %s) & (%s ^ %s)) & 2147483648 "
                    "else 0" % (a, b, a, value))
            elif op == "sub":
                out.append("_fc = 1 if %s < %s else 0" % (a, b))
                out.append(
                    "_fv = 1 if ((%s ^ %s) & (%s ^ %s)) & 2147483648 "
                    "else 0" % (a, b, a, value))
            else:
                out.append("_fv = 0")
                out.append("_fc = 0")

    def gen_load(self, insn: LoadInsn, out: List[str],
                 inline: bool) -> None:
        self.use.update(("mem", "ld"))
        ea = self.temp()
        out.append("%s = %s" % (ea, self.ea_expr(insn.addr)))
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

    def _store_word(self, ea: str, value: str, site,
                    out: List[str]) -> None:
        out.append("st += 1")
        out.append("cycles += %d" % self.store_extra)
        self.dcache(ea, out)
        if self.tag == "orig":
            out.append("if cpu.record_writes:")
            out.append("    cpu.write_trace.append((%s, %s, 4))"
                       % (site, ea))
        out.append("if %s & 3:" % ea)
        out.append("    raise _MF('misaligned word write at 0x%%x' %% %s, "
                   "addr=%s)" % (ea, ea))
        out.append("if mem.faults is not None:")
        out.append("    mem.faults.trip(_MW, addr=%s, width=4)" % ea)
        out.append("mw[%s >> 2] = %s" % (ea, value))

    def gen_store(self, insn: StoreInsn, out: List[str]) -> None:
        self.use.update(("mem", "st"))
        ea = self.temp()
        out.append("%s = %s" % (ea, self.ea_expr(insn.addr)))
        value = self.read(insn.rd)
        site = repr(insn.site)
        if insn.width == 1:
            out.append("st += 1")
            out.append("cycles += %d" % self.store_extra)
            self.dcache(ea, out)
            if self.tag == "orig":
                out.append("if cpu.record_writes:")
                out.append("    cpu.write_trace.append((%s, %s, 1))"
                           % (site, ea))
            out.append("if mem.faults is not None:")
            out.append("    mem.faults.trip(_MW, addr=%s, width=1)" % ea)
            out.append("_x = %s >> 2" % ea)
            out.append("_s = (3 - (%s & 3)) * 8" % ea)
            out.append("mw[_x] = (mw.get(_x, 0) & ~(255 << _s)) | "
                       "((%s & 255) << _s)" % value)
            return
        self._store_word(ea, value, site, out)
        if insn.width == 8:
            ea4 = self.temp()
            out.append("%s = %s + 4" % (ea4, ea))
            self._store_word(ea4, self.read(insn.rd + 1), site, out)

    def gen_save(self, insn, out: List[str], push: bool) -> None:
        self.use.update(("win", "regs"))
        value = self.temp()
        out.append("%s = (%s + %s) & 4294967295"
                   % (value, self.read(insn.rs1),
                      self.operand2(insn.op2)))
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
            self.write(15, str(pc), out)   # %o7 <- pc of the call
            target = insn.target
        elif insn.cond == "a":
            target = insn.target
        else:                               # bn: falls through
            target = pc + 8
        self.pcs.append(pc)
        if slot is not None:
            self.emit_insn(slot, pc + 4, out, slot_npc=str(target))
        return target

    def emit_term(self, out: List[str]) -> None:
        kind, pc, insn, slot = self.term
        if kind == "xend":
            target = self.emit_xfer(pc, insn, slot, out)
            self.flush_static(out)
            out.append("_pc = %d" % target)
            out.append("_k = %d" % len(self.pcs))
            self.max_retire = len(self.pcs)
            return
        if kind == "jmpl":
            self.pend_cycles += 1
            self.icache(pc, out, inline=False)
            out.append("_tgt = (%s + %s) & 4294967295"
                       % (self.read(insn.rs1), self.operand2(insn.op2)))
            self.write(insn.rd, str(pc), out)
            self.pcs.append(pc)
            self.emit_insn(slot, pc + 4, out, slot_npc="_tgt")
            self.flush_static(out)
            out.append("_pc = _tgt")
            out.append("_k = %d" % len(self.pcs))
            self.max_retire = len(self.pcs)
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
                self.emit_insn(slot, pc + 4, arm,
                               slot_npc=str(arm_target))
            self.flush_static(arm)
            arm.append("_pc = %d" % arm_target)
            arm.append("_k = %d" % len(self.pcs))
            self.max_retire = max(self.max_retire, len(self.pcs))
            return arm

        then_arm = arm_to(target, True)
        else_arm = arm_to(fall, not insn.annul)
        out.append("if %s:" % _COND_EXPR[insn.cond])
        out.extend("    " + line for line in then_arm)
        out.append("else:")
        out.extend("    " + line for line in else_arm)

    # -- whole-function assembly -----------------------------------------

    def build(self) -> str:
        body: List[str] = []
        for _, pc, insn, slot in self.steps:
            if type(insn) in _CTI:
                self.emit_xfer(pc, insn, slot, body)
            else:
                self.emit_insn(insn, pc, body)
        if self.term is not None:
            self.emit_term(body)
        else:
            self.flush_static(body)
            body.append("_pc = %d" % self.fall)
            body.append("_k = %d" % len(self.pcs))
            self.max_retire = len(self.pcs)

        lines = ["def _blk(cpu):"]

        def emit(text: str, depth: int = 1) -> None:
            lines.append("    " * depth + text)

        if self.use & {"g", "win", "mon", "regs"}:
            emit("regs = cpu.regs")
        if "g" in self.use:
            emit("g = regs.globals")
        if "win" in self.use:
            emit("W = regs._window")
            emit("wo = W.outs")
            emit("wl = W.locals")
            emit("P = W.parent")
            emit("pi = P.outs if P is not None else None")
        if "mon" in self.use:
            emit("mon = regs.monitors")
        if "mem" in self.use:
            emit("mem = cpu.mem")
            emit("mw = mem.words")
        emit("cache = cpu.cache")
        emit("cl = cache.lines")
        emit("ch = cache.hits")
        emit("cm = cache.misses")
        emit("cy0 = cycles = cpu.cycles")
        emit("_c = cycles")
        emit("ic = cpu.instructions")
        if "ld" in self.use:
            emit("ld = cpu.loads")
        if "st" in self.use:
            emit("st = cpu.stores")
        if "flags" in self.use:
            emit("_fn = cpu.icc_n")
            emit("_fz = cpu.icc_z")
            emit("_fv = cpu.icc_v")
            emit("_fc = cpu.icc_c")
        emit("_i = 0")
        emit("try:")
        for line in body:
            emit(line, 2)
        emit("except BaseException:")
        emit("cpu.cycles = cycles", 2)
        emit("if _i < 0:", 2)
        emit("_k = _xi", 3)
        emit("cpu.pc = _xpc", 3)
        emit("cpu.npc = _xnpc", 3)
        emit("else:", 2)
        emit("_k = _i", 3)
        emit("cpu.pc = _PCS[_i]", 3)
        emit("cpu.npc = _PCS[_i] + 4", 3)
        emit("cpu.instructions = ic + _k", 2)
        emit("if _k:", 2)
        emit("tc = cpu.tag_counts", 3)
        emit("tgc = cpu.tag_cycles", 3)
        emit("tc[_TAG] = tc.get(_TAG, 0) + _k", 3)
        emit("tgc[_TAG] = tgc.get(_TAG, 0) + (_c - cy0)", 3)
        self._emit_flush(emit, 2)
        emit("raise", 2)
        emit("cpu.cycles = cycles")
        emit("cpu.instructions = ic + _k")
        emit("tc = cpu.tag_counts")
        emit("tgc = cpu.tag_cycles")
        emit("tc[_TAG] = tc.get(_TAG, 0) + _k")
        emit("tgc[_TAG] = tgc.get(_TAG, 0) + (cycles - cy0)")
        self._emit_flush(emit, 1)
        emit("cpu.pc = _pc")
        emit("cpu.npc = _pc + 4")
        emit("_bc.runs += 1")
        emit("_bc.retired += _k")
        return "\n".join(lines) + "\n"

    def _emit_flush(self, emit, depth: int) -> None:
        emit("cache.hits = ch", depth)
        emit("cache.misses = cm", depth)
        if "ld" in self.use:
            emit("cpu.loads = ld", depth)
        if "st" in self.use:
            emit("cpu.stores = st", depth)
        if self.flags_written:
            emit("cpu.icc_n = _fn", depth)
            emit("cpu.icc_z = _fz", depth)
            emit("cpu.icc_v = _fv", depth)
            emit("cpu.icc_c = _fc", depth)


#: generated sources whose code objects the process keeps.  About twice
#: the largest per-CPU working set measured (234 distinct sources in
#: one time-travel recording); an entry costs about 8.4 KB.
CODE_TABLE_SIZE = 512


@functools.lru_cache(maxsize=CODE_TABLE_SIZE)
def _code(source: str):
    """The code object of one generated block source, shared by every
    CPU in the process.  It holds no per-CPU state: each
    :func:`compile_block` call runs it in a fresh namespace."""
    return compile(source, "<block>", "exec")


def compile_block(cpu, entry: int, cache: "BlockCache"
                  ) -> Optional[BasicBlock]:
    """Decode and compile the trace entered at *entry*, or None."""
    decoded = _decode(cpu.code, entry)
    if decoded is None:
        return None
    builder = _Builder(cpu, entry, decoded)
    source = builder.build()
    namespace = {
        "_PCS": tuple(builder.pcs),
        "_MF": MemoryFault,
        "_MW": MEMORY_WRITE,
        "_TAG": builder.tag,
        "_bc": cache,
    }
    exec(_code(source), namespace)
    return BasicBlock(entry, namespace["_blk"], builder.max_retire,
                      len(builder.pcs), builder.tag)


class BlockCache:
    """Per-CPU cache of compiled blocks, keyed by entry pc.

    Invalidation is version-based: every :class:`CodeSpace` mutation
    (Kessler patches, appended patch blocks, checkpoint restores) bumps
    ``code.version``, and the dispatch loop (``CPU._run_until``) flushes
    the whole cache before its next lookup.  Whole-cache flushes keep
    the invalidation rules trivially sound (no per-pc range bookkeeping
    to get wrong), but they are not cheap: every entry is compiled again
    on its next miss, and compiling costs more than executing.  The
    shared code table (:func:`_code`) lets a recompile skip Python's
    ``compile()`` for a source seen before.
    """

    __slots__ = ("cpu", "blocks", "version", "decodes", "invalidations",
                 "runs", "retired")

    def __init__(self, cpu):
        self.cpu = cpu
        self.blocks: Dict[int, Optional[BasicBlock]] = {}
        self.version = cpu.code.version
        self.decodes = 0
        self.invalidations = 0
        #: fast-path executions / instructions retired through blocks
        self.runs = 0
        self.retired = 0

    def lookup(self, pc: int) -> Optional[BasicBlock]:
        """The block at *pc*, compiled on a miss.  The caller has
        already flushed the cache if ``code.version`` moved."""
        try:
            return self.blocks[pc]
        except KeyError:
            block = compile_block(self.cpu, pc, self)
            self.blocks[pc] = block
            self.decodes += 1
            return block

    def stats(self) -> Dict[str, int]:
        return {
            "cached_blocks": sum(1 for block in self.blocks.values()
                                 if block is not None),
            "decodes": self.decodes,
            "invalidations": self.invalidations,
            "block_runs": self.runs,
            "fast_retired": self.retired,
        }
