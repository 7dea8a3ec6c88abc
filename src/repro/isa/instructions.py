"""Instruction set for the SPARC-like target machine.

The set is a faithful subset of SPARC v8 integer instructions: 3-operand
ALU ops with optional condition-code setting, ``sethi``, loads and stores
of bytes / words / doublewords, delayed control transfers (``b<cond>``
with an optional annul bit, ``call``, ``jmpl``), register-window
``save``/``restore`` and the ``ta`` software trap.

Instructions are decoded once (by :mod:`repro.asm.parser`) into the
objects defined here; :class:`repro.machine.cpu.CPU` executes them by
calling :meth:`Instruction.execute`.  Every instruction carries a ``tag``
used by the evaluation harness to attribute cycles: ``"orig"`` for program
instructions, ``"check"`` / ``"lib"`` / ``"patch"`` / ``"preheader"`` /
``"fpcheck"`` / ``"jmpcheck"`` / ``"pad"`` for code added by the monitored
region service (see DESIGN.md §3).
"""

from __future__ import annotations

from repro.errors import ReproError

from typing import Optional

from repro.isa.registers import register_name

WORD_MASK = 0xFFFFFFFF
SIGN_BIT = 0x80000000

#: simm13 immediate range accepted by ALU / memory instructions.
SIMM13_MIN = -4096
SIMM13_MAX = 4095


class IsaError(ReproError):
    """Raised for malformed instructions (bad immediate, bad operand)."""


def to_signed(value: int) -> int:
    """Interpret a 32-bit value as a signed integer."""
    value &= WORD_MASK
    return value - 0x100000000 if value & SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Truncate a Python integer to its 32-bit two's-complement bits."""
    return value & WORD_MASK


def check_simm13(value: int) -> int:
    if not SIMM13_MIN <= value <= SIMM13_MAX:
        raise IsaError("immediate %d out of simm13 range" % value)
    return value


class Operand2:
    """Second ALU source: either a register or a simm13 immediate."""

    __slots__ = ("is_imm", "value")

    def __init__(self, is_imm: bool, value: int):
        self.is_imm = is_imm
        self.value = check_simm13(value) if is_imm else value

    @classmethod
    def reg(cls, rid: int) -> "Operand2":
        return cls(False, rid)

    @classmethod
    def imm(cls, value: int) -> "Operand2":
        return cls(True, value)

    def read(self, regs) -> int:
        if self.is_imm:
            return self.value & WORD_MASK
        return regs.read(self.value)

    def __str__(self) -> str:
        return str(self.value) if self.is_imm else register_name(self.value)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Operand2) and self.is_imm == other.is_imm
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.is_imm, self.value))


class Instruction:
    """Base class for decoded instructions."""

    __slots__ = ("tag", "site")
    #: mnemonic, set by subclasses
    mnemonic = "?"

    def __init__(self):
        self.tag = "orig"
        #: write-site id assigned by the instrumenter (stores only).
        self.site: Optional[int] = None

    def execute(self, cpu) -> None:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.mnemonic


# ---------------------------------------------------------------------------
# ALU operations
# ---------------------------------------------------------------------------

def _op_add(a: int, b: int) -> int:
    return (a + b) & WORD_MASK


def _op_sub(a: int, b: int) -> int:
    return (a - b) & WORD_MASK


def _op_and(a: int, b: int) -> int:
    return a & b


def _op_andn(a: int, b: int) -> int:
    return a & ~b & WORD_MASK


def _op_or(a: int, b: int) -> int:
    return a | b


def _op_xor(a: int, b: int) -> int:
    return a ^ b


def _op_sll(a: int, b: int) -> int:
    return (a << (b & 31)) & WORD_MASK


def _op_srl(a: int, b: int) -> int:
    return (a & WORD_MASK) >> (b & 31)


def _op_sra(a: int, b: int) -> int:
    return to_unsigned(to_signed(a) >> (b & 31))


def _op_smul(a: int, b: int) -> int:
    return to_unsigned(to_signed(a) * to_signed(b))


def _op_sdiv(a: int, b: int) -> int:
    sb = to_signed(b)
    if sb == 0:
        raise ZeroDivisionError("sdiv by zero")
    sa = to_signed(a)
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return to_unsigned(quotient)


ALU_OPS = {
    "add": _op_add,
    "sub": _op_sub,
    "and": _op_and,
    "andn": _op_andn,
    "or": _op_or,
    "xor": _op_xor,
    "sll": _op_sll,
    "srl": _op_srl,
    "sra": _op_sra,
    "smul": _op_smul,
    "sdiv": _op_sdiv,
}

#: extra cycles beyond the 1-cycle base, per ALU op.
ALU_EXTRA_CYCLES = {"smul": 4, "sdiv": 19}


def alu_icc(op: str, a: int, b: int, result: int):
    """The condition codes ``(n, z, v, c)`` an ``op``cc sets when it
    computes *result* from the 32-bit operands *a* and *b*."""
    n = 1 if result & SIGN_BIT else 0
    z = 1 if result == 0 else 0
    if op == "add":
        return (n, z, 1 if (~(a ^ b) & (a ^ result)) & SIGN_BIT else 0,
                1 if a + b > WORD_MASK else 0)
    if op == "sub":
        return (n, z, 1 if ((a ^ b) & (a ^ result)) & SIGN_BIT else 0,
                1 if a < b else 0)
    return n, z, 0, 0


class ArithInsn(Instruction):
    """3-operand ALU instruction, optionally setting the condition codes."""

    __slots__ = ("op", "rs1", "op2", "rd", "set_cc", "_fn")

    def __init__(self, op: str, rs1: int, op2: Operand2, rd: int,
                 set_cc: bool = False):
        super().__init__()
        if op not in ALU_OPS:
            raise IsaError("unknown ALU op %r" % op)
        self.op = op
        self.rs1 = rs1
        self.op2 = op2
        self.rd = rd
        self.set_cc = set_cc
        self._fn = ALU_OPS[op]

    @property
    def mnemonic(self) -> str:
        return self.op + ("cc" if self.set_cc else "")

    def execute(self, cpu) -> None:
        regs = cpu.regs
        a = regs.read(self.rs1)
        b = self.op2.read(regs)
        result = self._fn(a, b)
        regs.write(self.rd, result)
        extra = ALU_EXTRA_CYCLES.get(self.op)
        if extra:
            cpu.charge(extra)
        if self.set_cc:
            cpu.set_icc(*alu_icc(self.op, a, b, result))

    def __str__(self) -> str:
        return "%s %s,%s,%s" % (self.mnemonic, register_name(self.rs1),
                                self.op2, register_name(self.rd))


class SethiInsn(Instruction):
    """``sethi imm22, rd``: rd = imm22 << 10."""

    __slots__ = ("imm22", "rd")
    mnemonic = "sethi"

    def __init__(self, imm22: int, rd: int):
        super().__init__()
        if not 0 <= imm22 < (1 << 22):
            raise IsaError("sethi immediate out of range")
        self.imm22 = imm22
        self.rd = rd

    def execute(self, cpu) -> None:
        cpu.regs.write(self.rd, (self.imm22 << 10) & WORD_MASK)

    def __str__(self) -> str:
        return "sethi %%hi(0x%x),%s" % (self.imm22 << 10,
                                        register_name(self.rd))


class NopInsn(Instruction):
    """``nop`` (architecturally ``sethi 0, %g0``)."""

    __slots__ = ()
    mnemonic = "nop"

    def execute(self, cpu) -> None:
        return None


# ---------------------------------------------------------------------------
# Memory access
# ---------------------------------------------------------------------------

class MemAddress:
    """``[rs1 + rs2]`` or ``[rs1 + simm13]`` effective address."""

    __slots__ = ("rs1", "rs2", "imm")

    def __init__(self, rs1: int, rs2: Optional[int] = None, imm: int = 0):
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = 0 if rs2 is not None else check_simm13(imm)

    def effective(self, regs) -> int:
        base = regs.read(self.rs1)
        if self.rs2 is not None:
            return (base + regs.read(self.rs2)) & WORD_MASK
        return (base + self.imm) & WORD_MASK

    def __str__(self) -> str:
        if self.rs2 is not None:
            return "[%s+%s]" % (register_name(self.rs1),
                                register_name(self.rs2))
        if self.imm:
            return "[%s%+d]" % (register_name(self.rs1), self.imm)
        return "[%s]" % register_name(self.rs1)


class LoadInsn(Instruction):
    """``ld``/``ldub``/``ldsb``/``ldd`` — memory load."""

    __slots__ = ("width", "signed", "addr", "rd")

    def __init__(self, width: int, addr: MemAddress, rd: int,
                 signed: bool = False):
        super().__init__()
        if width not in (1, 4, 8):
            raise IsaError("unsupported load width %d" % width)
        self.width = width
        self.signed = signed
        self.addr = addr
        self.rd = rd

    @property
    def mnemonic(self) -> str:
        if self.width == 1:
            return "ldsb" if self.signed else "ldub"
        return "ldd" if self.width == 8 else "ld"

    def execute(self, cpu) -> None:
        ea = self.addr.effective(cpu.regs)
        if self.width == 1:
            value = cpu.load_byte(ea)
            if self.signed and value & 0x80:
                value |= 0xFFFFFF00
            cpu.regs.write(self.rd, value)
        elif self.width == 4:
            cpu.regs.write(self.rd, cpu.load_word(ea))
        else:
            if self.rd & 1:
                raise IsaError("ldd destination must be even register")
            cpu.regs.write(self.rd, cpu.load_word(ea))
            cpu.regs.write(self.rd + 1, cpu.load_word(ea + 4))

    def __str__(self) -> str:
        return "%s %s,%s" % (self.mnemonic, self.addr,
                             register_name(self.rd))


class StoreInsn(Instruction):
    """``st``/``stb``/``std`` — memory store (a *write instruction*)."""

    __slots__ = ("width", "rd", "addr")

    def __init__(self, width: int, rd: int, addr: MemAddress):
        super().__init__()
        if width not in (1, 4, 8):
            raise IsaError("unsupported store width %d" % width)
        self.width = width
        self.rd = rd
        self.addr = addr

    @property
    def mnemonic(self) -> str:
        if self.width == 1:
            return "stb"
        return "std" if self.width == 8 else "st"

    def execute(self, cpu) -> None:
        ea = self.addr.effective(cpu.regs)
        value = cpu.regs.read(self.rd)
        if self.width == 1:
            cpu.store_byte(ea, value & 0xFF, self)
        elif self.width == 4:
            cpu.store_word(ea, value, self)
        else:
            if self.rd & 1:
                raise IsaError("std source must be even register")
            cpu.store_word(ea, value, self)
            cpu.store_word(ea + 4, cpu.regs.read(self.rd + 1), self)

    def __str__(self) -> str:
        return "%s %s,%s" % (self.mnemonic, register_name(self.rd),
                             self.addr)


# ---------------------------------------------------------------------------
# Control transfer
# ---------------------------------------------------------------------------

def _cc_a(n, z, v, c):
    return True


def _cc_n(n, z, v, c):
    return False


def _cc_e(n, z, v, c):
    return z == 1


def _cc_ne(n, z, v, c):
    return z == 0


def _cc_l(n, z, v, c):
    return (n ^ v) == 1


def _cc_le(n, z, v, c):
    return z == 1 or (n ^ v) == 1


def _cc_g(n, z, v, c):
    return not (z == 1 or (n ^ v) == 1)


def _cc_ge(n, z, v, c):
    return (n ^ v) == 0


def _cc_lu(n, z, v, c):
    return c == 1


def _cc_leu(n, z, v, c):
    return c == 1 or z == 1


def _cc_gu(n, z, v, c):
    return not (c == 1 or z == 1)


def _cc_geu(n, z, v, c):
    return c == 0


def _cc_neg(n, z, v, c):
    return n == 1


def _cc_pos(n, z, v, c):
    return n == 0


BRANCH_CONDS = {
    "a": _cc_a, "n": _cc_n, "e": _cc_e, "ne": _cc_ne,
    "l": _cc_l, "le": _cc_le, "g": _cc_g, "ge": _cc_ge,
    "lu": _cc_lu, "leu": _cc_leu, "gu": _cc_gu, "geu": _cc_geu,
    "neg": _cc_neg, "pos": _cc_pos,
}

#: conditions whose branch is the logical negation of another; used by
#: analyses that reason about the false edge.
NEGATED_COND = {
    "a": "n", "n": "a", "e": "ne", "ne": "e", "l": "ge", "ge": "l",
    "le": "g", "g": "le", "lu": "geu", "geu": "lu", "leu": "gu",
    "gu": "leu", "neg": "pos", "pos": "neg",
}


class BranchInsn(Instruction):
    """``b<cond>[,a] target`` — delayed conditional branch.

    SPARC annul semantics: for conditional branches the delay slot is
    annulled only when the branch is *not* taken; for ``ba,a`` the delay
    slot is always annulled (which is what makes single-instruction
    Kessler patches possible); ``bn,a`` annuls unconditionally too.
    """

    __slots__ = ("cond", "annul", "target", "_fn")

    def __init__(self, cond: str, target: int, annul: bool = False):
        super().__init__()
        if cond not in BRANCH_CONDS:
            raise IsaError("unknown branch condition %r" % cond)
        self.cond = cond
        self.annul = annul
        self.target = target
        self._fn = BRANCH_CONDS[cond]

    @property
    def mnemonic(self) -> str:
        return "b" + self.cond + (",a" if self.annul else "")

    def execute(self, cpu) -> None:
        taken = self._fn(cpu.icc_n, cpu.icc_z, cpu.icc_v, cpu.icc_c)
        if taken:
            # ``ba,a`` annuls its delay slot even though taken.
            annul_slot = self.annul and self.cond == "a"
            cpu.branch_taken(self.target, annul_slot)
        elif self.annul:
            cpu.branch_untaken_annul()

    def __str__(self) -> str:
        return "%s 0x%x" % (self.mnemonic, self.target)


class CallInsn(Instruction):
    """``call target`` — pc to ``%o7``, delayed transfer."""

    __slots__ = ("target",)
    mnemonic = "call"

    def __init__(self, target: int):
        super().__init__()
        self.target = target

    def execute(self, cpu) -> None:
        cpu.regs.write(15, cpu.pc)  # %o7
        cpu.branch_taken(self.target, False)

    def __str__(self) -> str:
        return "call 0x%x" % self.target


class JmplInsn(Instruction):
    """``jmpl rs1+op2, rd`` — indirect jump; ``ret`` is jmpl %i7+8, %g0."""

    __slots__ = ("rs1", "op2", "rd")
    mnemonic = "jmpl"

    def __init__(self, rs1: int, op2: Operand2, rd: int):
        super().__init__()
        self.rs1 = rs1
        self.op2 = op2
        self.rd = rd

    def execute(self, cpu) -> None:
        target = (cpu.regs.read(self.rs1) + self.op2.read(cpu.regs)) \
            & WORD_MASK
        cpu.regs.write(self.rd, cpu.pc)
        cpu.branch_taken(target, False)

    def __str__(self) -> str:
        return "jmpl %s+%s,%s" % (register_name(self.rs1), self.op2,
                                  register_name(self.rd))


class SaveInsn(Instruction):
    """``save rs1, op2, rd`` — add in the old window, then push a window."""

    __slots__ = ("rs1", "op2", "rd")
    mnemonic = "save"

    def __init__(self, rs1: int, op2: Operand2, rd: int):
        super().__init__()
        self.rs1 = rs1
        self.op2 = op2
        self.rd = rd

    def execute(self, cpu) -> None:
        regs = cpu.regs
        result = (regs.read(self.rs1) + self.op2.read(regs)) & WORD_MASK
        overflow = regs.save_window()
        regs.write(self.rd, result)
        if overflow:
            cpu.charge(cpu.costs.window_trap)
        cpu.notify_window(+1)

    def __str__(self) -> str:
        return "save %s,%s,%s" % (register_name(self.rs1), self.op2,
                                  register_name(self.rd))


class RestoreInsn(Instruction):
    """``restore [rs1, op2, rd]`` — add in old window, pop, write in new."""

    __slots__ = ("rs1", "op2", "rd")
    mnemonic = "restore"

    def __init__(self, rs1: int = 0, op2: Operand2 = None, rd: int = 0):
        super().__init__()
        self.rs1 = rs1
        self.op2 = op2 if op2 is not None else Operand2.imm(0)
        self.rd = rd

    def execute(self, cpu) -> None:
        regs = cpu.regs
        result = (regs.read(self.rs1) + self.op2.read(regs)) & WORD_MASK
        underflow = regs.restore_window()
        regs.write(self.rd, result)
        if underflow:
            cpu.charge(cpu.costs.window_trap)
        cpu.notify_window(-1)

    def __str__(self) -> str:
        return "restore %s,%s,%s" % (register_name(self.rs1), self.op2,
                                     register_name(self.rd))


class TrapInsn(Instruction):
    """``ta code`` — software trap into the host (Python) trap handlers."""

    __slots__ = ("code",)
    mnemonic = "ta"

    def __init__(self, code: int):
        super().__init__()
        self.code = code

    def execute(self, cpu) -> None:
        cpu.trap(self.code)

    def __str__(self) -> str:
        return "ta 0x%x" % self.code
