"""Three-address intermediate representation (§4.1).

The analysis tool "converts this sequence into an intermediate
representation (IR) which is defined as a set of 3-address codes".  Our
IR is analysis-only: it never regenerates program code (the rewriter
only adds or removes *checks*), so each op remembers the statement it
came from.

Variables are named by tuples before SSA renaming:

* ``("r", rid)``   — an architectural register;
* ``("v", key)``   — a pseudo-operand introduced by symbol-table pattern
  matching (§4.2): a memory-resident variable promoted to an IR
  variable so induction analysis can see its def-use cycle;
* ``("cc",)``      — the integer condition codes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

VarName = Tuple


class Const:
    """Integer constant operand."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __repr__(self) -> str:
        return "#%d" % self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("const", self.value))


class SymAddr:
    """Address constant: a data symbol plus addend (from sethi/or)."""

    __slots__ = ("name", "addend")

    def __init__(self, name: str, addend: int = 0):
        self.name = name
        self.addend = addend

    def __repr__(self) -> str:
        return "&%s%+d" % (self.name, self.addend) if self.addend \
            else "&%s" % self.name

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymAddr) and self.name == other.name
                and self.addend == other.addend)

    def __hash__(self) -> int:
        return hash(("symaddr", self.name, self.addend))


class SsaVar:
    """One SSA name: base variable + version, with a link to its def."""

    __slots__ = ("name", "version", "def_op")

    def __init__(self, name: VarName, version: int):
        self.name = name
        self.version = version
        self.def_op: Optional["IrOp"] = None

    def __repr__(self) -> str:
        base = ".".join(str(part) for part in self.name)
        return "%s_%d" % (base, self.version)


Value = Union[Const, SymAddr, SsaVar, VarName]


class IrOp:
    """One IR operation.

    ``kind`` is one of: ``alu`` (with ``op``), ``move``, ``sethi``,
    ``ld``, ``st``, ``call``, ``trap``, ``branch`` (conditional),
    ``jump``, ``ret``, ``save``, ``restore``, ``phi``, ``assert``,
    ``entry``.
    """

    __slots__ = ("kind", "op", "defs", "uses", "stmt_index", "site",
                 "block", "relation", "mem", "width")

    def __init__(self, kind: str, defs: List, uses: List,
                 stmt_index: int = -1, op: str = "",
                 site: Optional[int] = None, relation: str = "",
                 mem=None, width: int = 4):
        self.kind = kind
        self.op = op
        self.defs = defs
        self.uses = uses
        self.stmt_index = stmt_index
        self.site = site
        self.block = None
        #: for assert ops: the relation that holds ("lt", "le", ...)
        self.relation = relation
        #: for ld/st ops: the (base, index, disp) memory operand values
        self.mem = mem
        self.width = width

    def __repr__(self) -> str:
        head = self.op or self.kind
        defs = ",".join(map(repr, self.defs))
        uses = ",".join(map(repr, self.uses))
        return "<%s %s := %s>" % (head, defs or "-", uses)


def walk_to_def(value: Value) -> Value:
    """Follow move and assert chains to an underlying value.

    Asserts preserve the value of their operand; moves copy it.  This is
    the "seeing through" used by monotonic-variable detection.
    """
    seen = set()
    while isinstance(value, SsaVar) and value.def_op is not None:
        if id(value) in seen:
            break
        seen.add(id(value))
        op = value.def_op
        if op.kind == "move":
            value = op.uses[0]
            continue
        if op.kind == "assert":
            # an assert redefines both operands; find which one we are
            position = op.defs.index(value)
            value = op.uses[position]
            continue
        break
    return value
