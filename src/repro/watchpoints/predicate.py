"""The watchpoint predicate language.

A predicate is one mini-C expression over the state of a data
breakpoint hit, compiled **once** at arm time into a tree of
closed-over Python evaluators — never interpreted per hit, and never
``eval``'d.  The grammar is exactly the mini-C expression grammar
(:mod:`repro.minic.cparser` is reused wholesale), extended with four
hit-scoped special variables:

``$value``
    the word at the accessed address *after* the access;
``$old``
    the word at the accessed address *before* the access (from the
    debugger's one old-value shadow, ``Debugger.shadow``, which the
    recorded trace's old values also read — §2.1 write checks run
    after the store lands, so the overwritten value cannot be read
    back);
``$addr`` / ``$size``
    the accessed address and width in bytes.

Plain identifiers resolve through the debuggee's symbol table at
compile time (globals, ``a[i]`` with a computed index, ``s.f`` field
stabs); their loads happen at evaluation time against live debuggee
memory.  Anything unresolvable — an undefined symbol, a register or
frame-local variable, a function call — is a structured
:class:`~repro.errors.PredicateCompileError` at *arm* time, carrying
the offending token, so a bad predicate is rejected when the
watchpoint is set rather than exploding at its first hit.

Two compile-time properties make the hit fast path cheap:

* **constant folding** — any pure subtree of literals collapses to
  its value during compilation; a predicate that folds to a constant
  never touches debuggee memory at all;
* **dependency tracking** — the compiler records which of
  ``{"value", "old", "mem"}`` the predicate can touch, so the
  evaluation engine skips the memory reads a predicate cannot
  observe (the byte-range guard rejects most hits before *any*
  debuggee memory is read).

Runtime failures — division by zero, a dereference outside mapped
memory, an out-of-range index — raise structured
:class:`~repro.errors.PredicateError`; the engine converts those into
a disarm of the offending watchpoint, not a dead session.
"""

from __future__ import annotations

import re
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.errors import PredicateCompileError, PredicateError
from repro.isa.instructions import to_signed
from repro.minic import cast as A
from repro.minic.cparser import Parser
from repro.minic.lexer import CompileError

__all__ = ["EvalContext", "Predicate", "SPECIALS", "compile_predicate",
           "condition_to_expr"]

#: the hit-scoped special variables, spelled ``$name`` in source
SPECIALS = ("value", "old", "addr", "size")

_WORD = 0xFFFFFFFF
_MANGLE = "__wp_"
_DOLLAR_RE = re.compile(r"\$([A-Za-z_]\w*|)")
#: the pre-predicate condition dialect (``">= 100"``) still spoken by
#: v1-v3 clients; it desugars to ``$value OP literal``
_LEGACY_COND_RE = re.compile(r"^\s*(==|!=|<=|>=|<|>)\s*(-?\d+)\s*$")


def _wrap(value: int) -> int:
    """Clamp to signed 32-bit two's-complement, like the simulator."""
    return to_signed(value & _WORD)


class EvalContext:
    """Everything a predicate may observe about one hit."""

    __slots__ = ("value", "old", "addr", "size", "read_word")

    def __init__(self, value: int = 0, old: int = 0, addr: int = 0,
                 size: int = 4,
                 read_word: Optional[Callable[[int], int]] = None):
        self.value = value
        self.old = old
        self.addr = addr
        self.size = size
        #: reads one *signed* word of debuggee memory (raises
        #: PredicateError for unmapped/misaligned addresses)
        self.read_word = read_word


class Predicate:
    """One compiled predicate: source text + evaluator + metadata."""

    __slots__ = ("source", "deps", "const", "_fn", "reads",
                 "dynamic_reads", "uses_hit")

    def __init__(self, source: str, fn: Callable[[EvalContext], int],
                 deps: FrozenSet[str], const: Optional[int],
                 reads: Tuple[Tuple[int, int], ...] = (),
                 dynamic_reads: bool = False, uses_hit: bool = False):
        self.source = source
        self._fn = fn
        #: which hit facts the evaluator can touch, from
        #: {"value", "old", "mem"} ($addr/$size are free)
        self.deps = deps
        #: folded value when the whole predicate is a constant
        self.const = const
        #: statically-resolved ``(address, extent)`` byte ranges the
        #: evaluator may load from (an indexed array contributes its
        #: whole extent); the dependency footprint the pruner tests
        #: write-site alias facts against
        self.reads = reads
        #: True when some load's address is computed at hit time (a
        #: ``*expr`` deref) — the footprint is then unbounded
        self.dynamic_reads = dynamic_reads
        #: True when the predicate observes $addr/$size (its value can
        #: differ between hits even with identical memory)
        self.uses_hit = uses_hit

    @property
    def needs_memory(self) -> bool:
        return "mem" in self.deps

    @property
    def needs_value(self) -> bool:
        return "value" in self.deps

    @property
    def needs_old(self) -> bool:
        return "old" in self.deps

    def evaluate(self, ctx: EvalContext) -> int:
        """The predicate's integer value for one hit (C semantics)."""
        if self.const is not None:
            return self.const
        return self._fn(ctx)

    def truth(self, ctx: EvalContext) -> bool:
        return bool(self.evaluate(ctx))

    def __repr__(self) -> str:
        return "<Predicate %r deps=%s%s>" % (
            self.source, "{%s}" % ",".join(sorted(self.deps)),
            " const=%d" % self.const if self.const is not None else "")


def condition_to_expr(text: str) -> str:
    """Desugar a wire-level ``condition`` into predicate source.

    The pre-v4 condition dialect ``"OP literal"`` (e.g. ``">= 100"``)
    becomes ``$value OP literal``; anything else is already predicate
    source and passes through untouched.
    """
    match = _LEGACY_COND_RE.match(text)
    if match is not None:
        return "$value %s %s" % (match.group(1), match.group(2))
    return text


# -- parsing ------------------------------------------------------------------

def _parse(source: str) -> A.Expr:
    """Parse predicate *source* (with ``$name`` specials) to an AST."""

    def mangle(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name not in SPECIALS:
            raise PredicateCompileError(
                "unknown special variable $%s (have: %s)"
                % (name, ", ".join("$" + s for s in SPECIALS)),
                token="$%s" % name, source=source)
        return _MANGLE + name

    mangled = _DOLLAR_RE.sub(mangle, source)
    try:
        parser = Parser(mangled)
        expr = parser.parse_expression()
        trailing = parser.tok
    except CompileError as exc:
        raise PredicateCompileError(
            "cannot parse predicate %r: %s" % (source, exc),
            token=None, source=source) from exc
    if trailing.kind != "eof":
        raise PredicateCompileError(
            "trailing %r after predicate" % trailing.value,
            token=trailing.value, source=source)
    return expr


# -- compilation --------------------------------------------------------------

_Compiled = Tuple[Callable[[EvalContext], int], FrozenSet[str],
                  Optional[int]]

_EMPTY: FrozenSet[str] = frozenset()
_MEM: FrozenSet[str] = frozenset(("mem",))


class _Compiler:
    """Compiles a predicate AST into nested closures.

    *symtab* (a :class:`repro.asm.symtab.SymbolTable`) resolves plain
    identifiers; without one, only the ``$`` specials are available
    (unit tests, address-only predicates).
    """

    def __init__(self, source: str, symtab=None,
                 func: Optional[str] = None):
        self.source = source
        self.symtab = symtab
        self.func = func
        #: (address, extent) ranges compiled loads may touch; only
        #: loads that made it into the fast path are recorded (a
        #: folded-away branch can never execute, hence never read)
        self.reads: List[Tuple[int, int]] = []
        #: a load whose address is computed per hit was compiled
        self.dynamic_reads = False
        #: $addr/$size appeared in a compiled subtree
        self.uses_hit = False

    def error(self, message: str, token: Optional[str]
              ) -> PredicateCompileError:
        return PredicateCompileError(message, token=token,
                                     source=self.source)

    # each _compile_* returns (fn, deps, const); const is not None only
    # when the subtree folded to a literal (then fn ignores the ctx)

    def compile(self, node: A.Expr) -> _Compiled:
        method = getattr(self, "_compile_" + type(node).__name__.lower(),
                         None)
        if method is None:
            raise self.error("%s is not allowed in a predicate"
                             % type(node).__name__, None)
        return method(node)

    @staticmethod
    def _const(value: int) -> _Compiled:
        value = _wrap(value)
        return (lambda ctx: value), _EMPTY, value

    def _compile_num(self, node: A.Num) -> _Compiled:
        return self._const(node.value)

    def _compile_str(self, node: A.Str) -> _Compiled:
        raise self.error("string literals are not allowed in a "
                         "predicate", repr(node.value))

    def _compile_call(self, node: A.Call) -> _Compiled:
        raise self.error("function calls are not allowed in a "
                         "predicate", node.name)

    def _compile_var(self, node: A.Var) -> _Compiled:
        name = node.name
        if name.startswith(_MANGLE):
            special = name[len(_MANGLE):]
            if special == "value":
                return (lambda ctx: ctx.value), frozenset(("value",)), None
            if special == "old":
                return (lambda ctx: ctx.old), frozenset(("old",)), None
            if special == "addr":
                self.uses_hit = True
                return (lambda ctx: ctx.addr), _EMPTY, None
            self.uses_hit = True
            return (lambda ctx: ctx.size), _EMPTY, None
        entry = self._lookup(name)
        if entry.size > 4:
            raise self.error(
                "%s is %d bytes; predicate loads are word-sized "
                "(index or field it)" % (name, entry.size), name)
        address = entry.address
        self.reads.append((address, 4))

        def load(ctx: EvalContext) -> int:
            return ctx.read_word(address)

        return load, _MEM, None

    def _lookup(self, name: str):
        from repro.asm.symtab import SymbolError
        if self.symtab is None:
            raise self.error("undefined symbol %r (no symbol table in "
                             "scope)" % name, name)
        try:
            entry = self.symtab.lookup(name, self.func)
        except SymbolError:
            raise self.error("undefined symbol %r in predicate" % name,
                             name)
        if entry.kind == "register":
            raise self.error(
                "%s lives in a register; predicates read memory — "
                "use $value/$old for the watched storage" % name, name)
        if entry.is_frame_relative():
            raise self.error(
                "%s is frame-local; its frame may be dead at hit time "
                "— use $value/$old or a global" % name, name)
        if entry.address is None:
            raise self.error("%s has no storage address" % name, name)
        return entry

    def _address_of(self, node: A.Expr) -> _Compiled:
        """Compile an lvalue to its *address* (for & and loads)."""
        if isinstance(node, A.Var):
            if node.name.startswith(_MANGLE):
                raise self.error("cannot take the address of a $ "
                                 "special", "$" + node.name[len(_MANGLE):])
            entry = self._lookup(node.name)
            return self._const(entry.address)
        if isinstance(node, A.Field) and isinstance(node.base, A.Var):
            if node.arrow:
                raise self.error("-> is not supported in predicates "
                                 "(dereference explicitly)", node.name)
            entry = self._lookup("%s.%s" % (node.base.name, node.name))
            return self._const(entry.address)
        if isinstance(node, A.Index) and isinstance(node.base, A.Var):
            entry = self._lookup(node.base.name)
            elem = entry.elem or 4
            limit = entry.size
            base_addr = entry.address
            name = node.base.name
            index_fn, index_deps, index_const = self.compile(node.index)
            if index_const is not None:
                offset = index_const * elem
                if not 0 <= offset < limit:
                    raise self.error("%s[%d] is out of range"
                                     % (name, index_const), name)
                return self._const(base_addr + offset)

            def address(ctx: EvalContext) -> int:
                index = index_fn(ctx)
                offset = index * elem
                if not 0 <= offset < limit:
                    raise PredicateError(
                        "%s[%d] is out of range in predicate"
                        % (name, index), reason="bad_index",
                        symbol=name, index=index)
                return base_addr + offset

            # computed index: the load may land anywhere in the array
            self.reads.append((base_addr, limit))
            return address, index_deps | _MEM, None
        raise self.error("cannot take the address of this expression",
                         None)

    def _compile_index(self, node: A.Index) -> _Compiled:
        address_fn, deps, const = self._address_of(node)
        if const is not None:
            addr = const
            self.reads.append((addr, 4))
            return (lambda ctx: ctx.read_word(addr)), _MEM, None
        return (lambda ctx: ctx.read_word(address_fn(ctx))), \
            deps | _MEM, None

    def _compile_field(self, node: A.Field) -> _Compiled:
        address_fn, _deps, const = self._address_of(node)
        addr = const
        self.reads.append((addr, 4))
        return (lambda ctx: ctx.read_word(addr)), _MEM, None

    def _compile_unary(self, node: A.Unary) -> _Compiled:
        if node.op == "&":
            return self._address_of(node.operand)
        if node.op == "*":
            fn, deps, const = self.compile(node.operand)
            if const is not None:
                addr = const
                self.reads.append((addr, 4))
                return (lambda ctx: ctx.read_word(addr)), _MEM, None
            # address computed per hit: unbounded read footprint
            self.dynamic_reads = True
            return (lambda ctx: ctx.read_word(fn(ctx))), \
                deps | _MEM, None
        fn, deps, const = self.compile(node.operand)
        op = node.op
        if const is not None:
            return self._const(_apply_unary(op, const))
        if op == "-":
            return (lambda ctx: _wrap(-fn(ctx))), deps, None
        if op == "!":
            return (lambda ctx: 0 if fn(ctx) else 1), deps, None
        if op == "~":
            return (lambda ctx: _wrap(~fn(ctx))), deps, None
        raise self.error("unsupported unary operator %r" % op, op)

    def _compile_binary(self, node: A.Binary) -> _Compiled:
        op = node.op
        left_fn, left_deps, left_const = self.compile(node.left)
        # short-circuit folding: a constant left side of &&/|| decides
        # whether the right side is even compiled into the fast path
        if op in ("&&", "||") and left_const is not None:
            taken = bool(left_const)
            if (op == "&&" and not taken) or (op == "||" and taken):
                return self._const(0 if op == "&&" else 1)
            right_fn, right_deps, right_const = self.compile(node.right)
            if right_const is not None:
                return self._const(1 if right_const else 0)
            return (lambda ctx: 1 if right_fn(ctx) else 0), \
                right_deps, None
        right_fn, right_deps, right_const = self.compile(node.right)
        deps = left_deps | right_deps
        if op not in ("&&", "||") and _BINARY_OPS.get(op) is None:
            raise self.error("unsupported operator %r" % op, op)
        if left_const is not None and right_const is not None:
            try:
                return self._const(
                    _apply_binary(op, left_const, right_const))
            except PredicateError as exc:
                raise self.error(
                    "constant subexpression faults: %s" % exc, op)
        if op == "&&":
            return (lambda ctx: 1 if (left_fn(ctx) and right_fn(ctx))
                    else 0), deps, None
        if op == "||":
            return (lambda ctx: 1 if (left_fn(ctx) or right_fn(ctx))
                    else 0), deps, None
        apply = _BINARY_OPS[op]
        return (lambda ctx: apply(left_fn(ctx), right_fn(ctx))), \
            deps, None

    def _compile_ternary(self, node: A.Ternary) -> _Compiled:
        cond_fn, cond_deps, cond_const = self.compile(node.cond)
        if cond_const is not None:
            return self.compile(node.then if cond_const
                                else node.other)
        then_fn, then_deps, _then_const = self.compile(node.then)
        other_fn, other_deps, _other_const = self.compile(node.other)
        deps = cond_deps | then_deps | other_deps
        return (lambda ctx: then_fn(ctx) if cond_fn(ctx)
                else other_fn(ctx)), deps, None


def _apply_unary(op: str, value: int) -> int:
    if op == "-":
        return _wrap(-value)
    if op == "!":
        return 0 if value else 1
    return _wrap(~value)  # "~"


def _apply_binary(op: str, left: int, right: int) -> int:
    if op == "&&":
        return 1 if (left and right) else 0
    if op == "||":
        return 1 if (left or right) else 0
    return _BINARY_OPS[op](left, right)


def _div(left: int, right: int) -> int:
    if right == 0:
        raise PredicateError("division by zero in predicate",
                             reason="div_zero", left=left)
    # C semantics: truncation toward zero
    return _wrap(abs(left) // abs(right)
                 * (1 if (left < 0) == (right < 0) else -1))


def _mod(left: int, right: int) -> int:
    if right == 0:
        raise PredicateError("modulo by zero in predicate",
                             reason="div_zero", left=left)
    return _wrap(left - _div(left, right) * right)


_BINARY_OPS = {
    "+": lambda a, b: _wrap(a + b),
    "-": lambda a, b: _wrap(a - b),
    "*": lambda a, b: _wrap(a * b),
    "/": _div,
    "%": _mod,
    "&": lambda a, b: _wrap((a & _WORD) & (b & _WORD)),
    "|": lambda a, b: _wrap((a & _WORD) | (b & _WORD)),
    "^": lambda a, b: _wrap((a & _WORD) ^ (b & _WORD)),
    "<<": lambda a, b: _wrap(a << (b & 31)),
    ">>": lambda a, b: a >> (b & 31),  # arithmetic: a is signed
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}


def compile_predicate(source: str, symtab=None,
                      func: Optional[str] = None) -> Predicate:
    """Compile predicate *source* once, for many evaluations.

    Raises :class:`~repro.errors.PredicateCompileError` (with the
    offending token in context) for anything that cannot be resolved
    and checked now — never defer a compile problem to the first hit.
    """
    if not source or not source.strip():
        raise PredicateCompileError("empty predicate", token="",
                                    source=source)
    node = _parse(source)
    compiler = _Compiler(source, symtab, func)
    fn, deps, const = compiler.compile(node)
    return Predicate(source, fn, deps, const,
                     reads=tuple(compiler.reads),
                     dynamic_reads=compiler.dynamic_reads,
                     uses_hit=compiler.uses_hit)


def memory_reader(mem) -> Callable[[int], int]:
    """Wrap a :class:`repro.machine.memory.Memory` as a guarded signed
    word reader for :class:`EvalContext`."""
    from repro.machine.memory import MemoryFault

    def read(addr: int) -> int:
        try:
            return to_signed(mem.read_word(addr & _WORD & ~3))
        except (MemoryFault, IndexError, ValueError) as exc:
            raise PredicateError(
                "bad dereference of 0x%x in predicate" % (addr & _WORD),
                reason="bad_deref", addr=addr & _WORD) from exc

    return read
