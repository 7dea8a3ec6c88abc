"""Debugging symbol table (STAB-like).

The compiler records each source variable with a ``.stabs`` directive;
the assembler collects them here.  Entries are what both the debugger
(mapping break-condition names to monitored regions, §2) and the
optimizer's symbol-table pattern matching (§4.2) consume.

Kinds:

* ``local`` / ``param`` — frame-relative storage: ``%fp + offset``.
* ``global`` — static storage at an absolute data address.
* ``register`` — variable lives in a register (``register int`` in
  mini-C); it cannot be monitored, and the debugger reports that.
"""

from __future__ import annotations

from repro.errors import ReproError

from typing import Dict, Iterable, List, Optional


class SymbolError(ReproError):
    """Raised for unknown or unmonitorable symbols."""


class SymEntry:
    """One debugging symbol."""

    __slots__ = ("name", "kind", "func", "offset", "address", "size",
                 "elem", "reg")

    def __init__(self, name: str, kind: str, func: Optional[str] = None,
                 offset: int = 0, address: Optional[int] = None,
                 size: int = 4, elem: Optional[int] = None,
                 reg: Optional[int] = None):
        self.name = name
        self.kind = kind
        self.func = func
        self.offset = offset      # %fp-relative, for local/param
        self.address = address    # absolute, for global (set at assembly)
        self.size = size          # total bytes
        self.elem = elem          # element size for arrays, else None
        self.reg = reg            # register id, for kind == "register"

    def is_frame_relative(self) -> bool:
        return self.kind in ("local", "param")

    def covers_offset(self, offset: int) -> bool:
        return self.offset <= offset < self.offset + self.size

    def covers_address(self, addr: int) -> bool:
        return (self.address is not None
                and self.address <= addr < self.address + self.size)

    def __repr__(self) -> str:
        where = ("%%fp%+d" % self.offset if self.is_frame_relative()
                 else "@0x%x" % (self.address or 0)
                 if self.kind == "global" else "reg%s" % self.reg)
        scope = "%s:" % self.func if self.func else ""
        return "<sym %s%s %s %s size=%d>" % (scope, self.name, self.kind,
                                             where, self.size)


class SymbolTable:
    """All debugging symbols of one program."""

    def __init__(self):
        self.entries: List[SymEntry] = []
        self._globals: Dict[str, SymEntry] = {}
        self._locals: Dict[str, Dict[str, SymEntry]] = {}

    def add(self, entry: SymEntry) -> None:
        self.entries.append(entry)
        if entry.kind == "global":
            self._globals[entry.name] = entry
        else:
            self._locals.setdefault(entry.func or "", {})[entry.name] = entry

    def lookup(self, name: str, func: Optional[str] = None) -> SymEntry:
        """Resolve *name*, trying *func*'s scope first, then globals."""
        if func is not None:
            entry = self._locals.get(func, {}).get(name)
            if entry is not None:
                return entry
        entry = self._globals.get(name)
        if entry is None:
            raise SymbolError("unknown symbol %r (func=%r)" % (name, func))
        return entry

    def globals(self) -> Iterable[SymEntry]:
        return self._globals.values()

    def local_at(self, func: str, offset: int) -> Optional[SymEntry]:
        """Find the local/param of *func* covering frame offset *offset*."""
        for entry in self._locals.get(func, {}).values():
            if entry.is_frame_relative() and entry.covers_offset(offset):
                return entry
        return None

    def global_at(self, addr: int) -> Optional[SymEntry]:
        """Find the global whose storage covers absolute address *addr*."""
        for entry in self._globals.values():
            if entry.covers_address(addr):
                return entry
        return None
