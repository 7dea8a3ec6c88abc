"""Undo journal backing the MRS's transactional operations.

Region create/delete and dynamic patch install touch several structures
— debuggee memory (bitmap blocks, segment table, superpage counts),
host-side dicts, reserved registers and code space — and a failure
half-way through any of them would silently break the soundness
invariant.  Each §2/§4.2 entry point therefore records a fine-grained
undo entry *before* every mutation; on any injected or real failure the
journal rolls the world back to the pre-call state, bit-identically.

Rollback deliberately bypasses the public mutators (it pokes
``Memory.words`` and dicts directly): the undo path must not itself
pass through fault-injection points, and restoring a word that did not
exist before must *remove* the entry rather than store a zero, so the
sparse-memory representation — not just its read view — is restored
exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class UndoJournal:
    """LIFO log of undo closures for one transactional operation."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, undo: Callable[[], None]) -> None:
        """Append a raw undo closure (runs during :meth:`rollback`)."""
        self._entries.append(undo)

    # -- typed helpers (capture state BEFORE the caller mutates) -----------

    def record_memory_word(self, memory, addr: int) -> None:
        """Capture the raw word at *addr*, including its absence."""
        words: Dict[int, int] = memory.words
        index = addr >> 2
        if index in words:
            old = words[index]

            def undo() -> None:
                words[index] = old
        else:
            def undo() -> None:
                words.pop(index, None)
        self._entries.append(undo)

    def record_dict_entry(self, mapping: Dict[Any, Any], key: Any,
                          clone: Optional[Callable[[Any], Any]] = None
                          ) -> None:
        """Capture ``mapping[key]`` (or its absence).

        Pass *clone* when the value is mutable and will be mutated in
        place (e.g. a nested refcount dict), so rollback restores a
        snapshot rather than the mutated object.
        """
        if key in mapping:
            old = mapping[key]
            if clone is not None:
                old = clone(old)

            def undo() -> None:
                mapping[key] = old
        else:
            def undo() -> None:
                mapping.pop(key, None)
        self._entries.append(undo)

    def record_attr(self, obj: Any, name: str) -> None:
        """Capture a plain attribute value."""
        old = getattr(obj, name)
        self._entries.append(lambda: setattr(obj, name, old))

    def record_register(self, regs, rid: int) -> None:
        """Capture one register's value by id."""
        old = regs.read(rid)
        self._entries.append(lambda: regs.write(rid, old))

    def record_code(self, code, addr: int) -> None:
        """Capture the instruction slot at *addr* in a CodeSpace."""
        old = code.at(addr)
        self._entries.append(lambda: code.patch(addr, old))

    # -- outcomes ----------------------------------------------------------

    def rollback(self) -> int:
        """Undo every recorded mutation, newest first.

        Returns the number of entries undone.  The journal is empty
        afterwards and may be reused.
        """
        count = len(self._entries)
        while self._entries:
            self._entries.pop()()
        return count

    def commit(self) -> None:
        """Discard the log: the operation completed."""
        self._entries.clear()
