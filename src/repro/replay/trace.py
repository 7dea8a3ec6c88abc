"""Write-trace: the compact log the time-travel engine replays against.

Every §2 monitor notification observed while recording becomes one
:class:`WriteRecord` — ``(index, pc, addr, size, old, new, is_read)``
— appended to a bounded :class:`WriteTrace` ring.  ``index`` is the
debuggee instruction count at the notification trap and ``pc`` the
trap's address, so a record names an exact point in deterministic
execution time; ``old`` comes from the debugger's one old-value shadow
of the watched words (write checks run *after* the store lands, §2.1,
so the overwritten value cannot be read back at notification time) —
the same copy the watchpoint engine's ``$old`` reads.

The trace serialises to a canonical byte string (:meth:`to_bytes`)
with a CRC-32 digest, which is what the determinism property tests
compare: recording the same program twice must be byte-identical.

Version 2 adds a *run-metadata header*: a canonical JSON block (sorted
keys, no whitespace) embedded between the fixed header and the
records, carrying the run's identity — workload name, scale, seed,
monitor-set digest, keyframe stride.  An ingested trace is therefore
self-describing: the persistent store (:mod:`repro.store`) and
``repro analyze`` recover the workload from the bytes alone instead of
relying on the caller to re-supply it.  Only *deterministic* facts
belong in :attr:`WriteTrace.meta` — wall-clock time or host details
would break both the determinism tests and content-addressed dedup.
Version-1 traces (no metadata block) still decode, with empty meta.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

_RECORD = struct.Struct(">QIIIIIB")
_HEADER = struct.Struct(">4sHQQ")
_META_LEN = struct.Struct(">I")
_MAGIC = b"RPWT"
_VERSION = 2
#: newest format this reader still accepts with no metadata block
_V1 = 1
#: refuse to parse metadata blocks larger than this (a torn length
#: field must not make us allocate gigabytes)
MAX_META_BYTES = 1 << 20


def canonical_meta_bytes(meta: Dict[str, Any]) -> bytes:
    """The unique byte form of a metadata dict: sorted keys, compact
    separators — equal dicts always serialise identically, so the
    trace digest (and the store's content address) is stable."""
    if not meta:
        return b""
    return json.dumps(meta, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class WriteRecord(NamedTuple):
    """One monitor notification at a point in execution time."""

    index: int      #: cpu.instructions at the notification trap
    pc: int         #: address of the notification trap
    addr: int       #: written (or read) address
    size: int       #: access width in bytes
    old: int        #: word value before the access (Debugger.shadow)
    new: int        #: word value after the access
    is_read: bool

    @property
    def stop_index(self) -> int:
        """Instruction count once the notification trap completes —
        the execution-time position "stopped at this hit"."""
        return self.index + 1

    def overlaps(self, start: int, size: int) -> bool:
        return self.addr < start + size and start < self.addr + self.size

    def pack(self) -> bytes:
        return _RECORD.pack(self.index, self.pc, self.addr, self.size,
                            self.old & 0xFFFFFFFF, self.new & 0xFFFFFFFF,
                            1 if self.is_read else 0)

    @classmethod
    def unpack(cls, data: bytes) -> "WriteRecord":
        index, pc, addr, size, old, new, is_read = _RECORD.unpack(data)
        return cls(index, pc, addr, size, old, new, bool(is_read))


class WriteTrace:
    """Bounded, append-only ring of :class:`WriteRecord`.

    Records carry stable absolute positions: position ``p`` is valid
    while ``base <= p < total``.  When the ring overflows, the oldest
    records are dropped (``base`` advances, :attr:`dropped` counts
    them) — replay verification then simply cannot check the dropped
    prefix, and ``last_write_to`` falls back to a re-execution scan.
    """

    def __init__(self, max_records: int = 65536,
                 meta: Optional[Dict[str, Any]] = None):
        if max_records < 1:
            raise ValueError("max_records must be positive")
        self.max_records = max_records
        self._records: List[WriteRecord] = []
        #: absolute position of _records[0]
        self.base = 0
        #: run-metadata header (workload, scale, seed, monitors,
        #: stride, ...) — deterministic facts only; serialised into
        #: the canonical byte form, so it participates in the digest
        self.meta: Dict[str, Any] = dict(meta) if meta else {}

    @property
    def total(self) -> int:
        """Absolute position one past the newest record."""
        return self.base + len(self._records)

    @property
    def dropped(self) -> int:
        return self.base

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[WriteRecord]:
        return iter(self._records)

    def append(self, record: WriteRecord) -> int:
        """Append *record*, evicting the oldest on overflow; returns
        the record's absolute position."""
        self._records.append(record)
        if len(self._records) > self.max_records:
            evict = len(self._records) - self.max_records
            del self._records[:evict]
            self.base += evict
        return self.total - 1

    def at(self, position: int) -> Optional[WriteRecord]:
        """The record at absolute *position*, or None if dropped/unset."""
        if position < self.base or position >= self.total:
            return None
        return self._records[position - self.base]

    def replace(self, position: int, record: WriteRecord) -> None:
        """Overwrite the record at absolute *position* (test tampering
        and trace-repair only)."""
        if position < self.base or position >= self.total:
            raise IndexError("position %d outside [%d, %d)"
                             % (position, self.base, self.total))
        self._records[position - self.base] = record

    def truncate(self, position: int) -> None:
        """Drop every record at absolute positions >= *position* — the
        future is discarded when a rewound execution takes a new path."""
        keep = max(0, position - self.base)
        del self._records[keep:]

    # -- queries -----------------------------------------------------------

    def last_write(self, start: int, size: int,
                   before_index: Optional[int] = None
                   ) -> Optional[Tuple[int, WriteRecord]]:
        """``(absolute position, record)`` of the most recent write
        overlapping ``[start, start+size)`` whose stop position is at
        or before *before_index* (when given)."""
        for offset in range(len(self._records) - 1, -1, -1):
            record = self._records[offset]
            if record.is_read or not record.overlaps(start, size):
                continue
            if before_index is not None and \
                    record.stop_index > before_index:
                continue
            return self.base + offset, record
        return None

    def last_write_to(self, start: int, size: int,
                      before_index: Optional[int] = None
                      ) -> Optional[WriteRecord]:
        """The record of :meth:`last_write`, or None."""
        answer = self.last_write(start, size, before_index)
        return None if answer is None else answer[1]

    # -- canonical serialisation -------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical serialisation: header + metadata block + packed
        records, in order."""
        meta = canonical_meta_bytes(self.meta)
        parts = [_HEADER.pack(_MAGIC, _VERSION, self.base,
                              len(self._records)),
                 _META_LEN.pack(len(meta)), meta]
        parts.extend(record.pack() for record in self._records)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes,
                   max_records: Optional[int] = None) -> "WriteTrace":
        """Decode one canonical trace.  Raises ValueError unless *data*
        is exactly a v1/v2 header, its metadata object and the ``count``
        records the header announces."""
        if len(data) < _HEADER.size:
            raise ValueError("write trace shorter than its header")
        magic, version, base, count = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC or version not in (_V1, _VERSION):
            raise ValueError("not a v%d/v%d write trace" % (_V1, _VERSION))
        offset, meta_len = _HEADER.size, 0
        if version >= 2:
            if len(data) < offset + _META_LEN.size:
                raise ValueError("write trace shorter than its header")
            (meta_len,) = _META_LEN.unpack_from(data, offset)
            offset += _META_LEN.size
            if meta_len > MAX_META_BYTES:
                raise ValueError("implausible trace metadata length %d"
                                 % meta_len)
        size = offset + meta_len + count * _RECORD.size
        if len(data) != size:
            raise ValueError("write trace is %d bytes, its header says %d"
                             % (len(data), size))
        trace = cls(max_records=max_records
                    if max_records is not None else max(count, 1))
        trace.base = base
        if meta_len:
            meta = json.loads(data[offset:offset + meta_len].decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("trace metadata is not a JSON object")
            trace.meta = meta
            offset += meta_len
        for start in range(offset, size, _RECORD.size):
            trace._records.append(WriteRecord.unpack(
                data[start:start + _RECORD.size]))
        return trace

    def digest(self) -> int:
        """CRC-32 of the canonical serialisation."""
        import zlib
        return zlib.crc32(self.to_bytes()) & 0xFFFFFFFF

    def __repr__(self) -> str:
        return ("<WriteTrace %d records (%d dropped), indexes %s..%s>"
                % (len(self._records), self.base,
                   self._records[0].index if self._records else "-",
                   self._records[-1].index if self._records else "-"))
