"""One versioned codec for machine state: a checkpoint as bytes.

Every machine :class:`~repro.machine.checkpoint.Checkpoint` that leaves
the process — the keyframes :func:`~repro.store.ingest.export_recording`
archives, the checkpoint a hibernation file carries — is written by
:func:`encode_state` and read by :func:`decode_state`, and by nothing
else.  The encoding holds numbers and strings only, never pickled
objects, so decoding untrusted bytes can build nothing but a
checkpoint.  Every decoder here raises
:class:`~repro.errors.StateError` (``reason`` ``"format"``,
``"version"`` or ``"image"``) on bytes it does not accept, and never
lets a ``struct.error``, ``KeyError`` or ``IndexError`` escape.

Code is not copied into every payload.  The *program image* — the code
list :func:`~repro.asm.loader.load_program` produced — never changes
after loading, so a payload names its image by sha-256 and carries only
the *patches*: the slots whose instruction differs from the image's
(Kessler patches, breakpoint jumps, appended blocks).  A
:class:`ProgramImage` encodes itself once, on first use, and the trace
store keeps each image once per digest.

Layouts, integers big-endian::

    instruction  kind u8 | flags u8 | tag length u8
                 | site, a, b, c, d as i64 | tag (UTF-8)
    image        b"RPRIMG1\\n" | version u16 | base u32 | count u32
                 | count instructions
    state        b"RPRSTAT\\n" | version u16 | image sha-256 (32 B)
                 | control length u32 | control (JSON)
                 | words u32 | (word index, value) u32 pairs, ascending
                 | lines u32 | cache line u32 each (0xFFFFFFFF: empty)
                 | code slots u32 | patches u32 | (slot u32, instruction)

The control JSON holds pc/npc, condition codes, registers and windows,
counters, per-tag statistics and the monitored region service's
bookkeeping as the plain data :class:`Checkpoint` captures.  Memory
keeps its exact key set, zero-valued words included.  Encodings are
canonical: the decoders accept only bytes the encoders produce, so
equal states have equal bytes and the store deduplicates payloads by
digest.
"""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import chain, compress, count
from operator import is_not
from typing import Iterable, List, Optional, Tuple

from repro.errors import StateError
from repro.isa.instructions import (ALU_OPS, BRANCH_CONDS, WORD_MASK,
                                    ArithInsn, BranchInsn, CallInsn,
                                    Instruction, IsaError, JmplInsn,
                                    LoadInsn, MemAddress, NopInsn, Operand2,
                                    RestoreInsn, SaveInsn, SethiInsn,
                                    StoreInsn, TrapInsn)
from repro.isa.registers import NUM_GLOBALS, NUM_MONITOR, NUM_REGISTER_IDS
from repro.machine.checkpoint import Checkpoint

__all__ = ["VERSION", "ProgramImage", "encode_insn",
           "decode_insn", "decode_image", "encode_state", "decode_state",
           "state_image", "memory_bytes", "patch_bytes"]

#: encoding generation of instructions, images and states
VERSION = 2
#: a cache line holding no tag
_EMPTY_LINE = 0xFFFFFFFF

_IMAGE_MAGIC = b"RPRIMG1\n"
_STATE_MAGIC = b"RPRSTAT\n"
_VERSION = struct.Struct(">H")
_U32 = struct.Struct(">I")
_PAIR = struct.Struct(">II")
_INSN = struct.Struct(">BBB5q")
_DIGEST_BYTES = hashlib.sha256().digest_size


def _error(message: str, reason: str = "format", **context) -> StateError:
    return StateError(message, reason=reason, **context)


# -- instructions ---------------------------------------------------------------

#: instruction kind -> class; 0 is a code hole.  Append only: a kind's
#: number is part of the encoding.
_KINDS = (None, ArithInsn, SethiInsn, NopInsn, LoadInsn, StoreInsn,
          BranchInsn, CallInsn, JmplInsn, SaveInsn, RestoreInsn, TrapInsn)
_KIND_OF = {cls: kind for kind, cls in enumerate(_KINDS) if cls}
#: ALU ops and branch conditions by number (their dicts only grow)
_ALU = tuple(ALU_OPS)
_CONDS = tuple(BRANCH_CONDS)

_SITE, _IMM, _BIT = 1, 2, 4
_HOLE = _INSN.pack(0, 0, 0, 0, 0, 0, 0, 0)


def _operand(op2: Operand2) -> Tuple[int, int]:
    return (_IMM if op2.is_imm else 0), op2.value


def _address(addr: MemAddress) -> Tuple[int, int]:
    if addr.rs2 is None:
        return _IMM, addr.imm
    return 0, addr.rs2


def _fields(insn: Instruction) -> Tuple[int, int, int, int, int]:
    """(flags, a, b, c, d) of one instruction."""
    cls = type(insn)
    if cls is ArithInsn:
        flag, value = _operand(insn.op2)
        return (flag | (_BIT if insn.set_cc else 0), _ALU.index(insn.op),
                insn.rs1, value, insn.rd)
    if cls is SethiInsn:
        return 0, insn.imm22, 0, 0, insn.rd
    if cls is LoadInsn or cls is StoreInsn:
        flag, value = _address(insn.addr)
        if cls is LoadInsn and insn.signed:
            flag |= _BIT
        return flag, insn.width, insn.addr.rs1, value, insn.rd
    if cls is BranchInsn:
        return ((_BIT if insn.annul else 0), _CONDS.index(insn.cond), 0,
                insn.target, 0)
    if cls is CallInsn:
        return 0, 0, 0, insn.target, 0
    if cls is JmplInsn or cls is SaveInsn or cls is RestoreInsn:
        flag, value = _operand(insn.op2)
        return flag, 0, insn.rs1, value, insn.rd
    if cls is TrapInsn:
        return 0, insn.code, 0, 0, 0
    return 0, 0, 0, 0, 0          # NopInsn


def encode_insn(insn: Optional[Instruction]) -> bytes:
    """One instruction record (a code hole is kind 0)."""
    if insn is None:
        return _HOLE
    tag = insn.tag.encode("utf-8")
    flags, a, b, c, d = _fields(insn)
    site = insn.site
    if site is not None:
        flags |= _SITE
    return _INSN.pack(_KIND_OF[type(insn)], flags, len(tag),
                      0 if site is None else site, a, b, c, d) + tag


def _register(value: int) -> int:
    if not 0 <= value < NUM_REGISTER_IDS:
        raise _error("register id %d out of range" % value)
    return value


def _word(value: int) -> int:
    if not 0 <= value <= WORD_MASK:
        raise _error("word %d out of range" % value)
    return value


def _pick(table: tuple, index: int) -> str:
    if not 0 <= index < len(table):
        raise _error("operation number %d out of range" % index)
    return table[index]


def _build(kind: int, flags: int, a: int, b: int, c: int,
           d: int) -> Instruction:
    imm = bool(flags & _IMM)
    bit = bool(flags & _BIT)
    cls = _KINDS[kind]
    if cls is ArithInsn:
        return ArithInsn(_pick(_ALU, a), _register(b),
                         Operand2(imm, c if imm else _register(c)),
                         _register(d), set_cc=bit)
    if cls is SethiInsn:
        return SethiInsn(a, _register(d))
    if cls is LoadInsn or cls is StoreInsn:
        addr = MemAddress(_register(b), imm=c) if imm else \
            MemAddress(_register(b), _register(c))
        if cls is LoadInsn:
            return LoadInsn(a, addr, _register(d), signed=bit)
        return StoreInsn(a, _register(d), addr)
    if cls is BranchInsn:
        return BranchInsn(_pick(_CONDS, a), _word(c), annul=bit)
    if cls is CallInsn:
        return CallInsn(_word(c))
    if cls is TrapInsn:
        return TrapInsn(_word(a))
    if cls is NopInsn:
        return NopInsn()
    return cls(_register(b), Operand2(imm, c if imm else _register(c)),
               _register(d))


class _Reader:
    """Bounds-checked cursor over one encoded buffer."""

    __slots__ = ("data", "offset", "what")

    def __init__(self, data: bytes, what: str):
        self.data = bytes(data)
        self.offset = 0
        self.what = what

    def left(self) -> int:
        return len(self.data) - self.offset

    def take(self, size: int) -> bytes:
        if size > self.left():
            raise _error("%s is cut short" % self.what, at=self.offset)
        chunk = self.data[self.offset:self.offset + size]
        self.offset += size
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def words(self, number: int) -> tuple:
        return struct.unpack(">%dI" % number, self.take(4 * number))

    def insn(self) -> Optional[Instruction]:
        kind, flags, tag_len, site, a, b, c, d = self.unpack(_INSN)
        tag = self.take(tag_len)
        if not 0 <= kind < len(_KINDS):
            raise _error("unknown instruction kind %d" % kind,
                         at=self.offset)
        if kind == 0:
            return None
        try:
            insn = _build(kind, flags, a, b, c, d)
            insn.tag = tag.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _error("instruction tag is not UTF-8") from exc
        except IsaError as exc:     # an immediate, width or op out of range
            raise _error("bad instruction: %s" % exc) from exc
        insn.site = site if flags & _SITE else None
        return insn

    def finish(self) -> None:
        if self.left():
            raise _error("%s has %d trailing bytes"
                         % (self.what, self.left()))


def _open(data: bytes, magic: bytes, what: str) -> _Reader:
    """A reader past a checked magic and version."""
    reader = _Reader(data, what)
    if reader.left() < len(magic) + _VERSION.size:
        raise _error("%s is too short for its header" % what)
    if reader.take(len(magic)) != magic:
        raise _error("%s has a bad magic" % what)
    (version,) = reader.unpack(_VERSION)
    if version != VERSION:
        raise _error("%s has encoding version %d" % (what, version),
                     reason="version", version=version, supported=VERSION)
    return reader


def _canonical(decoded: bytes, data: bytes, what: str) -> None:
    if decoded != bytes(data):
        raise _error("%s is not in canonical form" % what)


def decode_insn(data: bytes) -> Optional[Instruction]:
    """The instruction of one :func:`encode_insn` record."""
    reader = _Reader(data, "instruction")
    insn = reader.insn()
    reader.finish()
    _canonical(encode_insn(insn), data, "instruction")
    return insn


# -- the program image ----------------------------------------------------------

class ProgramImage:
    """The code list a program was loaded as: patches are relative to it.

    Instructions are shared with the code space, not copied, and never
    mutated after loading.  :attr:`encoded` and :attr:`digest` are
    computed on first use and cached, so loading pays nothing for
    them."""

    __slots__ = ("base", "insns", "_encoded", "_digest")

    def __init__(self, base: int, insns: Iterable[Optional[Instruction]]):
        self.base = base
        self.insns = tuple(insns)
        self._encoded: Optional[bytes] = None
        self._digest: Optional[str] = None

    @property
    def encoded(self) -> bytes:
        if self._encoded is None:
            self._encoded = b"".join(chain(
                (_IMAGE_MAGIC, _VERSION.pack(VERSION),
                 _PAIR.pack(self.base, len(self.insns))),
                map(encode_insn, self.insns)))
        return self._encoded

    @property
    def digest(self) -> str:
        """sha-256 hex of :attr:`encoded`."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.encoded).hexdigest()
        return self._digest


def decode_image(data: bytes) -> ProgramImage:
    """The :class:`ProgramImage` of :attr:`ProgramImage.encoded` bytes."""
    reader = _open(data, _IMAGE_MAGIC, "image")
    base, number = reader.unpack(_PAIR)
    if number * _INSN.size > reader.left():
        raise _error("image is cut short", count=number)
    image = ProgramImage(base, [reader.insn() for _ in range(number)])
    reader.finish()
    _canonical(image.encoded, data, "image")
    return image


# -- state ----------------------------------------------------------------------

def memory_bytes(words) -> bytes:
    """Data memory as its word count plus ascending (word, value)
    pairs — every key, zero-valued words included."""
    keys = sorted(words)
    flat = [0] * (2 * len(keys))
    flat[0::2] = keys
    flat[1::2] = map(words.__getitem__, keys)
    return struct.pack(">I%dI" % len(flat), len(keys), *flat)


def _patches(insns, image: ProgramImage) -> List[Tuple[int, bytes]]:
    original = image.insns
    patches = []
    # an unchanged slot holds the image's own object: compare identity
    # first and encode only the few slots that differ
    for slot in compress(count(), map(is_not, insns, original)):
        record = encode_insn(insns[slot])
        if record != encode_insn(original[slot]):
            patches.append((slot, record))
    patches.extend((slot, encode_insn(insns[slot]))
                   for slot in range(len(original), len(insns)))
    return patches


def patch_bytes(insns, image: ProgramImage) -> bytes:
    """The code list *insns* as its length plus the slots that differ
    from *image*, appended slots included."""
    patches = _patches(insns, image)
    return b"".join(chain(
        (_PAIR.pack(len(insns), len(patches)),),
        chain.from_iterable((_U32.pack(slot), record)
                            for slot, record in patches)))


#: the checkpoint fields the control JSON carries, in order
_CONTROL = ("pc", "npc", "icc", "globals", "monitors", "windows",
            "window_counters", "brk", "cycles", "instructions", "loads",
            "stores", "traps_taken", "tag_cycles", "tag_counts",
            "cache_stats", "window_depth", "run_state", "output_len",
            "mrs_state")


def encode_state(checkpoint: Checkpoint, image: ProgramImage) -> bytes:
    """The canonical bytes of *checkpoint*, its code relative to
    *image*."""
    control = json.dumps({name: getattr(checkpoint, name)
                          for name in _CONTROL},
                         separators=(",", ":")).encode("ascii")
    lines = [_EMPTY_LINE if line is None else line
             for line in checkpoint.cache_lines]
    return b"".join((
        _STATE_MAGIC, _VERSION.pack(VERSION), bytes.fromhex(image.digest),
        _U32.pack(len(control)), control,
        memory_bytes(checkpoint.memory_words),
        struct.pack(">I%dI" % len(lines), len(lines), *lines),
        patch_bytes(checkpoint.code_insns, image)))


def _state_header(data: bytes) -> Tuple[_Reader, str]:
    reader = _open(data, _STATE_MAGIC, "state")
    return reader, reader.take(_DIGEST_BYTES).hex()


def state_image(data: bytes) -> str:
    """The digest of the program image a state payload names (checks
    the header only)."""
    return _state_header(data)[1]


def decode_state(data: bytes, image: ProgramImage) -> Checkpoint:
    """The :class:`Checkpoint` of :func:`encode_state` bytes, its code
    rebuilt from *image* (which must be the image the bytes name)."""
    reader, digest = _state_header(data)
    if digest != image.digest:
        raise _error("state names program image %s, not %s"
                     % (digest[:16], image.digest[:16]), reason="image",
                     expected=digest, supplied=image.digest)
    checkpoint = Checkpoint.__new__(Checkpoint)
    (length,) = reader.unpack(_U32)
    try:
        control = json.loads(reader.take(length))
    except (ValueError, RecursionError) as exc:
        raise _error("state control is not JSON: %s" % exc) from exc
    if not _CONTROL_SCHEMA(control):
        raise _error("state control fields are malformed")
    for name in _CONTROL:
        setattr(checkpoint, name, control[name])
    if checkpoint.mrs_state is not None:
        mrs = checkpoint.mrs_state
        mrs["regions"] = [tuple(region) for region in mrs["regions"]]
        mrs["hits"] = [tuple(hit) for hit in mrs["hits"]]
        if not _disjoint(mrs["regions"]):
            raise _error("state has overlapping monitored regions")
    (words,) = reader.unpack(_U32)
    flat = reader.words(2 * words)
    checkpoint.memory_words = dict(zip(flat[0::2], flat[1::2]))
    (lines,) = reader.unpack(_U32)
    checkpoint.cache_lines = [None if line == _EMPTY_LINE else line
                              for line in reader.words(lines)]
    checkpoint.code_insns = _read_code(reader, image)
    reader.finish()
    _canonical(encode_state(checkpoint, image), data, "state")
    return checkpoint


def _read_code(reader: _Reader, image: ProgramImage) -> list:
    length, number = reader.unpack(_PAIR)
    base = len(image.insns)
    # every appended slot is a patch: bound the allocation by the bytes
    # that are actually there
    if length < base or length - base > number or \
            number * (_U32.size + _INSN.size) > reader.left():
        raise _error("state code section is malformed", slots=length,
                     patches=number)
    insns = list(image.insns)
    insns.extend([None] * (length - base))
    for _ in range(number):
        (slot,) = reader.unpack(_U32)
        if slot >= length:
            raise _error("patch slot %d past the code" % slot)
        insns[slot] = reader.insn()
    return insns


def _disjoint(regions: List[Tuple[int, int]]) -> bool:
    ordered = sorted(regions)
    return all(start + size <= after
               for (start, size), (after, _size) in zip(ordered, ordered[1:]))


# -- control validation ---------------------------------------------------------

def _int(value) -> bool:
    return type(value) is int


def _count(value) -> bool:
    return type(value) is int and 0 <= value < 1 << 63


def _word_value(value) -> bool:
    return type(value) is int and 0 <= value <= WORD_MASK


def _bit(value) -> bool:
    return type(value) is int and value in (0, 1)


def _flag(value) -> bool:
    return type(value) is bool


def _text(value) -> bool:
    return type(value) is str


def _list(check, length=None):
    def valid(value) -> bool:
        return type(value) is list and (
            length is None or len(value) == length) and all(map(check, value))
    return valid


def _row(*checks):
    def valid(value) -> bool:
        return type(value) is list and len(value) == len(checks) and all(
            check(item) for check, item in zip(checks, value))
    return valid


def _optional(check):
    return lambda value: value is None or check(value)


def _record(**checks):
    def valid(value) -> bool:
        return type(value) is dict and list(value) == list(checks) and all(
            check(value[name]) for name, check in checks.items())
    return valid


def _tally(value) -> bool:
    return type(value) is dict and all(
        _text(key) and _count(item) for key, item in value.items())


def _region(value) -> bool:
    return _row(_word_value, _count)(value) and not value[0] & 3 \
        and value[1] > 0 and not value[1] & 3


#: MRS tables map segments, pages and sites to counts or
#: addresses: never negative
_PAIRS = _list(_row(_count, _count))
_MRS_SCHEMA = _record(
    regions=_list(_region), hits=_list(_row(_word_value, _count, _flag)),
    active_reasons=_list(_row(_count, _list(_row(_text, _count)))),
    segments=_PAIRS, word_counts=_PAIRS, region_counts=_PAIRS,
    arena_next=_word_value, superpages=_PAIRS, enabled=_flag)
_CONTROL_SCHEMA = _record(
    pc=_word_value, npc=_word_value, icc=_list(_bit, 4),
    globals=_list(_word_value, NUM_GLOBALS),
    monitors=_list(_word_value, NUM_MONITOR),
    windows=lambda value: bool(value) and _list(
        _row(_list(_word_value, 8), _list(_word_value, 8)))(value),
    window_counters=_list(_count, 3), brk=_word_value, cycles=_count,
    instructions=_count, loads=_count, stores=_count, traps_taken=_count,
    tag_cycles=_tally, tag_counts=_tally, cache_stats=_list(_count, 2),
    window_depth=_list(_int, 2), run_state=_row(_flag, _optional(_int)),
    output_len=_optional(_count), mrs_state=_optional(_MRS_SCHEMA))
