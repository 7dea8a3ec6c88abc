"""The machine-state codec (:mod:`repro.machine.state`).

* each keyframe of every perfbench recording program, read back from
  the trace store's rows and decoded against the stored image, restores
  a fresh machine exactly as restoring the live keyframe does;
* encodings are canonical: the same recording encodes to the same
  bytes, and a decoder accepts only bytes its encoder produces;
* every decoder — state, image, instruction — refuses bytes it does not
  accept with one :class:`~repro.errors.StateError`, never a
  ``struct.error``, ``KeyError`` or ``IndexError``.
"""

import random

import pytest

from repro.debugger import Debugger
from repro.errors import StateError
from repro.isa.instructions import NopInsn
from repro.machine.checkpoint import Checkpoint
from repro.machine.state import (VERSION, decode_image, decode_insn,
                                 decode_state, encode_insn, encode_state,
                                 state_image)
from repro.minic.codegen import compile_source
from repro.optimizer.pipeline import build_plan
from repro.session import DebugSession
from repro.store import TraceStore
from repro.workloads import WORKLOADS, workload_source

from test_fastpath import cpu_state

SOURCE = """
int total;
int grid[4];

int main() {
    register int i;
    for (i = 0; i < 4; i = i + 1) {
        grid[i] = i;
        total = total + i;
    }
    print(total);
    return 0;
}
"""

#: perfbench's recording pool (perfbench/inputs.py TRAVEL_POOL), each
#: program at its smallest scale that still has the watched element
TRAVEL = (("023.eqntott", "__seed", 0.1), ("022.li", "hp", 0.03),
          ("001.gcc1.35", "node_count", 0.03),
          ("030.matrix300", "c[24]", 0.3),
          ("013.spice2g6", "y[8]", 0.15), ("020.nasker", "rowsum[1]", 0.1),
          ("008.espresso", "col_count[3]", 0.1))
STRIDE = 500


def small_session(source=SOURCE):
    asm = compile_source(source)
    _stmts, plan = build_plan(asm, mode="full")
    return DebugSession.from_asm(asm, strategy="BitmapInlineRegisters",
                                 plan=plan, cache_bytes=256)


def small_state():
    """A checkpoint mid-run of SOURCE with a watchpoint armed (one
    Kessler patch), its code grown by one appended nop, and the image
    it is encoded against."""
    session = small_session()
    debugger = Debugger(session)
    debugger.watch("total", action="log")
    debugger.step(40)
    checkpoint = Checkpoint(session.cpu, output=session.output,
                            mrs=session.mrs)
    checkpoint.code_insns.append(NopInsn())
    return checkpoint, session.cpu.code.image


def mrs_snapshot(debugger):
    return Checkpoint(debugger.cpu, mrs=debugger.mrs).mrs_state


# -- round trips --------------------------------------------------------------

class TestRoundTrip:
    @pytest.mark.parametrize("name,expr,scale", TRAVEL)
    def test_stored_keyframes_restore_like_live_ones(self, tmp_path, name,
                                                     expr, scale):
        source = workload_source(name, scale)
        lang = WORKLOADS[name].lang
        debugger = Debugger.for_source(source, lang=lang)
        debugger.watch(expr, action="log")
        recorder = debugger.record(stride=STRIDE)
        assert debugger.run() == "exited"
        assert len(recorder.keyframes) > 2

        export = recorder.export()
        again = recorder.export()
        assert again.image == export.image
        assert [keyframe.payload for keyframe in again.keyframes] == \
            [keyframe.payload for keyframe in export.keyframes]

        with TraceStore(str(tmp_path / "store.sqlite")) as store:
            run_id = store.ingest(export._replace(
                meta=dict(export.meta, workload=name))).run_id
            conn = store.connection._conn
            (stored_image,) = conn.execute(
                "SELECT image FROM images WHERE digest = (SELECT "
                "image_digest FROM runs WHERE id = ?)",
                (run_id,)).fetchone()
            payloads = [row[0] for row in conn.execute(
                "SELECT k.payload FROM run_keyframes r JOIN keyframes k "
                "ON k.digest = r.keyframe_digest WHERE r.run_id = ? "
                "ORDER BY r.idx", (run_id,))]
        image = decode_image(stored_image)
        assert image.digest == export.image_digest
        assert len(payloads) == len(recorder.keyframes)

        stored = Debugger.for_source(source, lang=lang)
        live = Debugger.for_source(source, lang=lang)
        for keyframe, payload in zip(recorder.keyframes, payloads):
            assert state_image(payload) == image.digest
            decode_state(payload, image).restore(
                stored.cpu, output=stored.session.output, mrs=stored.mrs)
            keyframe.checkpoint[0].restore(
                live.cpu, output=live.session.output, mrs=live.mrs)
            assert cpu_state(stored.cpu) == cpu_state(live.cpu)
            assert stored.session.output == live.session.output
            assert mrs_snapshot(stored) == mrs_snapshot(live)
            assert stored.cpu.code.insns[len(image.insns):] == []

    def test_patches_and_appended_code_round_trip(self):
        checkpoint, image = small_state()
        payload = encode_state(checkpoint, image)
        decoded = decode_state(payload, image)
        assert [encode_insn(insn) for insn in decoded.code_insns] == \
            [encode_insn(insn) for insn in checkpoint.code_insns]
        assert decoded.memory_words == checkpoint.memory_words
        assert encode_state(decoded, image) == payload

    def test_unpatched_code_is_the_image(self):
        checkpoint, image = small_state()
        decoded = decode_state(encode_state(checkpoint, image), image)

        def patched(code):
            return [slot for slot, insn in enumerate(image.insns)
                    if code[slot] is not insn]
        # only the watch's patched stores are new objects
        assert patched(decoded.code_insns) == \
            patched(checkpoint.code_insns) != []

    def test_every_instruction_record_round_trips(self):
        _checkpoint, image = small_state()
        for insn in image.insns:
            record = encode_insn(insn)
            assert encode_insn(decode_insn(record)) == record


# -- structured decode errors -----------------------------------------------------

def crafted(case):
    """(decoder, (bytes, expected reason)) for one malformed input."""
    checkpoint, image = small_state()
    payload = encode_state(checkpoint, image)
    nop = encode_insn(checkpoint.code_insns[-1])
    assert payload.endswith(nop)
    decoder, case = case.split(":")
    if case == "wrong_image":
        other = small_session(SOURCE.replace("i < 4", "i < 5"))
        return (lambda data: decode_state(data, image),
                (encode_state(checkpoint, other.cpu.code.image), "image"))
    decoders = {
        "state": lambda data: decode_state(data, image),
        "image": decode_image,
        "instruction": decode_insn,
    }
    data = {"state": payload, "image": image.encoded,
            "instruction": nop}[decoder]
    header = {"state": 8, "image": 8, "instruction": 0}[decoder]
    version = (VERSION + 1).to_bytes(2, "big")
    unknown_kind = {
        # the last record of the state is the appended nop; the image's
        # first record follows its 18-byte header
        "state": payload[:-len(nop)] + b"\xc8" + nop[1:],
        "image": data[:18] + b"\xc8" + data[19:],
        "instruction": b"\xc8" + nop[1:],
    }[decoder]
    return decoders[decoder], {
        "empty": (b"", "format"),
        "short_header": (data[:header + 1], "format"),
        "bad_magic": (b"X" + data[1:], "format"),
        "unknown_version": (data[:header] + version + data[header + 2:],
                            "version"),
        "cut_body": (data[:-1], "format"),
        "cut_mid": (data[:len(data) // 2], "format"),
        "trailing_bytes": (data + b"\0", "format"),
        "unknown_instruction_kind": (unknown_kind, "format"),
        # a nop's first field is unused: set, it is not canonical
        "non_canonical_field": (nop[:11] + (1).to_bytes(8, "big")
                                + nop[19:], "format"),
    }[case]


CASES = (["state:" + case for case in (
    "empty", "short_header", "bad_magic", "unknown_version", "cut_body",
    "cut_mid", "trailing_bytes", "unknown_instruction_kind",
    "wrong_image")]
    + ["image:" + case for case in (
        "empty", "short_header", "bad_magic", "unknown_version", "cut_body",
        "cut_mid", "trailing_bytes", "unknown_instruction_kind")]
    + ["instruction:" + case for case in (
        "empty", "cut_body", "trailing_bytes", "unknown_instruction_kind",
        "non_canonical_field")])


class TestDecodeErrors:
    @pytest.mark.parametrize("case", CASES)
    def test_malformed_bytes_raise_one_structured_error(self, case):
        decoder, (data, reason) = crafted(case)
        with pytest.raises(StateError) as excinfo:
            decoder(data)
        assert excinfo.value.reason == reason

    def test_every_prefix_is_refused(self):
        checkpoint, image = small_state()
        payload = encode_state(checkpoint, image)
        for end in range(len(payload)):
            with pytest.raises(StateError):
                decode_state(payload[:end], image)

    def test_flipped_bytes_decode_or_raise_state_error(self):
        checkpoint, image = small_state()
        payload = encode_state(checkpoint, image)
        rng = random.Random(7)
        for _ in range(400):
            data = bytearray(payload)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                decoded = decode_state(bytes(data), image)
            except StateError:
                continue
            assert encode_state(decoded, image) == bytes(data)
