"""Time travel through the library API behind ``repro record``/``replay``.

Each seeded (program, watched global) pair is recorded to exit with a
keyframe stride, walked back with ``reverse_continue`` and archived into
one ``TraceStore``.  Every pair is recorded in several passes (three
heavy, two light); a repeat is a distinct run whose keyframes dedup
against the first.
The populated store then answers ``hot``, ``writes`` and ``provenance``
queries.  Keyframe restores flush the block cache, so block compile
dominates reverse steps.
"""

from __future__ import annotations

import inspect
import random
import time
from typing import Dict, List, Optional

from repro.debugger import Debugger
from repro.isa.instructions import to_signed
from repro.store import TraceStore

from inputs import TRAVEL_STRIDE, lang

#: recordings of each pair, heavy and light
PASSES = {True: 3, False: 2}
#: reverse_continue steps walked back per recording, heavy and light
REVERSE_STEPS = {True: 8, False: 6}


class Samples:
    def __init__(self):
        self.record_s: List[float] = []
        self.reverse_ms: List[float] = []
        self.archive_ms: List[float] = []
        self.query_ms: List[float] = []
        self.keyframes = 0
        self.dedup_ratio = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []


def _same(answer, entry: Dict) -> bool:
    if answer is None:
        return not entry["written"]
    return entry["written"] and all(
        getattr(answer, key) == entry[key]
        for key in ("pc", "index", "old", "new", "addr", "size"))


def _record(store: TraceStore, name: str, expr: str, source: str,
            repeat: int, reverse_steps: int, samples: Samples
            ) -> Optional[tuple]:
    label = "%s/%s#%d" % (name, expr, repeat)
    debugger = Debugger.for_source(source, lang=lang(name))
    debugger.watch(expr, action="log")
    begin = time.perf_counter()
    recorder = debugger.record(stride=TRAVEL_STRIDE)
    reason = debugger.run()
    samples.record_s.append(time.perf_counter() - begin)
    samples.attempted += 1
    if reason != "exited":
        samples.mismatches.append("%s: recording stopped with %r"
                                  % (label, reason))
        return None
    records = list(recorder.trace)
    samples.keyframes += len(recorder.keyframes)
    _entry, addr, size = debugger.resolve(expr)
    at_end = debugger.last_write(expr)

    # oracle: each reverse_continue lands on the previous trace record
    for back in range(1, min(reverse_steps, len(records)) + 1):
        begin = time.perf_counter()
        reason = debugger.reverse_continue()
        samples.reverse_ms.append(1e3 * (time.perf_counter() - begin))
        samples.attempted += 1
        expected = records[-back]
        value = debugger.evaluate(expr)[2]
        if reason != "watch" or \
                debugger.cpu.instructions != expected.stop_index or \
                value != to_signed(expected.new):
            samples.mismatches.append(
                "%s: reverse step %d landed at %d (%s, value %r), trace "
                "record at %d (value %d)"
                % (label, back, debugger.cpu.instructions, reason, value,
                   expected.stop_index, to_signed(expected.new)))
            break
    landed = debugger.cpu.instructions
    at_landing = debugger.last_write(expr)

    recorder.set_meta(workload=name if not repeat
                      else "%s#%d" % (name, repeat), seed=repeat)
    begin = time.perf_counter()
    result = store.ingest(recorder.export())
    samples.archive_ms.append(1e3 * (time.perf_counter() - begin))
    samples.attempted += 1

    # oracle: the store's provenance agrees with the live recorder.  It
    # calls the unwrapped method, so in the traced run the check is not
    # counted as store query time.
    provenance = inspect.unwrap(TraceStore.provenance)
    for answer, before in ((at_end, None), (at_landing, landed)):
        entry = provenance(store, addr, size, run_id=result.run_id,
                           before_index=before)[0]
        if not _same(answer, entry):
            samples.mismatches.append(
                "%s: provenance %r != last_write %r (before %r)"
                % (label, entry, answer, before))
    return name, addr, size


class Trip:
    """Recordings and queries against one store, a slice at a time."""

    def __init__(self, inputs, sources, store_path: str, heavy: bool):
        self.samples = Samples()
        self.sources = sources
        self.heavy = heavy
        self.store_path = store_path
        self.store = TraceStore(store_path)
        self.targets: List[tuple] = []
        rng = random.Random(inputs.seed * 104729 + 3)
        pairs = list(inputs.travel)
        #: every recording in order: the first pass records every pair
        #: once, populating the store; each later pass repeats them in a
        #: fresh order
        self.plan = [(pair, 0) for pair in pairs]
        self.first_pass = len(pairs)
        for repeat in range(1, PASSES[heavy]):
            again = [(pair, repeat) for pair in pairs]
            rng.shuffle(again)
            self.plan += again

    def record(self, plan) -> None:
        for (name, expr, scale), repeat in plan:
            target = _record(self.store, name, expr,
                             self.sources[(name, scale)], repeat,
                             REVERSE_STEPS[self.heavy], self.samples)
            if target is not None and target not in self.targets:
                self.targets.append(target)

    def reopen(self) -> None:
        """Close the store and open it again, as ``repro analyze`` does
        in a process of its own.  Closing checkpoints the write-ahead
        log, so the queries read the same files whatever order the
        repeats were archived in."""
        self.store.close()
        self.store = TraceStore(self.store_path)

    def query(self) -> None:
        """One query round: per program of the first pass, its ``hot``
        regions, its ``writes`` statistics and the ``provenance`` of
        its watched global.

        One sample times the three queries of one program.  Single
        queries take 0.1-1 ms with no gap near their median, so their
        median moved by a fifth from run to run; the odd number of
        programs puts the median of the triples inside one program's
        cluster."""
        store = self.store
        for name, addr, size in self.targets:
            begin = time.perf_counter()
            answers = (store.hot(workload=name),
                       store.write_stats(workload=name),
                       store.provenance(addr, size, workload=name))
            self.samples.query_ms.append(1e3 * (time.perf_counter() - begin))
            self.samples.attempted += len(answers)
            self.samples.failed += sum(1 for answer in answers if not answer)

    def close(self) -> Samples:
        self.samples.dedup_ratio = self.store.stats()["dedup_ratio"]
        self.store.close()
        self.samples.failed += len(self.samples.mismatches)
        return self.samples
