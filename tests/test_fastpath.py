"""Differential tests: block fast path vs the per-step interpreter.

The fast path (repro.machine.blocks) must be *bit-exact* with the slow
loop — same architectural state, same cost-model counters, same
recorded trace bytes, same monitor hit sequences — because replay
digests and Table 1 numbers are computed from them.  Every test here
runs the same program under both engines and compares everything
observable.  Several tests also assert that compiled blocks ran (a
plain run retires at least 99% of its instructions through them), so
a regression that silently de-opts everything (trivially "equal")
fails.
"""

import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.optimizer.pipeline as pipeline
from repro.asm.assembler import assemble
from repro.asm.loader import load_program
from repro.debugger import Debugger
from repro.eval.overhead import WorkloadBench
from repro.eval.paper_data import TABLE1_COLUMNS
from repro.isa.instructions import (ALU_OPS, ArithInsn, BranchInsn,
                                    CallInsn, JmplInsn, LoadInsn,
                                    MemAddress, NopInsn, Operand2,
                                    SethiInsn, StoreInsn)
from repro.machine import blocks
from repro.machine.checkpoint import Checkpoint
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.cpu import SimulationLimit
from repro.machine.memory import MemoryFault
from repro.machine.state import encode_insn
from repro.minic.codegen import compile_source
from repro.replay import state_digest
from repro.session import DebugSession
from repro.workloads import WORKLOAD_ORDER, WORKLOADS, workload_source

WORKLOAD_NAMES = ["023.eqntott", "030.matrix300", "008.espresso", "022.li",
                  "042.fpppp"]


def cpu_state(cpu):
    """Everything observable about a finished (or paused) CPU."""
    regs = cpu.regs
    return {
        "pc": cpu.pc, "npc": cpu.npc,
        "icc": (cpu.icc_n, cpu.icc_z, cpu.icc_v, cpu.icc_c),
        "digest": state_digest(cpu),
        "cycles": cpu.cycles, "instructions": cpu.instructions,
        "loads": cpu.loads, "stores": cpu.stores,
        "traps": cpu.traps_taken,
        "tag_counts": dict(cpu.tag_counts),
        "tag_cycles": dict(cpu.tag_cycles),
        "cache": (cpu.cache.hits, cpu.cache.misses),
        "globals": list(regs.globals),
        "window": [regs.read(rid) for rid in range(8, 32)],
        "memory": sorted(cpu.mem.words.items()),
        "depth": (cpu._window_depth, cpu.max_window_depth),
        "exit": (cpu.running, cpu.exit_code),
    }


def run_workload(name, scale, fast):
    spec = WORKLOADS[name]
    asm = compile_source(workload_source(name, scale), lang=spec.lang)
    loaded = load_program(assemble(asm), fast_path=fast)
    code = loaded.run()
    return code, loaded


class TestUninstrumentedParity:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_state_is_bit_exact(self, name):
        code_slow, slow = run_workload(name, 0.1, fast=False)
        code_fast, fast = run_workload(name, 0.1, fast=True)
        assert code_fast == code_slow
        assert fast.output == slow.output
        assert cpu_state(fast.cpu) == cpu_state(slow.cpu)
        # guard against a trivially-passing always-de-opt fast path: an
        # uninstrumented run leaves blocks only at traps and the exit
        stats = fast.cpu.fast_stats()
        assert stats["fast_retired"] >= 0.99 * fast.cpu.instructions
        assert slow.cpu.fast_stats()["block_runs"] == 0

    def test_division_by_zero_faults_identically(self):
        body = "mov 1, %o0\n sdiv %o0, 0, %o0"
        states = []
        for fast in (False, True):
            source = ("\t.text\n\t.proc main\nmain:\n"
                      "\tsave %sp, -96, %sp\n\t" + body.replace("\n", "\n\t")
                      + "\n\tmov 0, %i0\n\tret\n\trestore\n\t.endproc\n")
            loaded = load_program(assemble(source), fast_path=fast)
            with pytest.raises(ZeroDivisionError):
                loaded.run()
            states.append(cpu_state(loaded.cpu))
        assert states[0] == states[1]


class TestWatchdogParity:
    def test_insn_budget_trips_on_the_same_boundary(self):
        results = []
        for fast in (False, True):
            spec = WORKLOADS["030.matrix300"]
            asm = compile_source(workload_source("030.matrix300", 0.1),
                                 lang=spec.lang)
            loaded = load_program(assemble(asm), fast_path=fast)
            with pytest.raises(SimulationLimit):
                loaded.run(max_instructions=3000)
            results.append(cpu_state(loaded.cpu))
        # the budget boundary is exact: both engines pause after
        # precisely the same retired instruction
        assert results[0]["instructions"] == results[1]["instructions"]
        assert results[0] == results[1]

    @pytest.mark.parametrize("fast", [False, True])
    def test_empty_budget_still_retires_one_instruction(self, fast):
        # the budget is checked after each retire, so a zero quota on
        # a served session still makes progress
        source = "int main() { print(7); return 0; }"
        loaded = load_program(assemble(compile_source(source)),
                              fast_path=fast)
        with pytest.raises(SimulationLimit):
            loaded.run(max_instructions=0)
        assert loaded.cpu.instructions == 1

    def test_run_steps_chunks_are_exact(self):
        states = []
        for fast in (False, True):
            spec = WORKLOADS["023.eqntott"]
            asm = compile_source(workload_source("023.eqntott", 0.1),
                                 lang=spec.lang)
            loaded = load_program(assemble(asm), fast_path=fast)
            cpu = loaded.cpu
            cpu.pc, cpu.npc = loaded.entry, loaded.entry + 4
            trail = []
            for chunk in (1, 7, 64, 1, 913, 3, 256):
                cpu.run_steps(chunk)
                trail.append(cpu_state(cpu))
            states.append(trail)
        assert states[0] == states[1]


class TestInvalidation:
    def test_patch_flushes_compiled_blocks(self):
        # a self-looping counter: run some iterations fast, patch an
        # instruction inside the hot block, and both engines must see
        # the new code on the next pass
        source = """
        int total;
        int main() {
            register int i;
            for (i = 0; i < 200; i = i + 1) total = total + 3;
            print(total);
            return 0;
        }
        """
        finals = []
        for fast in (False, True):
            loaded = load_program(assemble(compile_source(source)),
                                  fast_path=fast)
            cpu = loaded.cpu
            cpu.pc, cpu.npc = loaded.entry, loaded.entry + 4
            cpu.run_steps(300)            # warm the block cache mid-loop
            # neuter one store-feeding add by patching it to a nop
            target = None
            for offset in range(len(cpu.code.insns)):
                insn = cpu.code.insns[offset]
                if type(insn).__name__ == "ArithInsn" and \
                        insn.op == "add" and insn.op2.is_imm and \
                        insn.op2.value == 3:
                    target = cpu.code.base + offset * 4
            assert target is not None
            replacement = NopInsn()
            replacement.tag = "orig"
            cpu.code.patch(target, replacement)
            cpu.run_steps(10 ** 9)        # run to completion
            finals.append((loaded.output, cpu_state(cpu)))
            if fast:
                assert cpu.fast_stats()["invalidations"] >= 1
                assert cpu.fast_stats()["block_runs"] > 0
        assert finals[0] == finals[1]


class TestSharedCode:
    """Every CPU in a process compiles through one bounded table of code
    objects, keyed by block shape; each block runs its own patched copy
    of its shape's code object."""

    def test_each_machine_runs_its_own_code(self):
        # miss penalties and the cache index mask are baked into the
        # shape, so one process running the same program on three
        # machines must still match the slow loop on each
        spec = WORKLOADS["030.matrix300"]
        asm = compile_source(workload_source("030.matrix300", 0.1),
                             lang=spec.lang)
        machines = [
            {},
            {"costs": DEFAULT_COSTS.copy(dmiss_penalty=13,
                                         imiss_penalty=11)},
            {"cache_bytes": 2048},
        ]
        for options in machines:
            states = []
            for fast in (False, True):
                loaded = load_program(assemble(asm), fast_path=fast,
                                      **options)
                loaded.run()
                states.append(cpu_state(loaded.cpu))
            assert states[1] == states[0], options

    def test_cpus_share_code_but_not_counters(self):
        spec = WORKLOADS["023.eqntott"]
        asm = compile_source(workload_source("023.eqntott", 0.1),
                             lang=spec.lang)
        first = load_program(assemble(asm))
        first.run()
        before = first.cpu.fast_stats()
        table = blocks.code_table_stats()
        second = load_program(assemble(asm))
        second.run()
        # every shape the second CPU needs, the first compiled
        assert blocks.code_table_stats()["compiles"] == table["compiles"]
        assert blocks.code_table_stats()["lookups"] > table["lookups"]
        # each CPU's blocks count into its own cache
        assert first.cpu.fast_stats() == before
        ones = first.cpu.block_cache().blocks
        twos = second.cpu.block_cache().blocks
        shared = [pc for pc, block in ones.items()
                  if block is not None and twos.get(pc) is not None]
        assert shared
        for pc in shared:
            assert ones[pc].fn.__code__.co_code == \
                twos[pc].fn.__code__.co_code
            assert ones[pc].fn is not twos[pc].fn

    def test_one_shape_at_two_pcs_compiles_once(self, monkeypatch):
        # one loop body assembled twice with different immediates, each
        # copy at the same offset in its 32-byte cache line
        program = assemble(TWO_LOOPS)
        heads = [program.labels["first"], program.labels["second"]]
        assert heads[0] % 32 == heads[1] % 32
        loaded = load_program(program)
        cache = loaded.cpu.block_cache()
        monkeypatch.setattr(blocks, "_table", {})   # this test's shapes
        compiles = blocks.code_table_stats()["compiles"]
        one, two = (cache.lookup(head) for head in heads)
        assert blocks.code_table_stats()["compiles"] == compiles + 1
        assert blocks.code_table_stats()["shapes"] == 1
        assert one.fn.__code__.co_code == two.fn.__code__.co_code
        assert one.fn.__code__.co_consts != two.fn.__code__.co_consts
        states = []
        for engine in (load_program(program, fast_path=False), loaded):
            states.append((engine.run(), cpu_state(engine.cpu)))
        assert states[1] == states[0]
        assert states[0][0] == 3 * 10 + 5 * 20
        assert cache.blocks[heads[0]] is one
        assert cache.blocks[heads[1]] is two
        assert loaded.cpu.fast_stats()["fallbacks"] == 0


def small_shapes(count, start=0):
    """*count* distinct one-slot shapes, numbered from *start*."""
    frame = (frozenset(), False)
    return [("x%d = cpu + %d" % (number, blocks._SLOT), frame, 1)
            for number in range(start, start + count)]


class TestShapeTable:
    """The process-wide shape table behind :func:`blocks._code`: keyed
    by a digest of the shape, bounded at ``CODE_TABLE_SIZE``, shared by
    every thread.  Each test swaps in an empty table of its own."""

    def test_repeated_traffic_compiles_each_shape_once(self, monkeypatch):
        monkeypatch.setattr(blocks, "_table", {})
        # more shapes than the old 512-entry LRU held, requested twice
        # in the same order: its worst case, which compiled them all
        # again on the second pass
        shapes = small_shapes(600)
        before = blocks.code_table_stats()
        for _ in range(2):
            for shape in shapes:
                assert blocks._code(*shape) is not None
        after = blocks.code_table_stats()
        assert after["compiles"] - before["compiles"] == 600
        assert after["lookups"] - before["lookups"] == 1200
        assert after["shapes"] == 600

        # filled past its bound, the table holds exactly its bound and
        # drops the least recently used shapes: shapes[0], requested
        # again first, stays and shapes[1] goes
        blocks._code(*shapes[0])
        more = small_shapes(blocks.CODE_TABLE_SIZE - 1, start=600)
        for shape in more:
            blocks._code(*shape)
        full = blocks.code_table_stats()
        assert full["shapes"] == blocks.CODE_TABLE_SIZE
        assert full["compiles"] - after["compiles"] == len(more)
        for shape in (shapes[0], more[-1]):
            blocks._code(*shape)
        assert blocks.code_table_stats()["compiles"] == full["compiles"]
        blocks._code(*shapes[1])
        assert blocks.code_table_stats()["compiles"] == full["compiles"] + 1
        assert blocks.code_table_stats()["shapes"] == blocks.CODE_TABLE_SIZE

    def test_key_is_the_whole_shape(self, monkeypatch):
        monkeypatch.setattr(blocks, "_table", {})
        body = "x = cpu + %d" % blocks._SLOT
        # a frame's set has no order: equal sets are one shape
        use = ["g", "win", "mon", "mem", "ld", "st", "flags", "regs"]
        compiles = blocks.code_table_stats()["compiles"]
        for order in (use, use[::-1], sorted(use)):
            assert blocks._code(body, (frozenset(order), False), 1)
        assert blocks.code_table_stats()["compiles"] == compiles + 1
        # the flags half of the frame, the slot count and the body each
        # make another shape; one that cannot be patched is kept too
        assert blocks._code(body, (frozenset(use), True), 1)
        assert blocks._code(body, (frozenset(use), False), 2) is None
        assert blocks._code(body, (frozenset(use), False), 2) is None
        assert blocks._code(body + "\n        x = 0",
                            (frozenset(use), False), 1)
        # a body is hashed in pieces: a difference past the first
        # pieces still makes another shape
        long = body + "\n        y = 1" * (3 * blocks._HASH_PIECE // 16)
        for last in ("1", "2"):
            assert blocks._code(long + last, (frozenset(use), False), 1)
        assert blocks.code_table_stats()["shapes"] == 6
        assert blocks.code_table_stats()["compiles"] == compiles + 6

    def test_worker_threads_share_the_table(self, monkeypatch):
        names = ["023.eqntott", "008.espresso", "001.gcc1.35", "022.li",
                 "030.matrix300", "020.nasker"]
        programs = {name: assemble(compile_source(
            workload_source(name, 0.1), lang=WORKLOADS[name].lang))
            for name in names}

        def run(name, fast):
            loaded = load_program(programs[name], fast_path=fast)
            code = loaded.run()
            return code, loaded.output, cpu_state(loaded.cpu)

        expected = {name: run(name, False) for name in names}
        # the shapes the six programs need and the block builds they
        # make, counted on one thread
        monkeypatch.setattr(blocks, "_table", {})
        lookups = blocks.code_table_stats()["lookups"]
        for name in names:
            run(name, True)
        shapes = blocks.code_table_stats()["shapes"]
        lookups = blocks.code_table_stats()["lookups"] - lookups

        start = threading.Barrier(len(names))
        results, errors = {}, []

        def worker(name):
            try:
                start.wait(timeout=60)
                results[name] = run(name, True)
            except Exception as error:       # reported below
                errors.append((name, error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)          # switch threads often
        try:
            for _round in range(3):          # each into an empty table
                monkeypatch.setattr(blocks, "_table", {})
                before = blocks.code_table_stats()
                results.clear()
                threads = [threading.Thread(target=worker, args=(name,))
                           for name in names]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                    assert not thread.is_alive()
                assert errors == []
                assert results == expected
                # one entry per shape, no lookup lost; threads that
                # missed one shape at once may each have compiled it
                after = blocks.code_table_stats()
                assert after["shapes"] == shapes
                assert after["compiles"] - before["compiles"] >= shapes
                assert after["lookups"] - before["lookups"] == lookups
        finally:
            sys.setswitchinterval(interval)


#: a loop whose blocks read each kind of slot the decoder reads: the
#: trace at ``loop`` runs through ``mid`` and follows ``call bump`` into
#: ``bump``; the one at ``print`` stops at the ``ta`` at ``trap``; the
#: one at ``tail`` fuses ``slot``, the delay slot of its ``bl``.  The
#: two nops at ``hook`` leave room for a call and its delay slot.
SLOTS = """
\t.text
\t.proc main
main:
\tsave %sp, -96, %sp
\tmov 0, %l0
\tmov 0, %l1
loop:
\tadd %l1, 3, %l1
mid:
\tadd %l1, 5, %l1
\tcall bump
\tnop
print:
\tmov %l1, %o0
trap:
\tta 1
tail:
\tadd %l1, 1, %l1
hook:
\tnop
\tnop
\tadd %l0, 1, %l0
\tcmp %l0, 12
\tbl loop
slot:
\tadd %l1, 2, %l1
\tmov %l1, %i0
\tret
\trestore
\t.endproc
\t.proc bump
bump:
\tadd %l1, 7, %l1
\tretl
\tnop
\t.endproc
"""

L1 = 17  # %l1


def add_l1(value):
    return ArithInsn("add", L1, Operand2.imm(value), L1)


def retl():
    return JmplInsn(15, Operand2.imm(8), 0)


def block_image(block):
    """What a compiled block is made of, for comparing two builds."""
    if block is None:
        return None
    code = block.fn.__code__
    return (block.entry, block.size, block.max_retire, block.tag,
            code.co_code, code.co_consts, block.fn.__globals__["_PCS"])


def assert_kept_blocks_fresh(cpu):
    """Flush the cache as the dispatch loop does, then check that the
    result handed back at every entry pc the cache keeps is the block a
    fresh decode of the current code builds."""
    cache = cpu.block_cache()
    cache.blocks.clear()
    cache.version = cpu.code.version
    for pc in list(cache.kept):
        fresh = blocks.compile_block(cpu, pc, blocks.BlockCache(cpu))
        assert block_image(cache.lookup(pc)) == block_image(fresh), hex(pc)


def replace_at(label, insn):
    def mutate(loaded):
        loaded.cpu.code.patch(loaded.program.labels[label], insn)
    return mutate


def fill_past_the_end(loaded):
    """Call a routine appended at the end of the code while its return
    is not there yet, decode the traces that reach it, then append the
    return: both traces read a slot past the end that is now filled."""
    cpu, labels = loaded.cpu, loaded.program.labels
    routine = cpu.code.append_block([add_l1(11)])
    cpu.code.patch(labels["hook"], CallInsn(routine))
    if cpu.fast_path:
        for pc in (labels["tail"], routine):
            blocks.compile_block(cpu, pc, cpu.block_cache())
    cpu.code.append_block([retl(), NopInsn()])


def drop_by_restore(loaded):
    """Run through an appended routine, then restore a checkpoint taken
    before it was appended: the slots the routine's trace read are past
    the end again."""
    cpu, labels = loaded.cpu, loaded.program.labels
    checkpoint = Checkpoint(cpu, loaded.output)
    routine = cpu.code.append_block([add_l1(13), retl(), NopInsn()])
    cpu.code.patch(labels["hook"], CallInsn(routine))
    cpu.run_steps(60)
    if cpu.fast_path:
        blocks.compile_block(cpu, routine, cpu.block_cache())
    checkpoint.restore(cpu, loaded.output)


#: case -> (the mutation, the entry whose kept block it must replace)
SLOT_CHANGES = {
    "mid-trace": (replace_at("mid", add_l1(6)), "loop"),
    "delay-slot": (replace_at("slot", add_l1(4)), "tail"),
    "call-target": (replace_at("bump", add_l1(9)), "loop"),
    "trace-end": (replace_at("trap", NopInsn()), "print"),
    "past-the-end": (fill_past_the_end, "tail"),
    "dropped-by-restore": (drop_by_restore, "tail"),
}


class TestRevalidation:
    """After a flush, a kept block is handed back only while every code
    slot its decode read holds the same instruction object, and what is
    handed back is exactly the block a fresh decode would build."""

    @pytest.mark.parametrize("case", sorted(SLOT_CHANGES))
    def test_changed_slot_forces_a_rebuild(self, case):
        mutate, entry = SLOT_CHANGES[case]
        finals = []
        for fast in (False, True):
            loaded = load_program(assemble(SLOTS), fast_path=fast)
            cpu = loaded.cpu
            cpu.run_steps(40)                 # two passes: blocks kept
            if fast:
                labels = loaded.program.labels
                stale = cpu.block_cache().kept[labels[entry]][0]
                assert stale is not None
            mutate(loaded)
            loaded.run()
            finals.append((loaded.output, cpu_state(cpu)))
        assert finals[1] == finals[0]
        kept = cpu.block_cache().kept
        assert kept[labels[entry]][0] is not stale
        assert cpu.fast_stats()["revalidated"] > 0
        assert_kept_blocks_fresh(cpu)
        if case == "trace-end":
            # the ta ended the trace; the nop that replaced it does not
            assert kept[labels[entry]][0].size > stale.size

    def test_restore_of_identical_code_rebuilds_nothing(self):
        spec = WORKLOADS["022.li"]
        asm = compile_source(workload_source("022.li", 0.1), lang=spec.lang)
        loaded = load_program(assemble(asm))
        cpu = loaded.cpu
        cpu.run_steps(5000)
        checkpoint = Checkpoint(cpu, loaded.output)
        cpu.run_steps(20000)
        state, before = cpu_state(cpu), cpu.fast_stats()
        checkpoint.restore(cpu, loaded.output)
        cpu.run_steps(20000)
        after = cpu.fast_stats()
        assert cpu_state(cpu) == state
        assert after["invalidations"] == before["invalidations"] + 1
        # every block the second pass enters was kept from the first
        assert after["decodes"] == before["decodes"]
        assert after["revalidated"] > before["revalidated"] + 20
        assert_kept_blocks_fresh(cpu)


class LoggedSlots(list):
    """A code list that logs the index of every slot read from it."""

    def __init__(self, insns):
        super().__init__(insns)
        self.read = set()

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.read.update(range(*index.indices(len(self))))
        else:
            self.read.add(index if index >= 0 else index + len(self))
        return super().__getitem__(index)


def _reads_every_slot(name):
    method = getattr(list, name)

    def logged(self, *args):
        self.read.update(range(len(self)))
        return method(self, *args)
    return logged


for _name in ("__iter__", "__reversed__", "__contains__", "index", "count",
              "copy"):
    setattr(LoggedSlots, _name, _reads_every_slot(_name))


class TestDecodeRecordsItsReads:
    """Revalidation compares only the slots a decode recorded, so a
    block must depend on no other slot.  This probe fails if the block
    compiler reads code some other way."""

    @pytest.mark.parametrize("strategy, mode",
                             [("BitmapInline", None),
                              ("BitmapInlineRegisters", "full")])
    def test_every_slot_read_is_recorded(self, strategy, mode):
        spec = WORKLOADS["022.li"]
        asm = compile_source(workload_source("022.li", 0.02),
                             lang=spec.lang)
        plan = pipeline.build_plan(asm, mode=mode)[1] if mode else None
        session = DebugSession.from_asm(asm, strategy=strategy, plan=plan)
        cpu = session.cpu
        patches = session.mrs.patches
        for site in list(patches.patchable):  # Kessler patches in place
            patches.activate(site, "probe")
        code = cpu.code
        code.insns = logged = LoggedSlots(code.insns)
        cache = blocks.BlockCache(cpu)
        entries = range(code.base, code.limit + 8, 4)
        for pc in entries:
            logged.read.clear()
            blocks.compile_block(cpu, pc, cache)
            _block, indices, objects, _top = cache.kept[pc]
            assert logged.read <= set(indices), hex(pc)
            assert objects == tuple(
                list.__getitem__(logged, index) if index < len(logged)
                else None for index in indices)
        assert cache.decodes == len(entries)
        assert sum(kept[0] is not None for kept in cache.kept.values()) \
            > len(entries) // 2
        # unchanged code: every entry is handed back, none decoded again
        for pc in entries:
            assert blocks.compile_block(cpu, pc, cache) is cache.kept[pc][0]
        assert cache.decodes == len(entries)
        assert cache.revalidated == len(entries)


class TestReplacedNotEdited:
    """Revalidation compares instruction objects by identity, so an
    object in a code slot must never change: one debugger session runs
    through every operation that changes code, and each object seen in
    a slot must still encode to the bytes it had when first seen."""

    def test_installed_instructions_never_change(self):
        source = """
        int total;
        int grid[8];
        int bump(int k) { total = total + k; return total; }
        int main() {
            register int i;
            for (i = 0; i < 6; i = i + 1) { bump(i); grid[i] = total; }
            print(total);
            return 0;
        }
        """
        debugger = Debugger.for_source(source, optimize="full")
        seen = {}

        def note():
            for insn in debugger.cpu.code.insns:
                if insn is not None and id(insn) not in seen:
                    seen[id(insn)] = (insn, encode_insn(insn))

        def run_to_exit():
            while debugger.run() != "exited":
                note()

        note()
        watch = debugger.watch("total")            # Kessler activation
        note()
        debugger.record(stride=50)
        breakpoint = debugger.break_at("bump")
        note()
        assert debugger.run() == "breakpoint:bump"
        debugger.clear_breakpoint(breakpoint)
        note()
        run_to_exit()
        assert debugger.reverse_continue() == "watch"
        note()
        assert debugger.last_write("grid[2]").source == "scan"
        note()
        debugger.unwatch(watch)                    # Kessler deactivation
        note()
        snapshot = debugger.checkpoint()
        debugger.step(30)
        note()
        debugger.restore(snapshot)
        note()
        debugger.watch("grid[1]")
        run_to_exit()
        note()
        assert len(seen) > len(debugger.cpu.code.insns)
        edited = [insn for insn, record in seen.values()
                  if encode_insn(insn) != record]
        assert edited == []


TWO_LOOPS = """
\t.text
\t.proc main
main:
\tsave %sp, -96, %sp
\tmov 0, %l0
\tmov 0, %l1
\tnop
\tnop
\tnop
\tnop
\tnop
first:
\tadd %l0, 3, %l0
\tadd %l1, 1, %l1
\tcmp %l1, 10
\tbl first
\tnop
\tmov 0, %l1
\tnop
\tnop
second:
\tadd %l0, 5, %l0
\tadd %l1, 1, %l1
\tcmp %l1, 20
\tbl second
\tnop
\tmov %l0, %i0
\tret
\trestore
\t.endproc
"""


#: registers the generated blocks compute in: two each of globals,
#: outs, locals and ins (%g1 holds the base address).  A block first
#: sets the first three to constants; it reads the rest at run time.
GEN_REGS = (2, 8, 16, 3, 9, 17, 24, 25)
GEN_CONDS = ("e", "ne", "l", "ge", "le", "g", "lu", "geu", "leu", "gu",
             "neg", "pos")
#: word address the generated blocks' base register holds
GEN_BASE = 0x10004100
FP = 30  # %fp

#: 32-bit words, edge cases for carries, overflows and addresses first
gen_words = st.one_of(
    st.sampled_from((0, 1, 4, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFC,
                     0xFFFFFFFF)),
    st.integers(0, 2 ** 32 - 1))


def set_word(word, rd):
    """``set word, rd``: a sethi, and an or unless the low bits are 0."""
    insns = [SethiInsn(word >> 10, rd)]
    if word & 0x3FF:
        insns.append(ArithInsn("or", rd, Operand2.imm(word & 0x3FF), rd))
    return insns


@st.composite
def gen_alu(draw):
    op2 = draw(st.one_of(
        st.integers(-4096, 4095).map(Operand2.imm),
        st.sampled_from((0,) + GEN_REGS).map(Operand2.reg)))
    return ArithInsn(draw(st.sampled_from(sorted(ALU_OPS))),
                     draw(st.sampled_from((0,) + GEN_REGS)), op2,
                     draw(st.sampled_from((0,) + GEN_REGS)),
                     draw(st.booleans()))


@st.composite
def gen_mem(draw):
    # mostly %g1 (an aligned address, constant or read at run time) or
    # %fp; sometimes %g2 (a constant word) or %g3 (a run-time one),
    # which fault on most word accesses, as do displacements 1 and -3
    addr = MemAddress(draw(st.sampled_from((1, 1, 1, 1, FP, FP, 2, 3))),
                      imm=draw(st.sampled_from((-12, -8, -4, 0, 4, 8, 12,
                                                16, 1, -3))))
    kind = draw(st.sampled_from(("ld", "ldub", "ldsb", "st", "stb")))
    if kind.startswith("ld"):
        return LoadInsn(1 if kind != "ld" else 4, addr,
                        draw(st.sampled_from(GEN_REGS)),
                        signed=kind == "ldsb")
    insn = StoreInsn(4 if kind == "st" else 1,
                     draw(st.sampled_from((0,) + GEN_REGS)), addr)
    insn.site = draw(st.one_of(st.none(), st.integers(0, 99)))
    return insn


@st.composite
def gen_block(draw):
    """Run-time values for the registers and the memory the block
    reads, then a straight-line body over forwarded constants and the
    conditional branch that ends it: ``(values, body, cond, annul,
    slot)``."""
    values = draw(st.lists(gen_words, min_size=len(GEN_REGS) + 6,
                           max_size=len(GEN_REGS) + 6))
    body = []
    # mostly a constant base address, seldom a misaligned one
    if draw(st.integers(0, 3)):
        body += set_word(draw(st.sampled_from((GEN_BASE,) * 3
                                              + (GEN_BASE + 1,))), 1)
    for rd in GEN_REGS[:3]:
        body += set_word(draw(gen_words), rd)
    body += draw(st.lists(st.one_of(gen_alu(), gen_alu(), gen_mem()),
                          min_size=6, max_size=14))
    slot = draw(st.one_of(gen_alu(), gen_mem(), st.just(NopInsn())))
    return (values, body, draw(st.sampled_from(GEN_CONDS)),
            draw(st.booleans()), slot)


def generated_program(block):
    """``main``: a ``lib`` prologue that stores run-time values around
    the base address and puts others in the registers (a tag change
    ends a block, so the block reads them at run time), then *block*'s
    body and branch; both arms exit in ``main``'s window, so the
    window's registers stay observable."""
    values, body, cond, annul, slot = block
    prologue = set_word(GEN_BASE, 1)
    for offset, word in zip(range(-12, 12, 4), values[len(GEN_REGS):]):
        prologue += set_word(word, 2)
        prologue.append(StoreInsn(4, 2, MemAddress(1, imm=offset)))
    for rd, word in zip(GEN_REGS, values):
        prologue += set_word(word, rd)
    for insn in prologue:
        insn.tag = "lib"
    program = assemble("\t.text\n\t.proc main\nmain:\n"
                       "\tsave %sp, -96, %sp\n"
                       + "\tnop\n" * (len(prologue) + len(body))
                       + "\tbe taken\n\tnop\n\tnop\ntaken:\n"
                       "\tta 0\n\t.endproc\n")
    start = (program.labels["main"] - program.text_base) // 4 + 1
    end = start + len(prologue) + len(body)
    program.insns[start:end] = prologue + body
    program.insns[end] = BranchInsn(cond, program.labels["taken"], annul)
    program.insns[end + 1] = slot
    return program, program.text_base + 4 * (start + len(prologue))


def run_generated(program, fast):
    loaded = load_program(program, fast_path=fast, record_writes=True)
    try:
        outcome = ("exit", loaded.run())
    except (MemoryFault, ZeroDivisionError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, loaded


class TestGeneratedBlocks:
    """Blocks no workload contains, built over forwarded constants, so
    the builder's own constant folding runs against the slow loop."""

    @given(block=gen_block())
    # a constant sdiv by zero; misaligned constant addresses
    @example(block=([0] * 14, set_word(GEN_BASE, 1) + [
        ArithInsn("or", 0, Operand2.imm(7), 8),
        ArithInsn("sdiv", 8, Operand2.reg(0), 9)], "e", False, NopInsn()))
    @example(block=([0] * 14, set_word(GEN_BASE + 1, 1) + [
        LoadInsn(4, MemAddress(1, imm=0), 8)], "ne", False, NopInsn()))
    @example(block=([0] * 14, set_word(GEN_BASE, 1) + [
        StoreInsn(4, 8, MemAddress(1, imm=-3))], "g", True, NopInsn()))
    # constant addresses that wrap around 2**32
    @example(block=([0, 0, 0, 9] + [0] * 10, set_word(0xFFFFFFFC, 2) + [
        StoreInsn(4, 3, MemAddress(2, imm=8)),
        StoreInsn(1, 3, MemAddress(0, imm=-4))], "e", False, NopInsn()))
    # a negative constant shifted by a run-time amount; a carry edge
    @example(block=([0, 0, 0, 5] + [0] * 10, set_word(0x80000010, 2) + [
        ArithInsn("sra", 2, Operand2.reg(3), 8)], "e", False, NopInsn()))
    @example(block=([0] * 14, set_word(0xFFFFFFFF, 2) + [
        ArithInsn("add", 2, Operand2.reg(3), 8, True)], "lu", False,
        NopInsn()))
    # a borrow edge: a run-time value minus itself
    @example(block=([0, 0, 0, 7] + [0] * 10, [
        ArithInsn("sub", 3, Operand2.reg(3), 8, True)], "geu", False,
        NopInsn()))
    # condition codes folded from constants: an overflow, no carry
    @example(block=([0] * 14, set_word(0x7FFFFFFF, 2) + [
        ArithInsn("add", 2, Operand2.imm(1), 8, True)], "l", False,
        NopInsn()))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_generated_block_is_bit_exact(self, block):
        program, entry = generated_program(block)
        slow, slow_run = run_generated(program, fast=False)
        fast, fast_run = run_generated(program, fast=True)
        assert fast == slow
        assert cpu_state(fast_run.cpu) == cpu_state(slow_run.cpu)
        assert fast_run.cpu.write_trace == slow_run.cpu.write_trace
        assert fast_run.cpu.block_cache().blocks[entry] is not None
        assert fast_run.cpu.fast_stats()["fallbacks"] == 0


class TestNoFallbacks:
    """Every block of real code is patched from its shape: a builder
    change that leaves an expression made only of constants for
    Python to fold fails here, on the Python that folds it."""

    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_workloads_never_fall_back(self, name):
        bench = WorkloadBench(name, scale=0.02)
        runs = [bench.baseline()]
        for column in TABLE1_COLUMNS:
            runs.append(bench.run_instrumented(
                "Bitmap" if column == "Disabled" else column,
                enabled=column != "Disabled"))
        _stmts, plan = pipeline.build_plan(bench.asm, mode="full")
        runs.append(bench.run_instrumented("BitmapInlineRegisters",
                                           plan=plan))
        for run in runs:
            stats = run.session.cpu.fast_stats()
            assert stats["decodes"] > 0
            assert stats["fallbacks"] == 0

    def test_shape_check_refuses_folded_and_dead_slots(self):
        slot = blocks._SLOT
        frame = (frozenset(), False)
        assert blocks._code("x = cpu + %d" % slot, frame, 1) is not None
        # Python folds two slots into one constant
        assert blocks._code("x = %d | %d" % (slot, slot + 1), frame, 2) \
            is None
        # a slot in code Python proves dead is never loaded
        assert blocks._code("x = %d if 0 else cpu" % slot, frame, 1) \
            is None

    def test_unfolded_constants_fall_back_bit_exact(self, monkeypatch):
        # a builder that leaves a constant base plus a displacement for
        # Python to fold: the shape cannot be patched, so each such
        # block is refused and the slow loop runs its entry
        def unfolded(self, a, b):
            return "(%s + %s) & 4294967295" % (self.src(a), self.src(b))

        monkeypatch.setattr(blocks._Builder, "add", unfolded)
        body = set_word(GEN_BASE, 1) + [
            LoadInsn(4, MemAddress(1, imm=8), 8),
            StoreInsn(4, 8, MemAddress(1, imm=-4))]
        program, entry = generated_program(
            (list(range(14)), body, "e", False, NopInsn()))
        slow, slow_run = run_generated(program, fast=False)
        fast, fast_run = run_generated(program, fast=True)
        assert fast == slow
        assert cpu_state(fast_run.cpu) == cpu_state(slow_run.cpu)
        assert fast_run.cpu.fast_stats()["fallbacks"] >= 1
        assert fast_run.cpu.block_cache().blocks[entry] is None


SEEDED_SOURCE = """
int cells[16];
int state;
int step() {
    state = (state * 69069 + 12345) % 2048;
    cells[state % 16] = state + cells[(state + 5) % 16] / 3;
    return state;
}
int main() {
    register int i;
    state = SEED;
    for (i = 0; i < 14; i = i + 1) step();
    print(state);
    return 0;
}
"""


def record_seeded(seed, stride, fast):
    source = SEEDED_SOURCE.replace("SEED", str(seed % 2048))
    debugger = Debugger.for_source(source, optimize="full")
    debugger.cpu.fast_path = fast
    watch_state = debugger.watch("state", action="log")
    watch_cells = debugger.watch("cells", action="log")
    recorder = debugger.record(stride=stride)
    reason = debugger.run()
    while reason != "exited":
        reason = debugger.run()
    return debugger, recorder, (watch_state, watch_cells)


class TestRecordedParity:
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           stride=st.integers(min_value=40, max_value=500))
    @settings(max_examples=8, deadline=None)
    def test_seeded_recordings_are_byte_identical(self, seed, stride):
        slow = record_seeded(seed, stride, fast=False)
        fast = record_seeded(seed, stride, fast=True)
        # recorded trace bytes and digests
        assert fast[1].trace.to_bytes() == slow[1].trace.to_bytes()
        assert fast[1].trace.digest() == slow[1].trace.digest()
        # keyframe schedule and state digests
        assert ([(frame.index, frame.digest)
                 for frame in fast[1].keyframes] ==
                [(frame.index, frame.digest)
                 for frame in slow[1].keyframes])
        # monitor hit sequences, watchpoint by watchpoint
        for fast_wp, slow_wp in zip(fast[2], slow[2]):
            assert fast_wp.hits == slow_wp.hits
        # machine state
        assert cpu_state(fast[0].cpu) == cpu_state(slow[0].cpu)
        assert fast[0].output == slow[0].output

    def test_fast_recording_replays_backwards(self):
        # the recording made in fast mode must satisfy the replay
        # engine's divergence verification (replay re-executes with
        # whatever engine the session uses)
        debugger, recorder, watches = record_seeded(7, 120, fast=True)
        hits_before = list(watches[0].hits)
        assert hits_before
        reason = debugger.reverse_continue()
        assert reason.startswith("watch") or reason == "start"
        _entry, _addr, value = debugger.evaluate("state")
        assert value == hits_before[-1][2]
