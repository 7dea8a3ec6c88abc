"""Checkpoint/restore of simulator state — the §5 replay application.

"Other applications of data breakpoints include ... checkpointing data
for replayed execution."  A checkpoint captures everything the debuggee
needs to re-execute deterministically: registers (including the window
chain), data memory, code space (with any dynamic patches), control
state, and — optionally — the monitored region service's host-side
bookkeeping, so watchpoints can be *changed* between replays.

The MRS's monitor tables (bitmap, segment table, superpage counts) and
its disabled flag ``%g2`` live in the debuggee, so memory and registers
already carry them.  The MRS snapshot holds only the five things the
debuggee does not: the region spans, the notification count, the patch
refcounts, the segments' arena addresses and the arena's next free
address.  Restoring the refcounts needs nothing more, because a site is
active exactly when it has a refcount and the code slots rewind with
code space.

In memory a checkpoint holds a copy of the memory dict and of the code
list, and the MRS snapshot as plain data (region spans, refcount and
address pairs) — no live region objects.  What leaves the process is
:mod:`repro.machine.state`'s encoding of it: memory as packed words,
code as the slots that differ from the program image.

Typical replay loop: checkpoint early, run until a data breakpoint
reports corruption, restore, re-run with narrower breakpoints to close
in on the culprit (see ``examples/replay_debugging.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.isa.registers import RegisterFile, _Window

if TYPE_CHECKING:
    from repro.machine.cpu import CPU


class Checkpoint:
    """Immutable snapshot of one CPU (plus optional MRS bookkeeping)."""

    __slots__ = ("pc", "npc", "icc", "globals", "monitors", "windows",
                 "window_counters", "memory_words", "brk", "code_insns",
                 "cycles", "instructions", "loads", "stores", "traps_taken",
                 "tag_cycles", "tag_counts", "cache_lines", "cache_stats",
                 "window_depth", "run_state", "output_len", "mrs_state")

    def __init__(self, cpu: CPU, output: Optional[List[str]] = None,
                 mrs=None):
        self.pc = cpu.pc
        self.npc = cpu.npc
        self.icc = (cpu.icc_n, cpu.icc_z, cpu.icc_v, cpu.icc_c)
        regs = cpu.regs
        self.globals = list(regs.globals)
        self.monitors = list(regs.monitors)
        self.windows = _serialize_windows(regs)
        self.window_counters = (regs._resident, regs._spilled, regs.depth)
        self.memory_words = dict(cpu.mem.words)
        self.brk = cpu.mem.brk
        self.code_insns = list(cpu.code.insns)
        self.cycles = cpu.cycles
        self.instructions = cpu.instructions
        self.loads = cpu.loads
        self.stores = cpu.stores
        self.traps_taken = cpu.traps_taken
        self.tag_cycles = dict(cpu.tag_cycles)
        self.tag_counts = dict(cpu.tag_counts)
        self.cache_lines = list(cpu.cache.lines)
        self.cache_stats = (cpu.cache.hits, cpu.cache.misses)
        self.window_depth = (cpu._window_depth, cpu.max_window_depth)
        self.run_state = (cpu.running, cpu.exit_code)
        self.output_len = len(output) if output is not None else None
        self.mrs_state = _snapshot_mrs(mrs) if mrs is not None else None

    def restore(self, cpu: CPU, output: Optional[List[str]] = None,
                mrs=None) -> None:
        """Rewind *cpu* (and optionally *output*/*mrs*) to this state."""
        cpu.pc = self.pc
        cpu.npc = self.npc
        cpu.icc_n, cpu.icc_z, cpu.icc_v, cpu.icc_c = self.icc
        regs = cpu.regs
        regs.globals[:] = self.globals
        regs.monitors[:] = self.monitors
        _restore_windows(regs, self.windows)
        regs._resident, regs._spilled, regs.depth = self.window_counters
        cpu.mem.words = dict(self.memory_words)
        cpu.mem.brk = self.brk
        # a new code version flushes the block cache; each block entered
        # again is revalidated against its slots, so code restored as it
        # was flushed is not rebuilt
        cpu.code.restore(self.code_insns)
        cpu.cycles = self.cycles
        cpu.instructions = self.instructions
        cpu.loads = self.loads
        cpu.stores = self.stores
        cpu.traps_taken = self.traps_taken
        cpu.tag_cycles = dict(self.tag_cycles)
        cpu.tag_counts = dict(self.tag_counts)
        cpu.cache.lines[:] = self.cache_lines
        cpu.cache.hits, cpu.cache.misses = self.cache_stats
        cpu._window_depth, cpu.max_window_depth = self.window_depth
        cpu.running, cpu.exit_code = self.run_state
        cpu.write_trace = []
        cpu._branch_target = None
        cpu._annul_slot = False
        cpu._skip_slot = False
        if output is not None and self.output_len is not None:
            del output[self.output_len:]
        if mrs is not None and self.mrs_state is not None:
            _restore_mrs(mrs, self.mrs_state)


def _serialize_windows(regs: RegisterFile) -> List[Tuple[List[int],
                                                         List[int]]]:
    frames = []
    window = regs._window
    while window is not None:
        frames.append((list(window.outs), list(window.locals)))
        window = window.parent
    return frames


def _restore_windows(regs: RegisterFile, frames) -> None:
    parent = None
    for outs, locals_ in reversed(frames):
        window = _Window(parent=parent)
        window.outs[:] = outs
        window.locals[:] = locals_
        parent = window
    regs._window = parent


def _snapshot_mrs(mrs) -> Dict:
    bitmap = mrs.bitmap
    return {
        "regions": [region.key() for region in mrs.regions],
        "hits": mrs.hits,
        "active_reasons": [(site, list(reasons.items()))
                           for site, reasons in mrs.patches.reasons.items()],
        "segments": list(bitmap._segments.items()),
        "arena_next": bitmap._arena_next,
    }


def _restore_mrs(mrs, state: Dict) -> None:
    from repro.core.regions import MonitoredRegion, RegionSet

    regions = RegionSet()
    for start, size in state["regions"]:
        regions.add(MonitoredRegion(start, size))
    mrs.regions = regions
    mrs.hits = state["hits"]
    mrs.patches.reasons = {site: dict(reasons)
                           for site, reasons in state["active_reasons"]}
    bitmap = mrs.bitmap
    bitmap._segments = dict(state["segments"])
    bitmap._arena_next = state["arena_next"]
