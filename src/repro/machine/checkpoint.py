"""Checkpoint/restore of simulator state — the §5 replay application.

"Other applications of data breakpoints include ... checkpointing data
for replayed execution."  A checkpoint captures everything the debuggee
needs to re-execute deterministically: registers (including the window
chain), data memory, code space (with any dynamic patches), control
state, and — optionally — the monitored region service's host-side
bookkeeping, so watchpoints can be *changed* between replays.

Typical replay loop: checkpoint early, run until a data breakpoint
reports corruption, restore, re-run with narrower breakpoints to close
in on the culprit (see ``examples/replay_debugging.py``).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.isa.registers import RegisterFile, _Window
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
        cpu.code.insns[:] = self.code_insns
        # the code space changed behind patch()/append_block(): force the
        # basic-block cache to flush its compiled handlers
        cpu.code.version += 1
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
    return {
        "regions": list(mrs.regions),
        "hits": list(mrs.hits),
        "preheader_hits": dict(mrs.preheader_hits),
        "active_reasons": copy.deepcopy(mrs.patches.reasons),
        "bitmap": (dict(mrs.bitmap._segments),
                   dict(mrs.bitmap._word_counts),
                   dict(mrs.bitmap.region_counts),
                   mrs.bitmap._arena_next),
        "superpages": dict(mrs.superpages._counts),
        "enabled": mrs.enabled,
    }


def _restore_mrs(mrs, state: Dict) -> None:
    from repro.core.regions import RegionSet

    regions = RegionSet()
    for region in state["regions"]:
        regions.add(region)
    mrs.regions = regions
    mrs.hits = list(state["hits"])
    mrs.preheader_hits = dict(state["preheader_hits"])
    mrs.patches.reasons = copy.deepcopy(state["active_reasons"])
    segments, word_counts, region_counts, arena_next = state["bitmap"]
    mrs.bitmap._segments = dict(segments)
    mrs.bitmap._word_counts = dict(word_counts)
    mrs.bitmap.region_counts = dict(region_counts)
    mrs.bitmap._arena_next = arena_next
    mrs.superpages._counts = dict(state["superpages"])
    mrs.enabled = state["enabled"]
    # code space was rewound above; make the per-site active flags agree
    # with the restored activation refcounts
    patches = getattr(mrs, "patches", None)
    if patches is not None:
        patches.sync_active_flags()
