"""Source-level data breakpoints: the debugger the MRS was built for.

§2: "It is the responsibility of the debugger to map source language
names used in the break conditions to monitored regions, and to create
and delete monitored regions as necessary."  This module is that
debugger: it resolves mini-C names (``g``, ``a[3]``, ``s.f``, locals by
function) through the symbol table, pairs ``PreMonitor`` with
``CreateMonitoredRegion`` as §4.2 requires, and dispatches watchpoint
actions (print / count / stop / user callback) from monitor-hit
notifications.

Control breakpoints (``break_at``) are implemented with the same
Kessler-style patching the MRS uses for write checks, so the debugger
can stop a program and then watch frame-local variables at a live
frame.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.asm.symtab import SymbolError, SymEntry
from repro.errors import ReproError
from repro.isa.instructions import to_signed
from repro.core.regions import MonitoredRegion
from repro.instrument.plan import OptimizationPlan
from repro.instrument.rewriter import InstrumentResult
from repro.isa import instructions as I
from repro.isa.registers import FP
from repro.machine.cpu import SimulationLimit
from repro.minic.codegen import compile_source
from repro.optimizer.pipeline import build_plan
from repro.session import DebugSession

TRAP_BREAKPOINT = 0x48

_INDEX_RE = re.compile(r"^(\w+)\[(\d+)\]$")


class DebuggerError(ReproError):
    """Raised for unresolvable names or invalid debugger requests."""


class Watchpoint:
    """One active data breakpoint — plain, conditional or transition.

    *predicate* is a compiled
    :class:`~repro.watchpoints.predicate.Predicate` (None for the
    plain/legacy kinds); *when* selects transition-edge firing
    (``"rise"`` / ``"fall"`` / ``"change"``, None for level-triggered);
    *access* filters hit kinds (``"read"`` / ``"write"`` /
    ``"readWrite"``, None for the historical any-access behaviour).
    The ``truth`` / ``stats`` fields belong to the
    :class:`~repro.watchpoints.engine.WatchpointEngine` and are seeded
    at arm time; :meth:`Debugger.checkpoint` captures them by value.
    Old values live once per session, in :attr:`Debugger.shadow`.
    """

    def __init__(self, debugger: "Debugger", name: str, entry: SymEntry,
                 addr: int, size: int, action: str,
                 condition: Optional[Callable[[int], bool]],
                 callback: Optional[Callable], func: Optional[str],
                 predicate=None, when: Optional[str] = None,
                 access: Optional[str] = None):
        from repro.watchpoints.engine import WatchStats

        self.debugger = debugger
        self.name = name
        self.entry = entry
        #: the (possibly shared) monitored region; set when armed
        self.region: Optional[MonitoredRegion] = None
        self.action = action
        self.condition = condition
        self.callback = callback
        self.func = func
        self.predicate = predicate
        self.when = when
        self.access = access
        #: exact watched byte range (the region is word-rounded and
        #: may be shared; the engine's byte-range guard uses these)
        self.addr = addr
        self.size = size
        #: one (addr, size, value, index) per firing, in order; *index*
        #: is the instruction index of the notification trap, so
        #: ``index + 1`` is where a stop on this firing lands
        self.hits: List[Tuple[int, int, int, int]] = []
        self.enabled = True
        #: pruner verdict (repro.analysis.prune): True when no write
        #: site can change the predicate's truth, so the engine may
        #: answer hits from a seed-time cache
        self.invariant = False
        # engine state (per-watchpoint; checkpointed by value)
        self.truth: Optional[bool] = None
        self.cached_truth: Optional[bool] = None
        self.stats = WatchStats()
        self.disarm_error = None

    @property
    def kind(self) -> str:
        """"transition", "conditional" or "plain"."""
        if self.when is not None:
            return "transition"
        if self.predicate is not None or self.condition is not None:
            return "conditional"
        return "plain"

    @property
    def region_key(self) -> Tuple[int, int]:
        """``(start, size)`` of the word-rounded region it watches."""
        return (self.addr, (self.size + 3) & ~3)

    def hit_count(self) -> int:
        return len(self.hits)

    def last_value(self) -> Optional[int]:
        return self.hits[-1][2] if self.hits else None

    def delete(self) -> None:
        self.debugger.unwatch(self)


class Breakpoint:
    """One control breakpoint, patched at a function entry."""

    def __init__(self, func_name: str, addr: int, block_addr: int,
                 original: I.Instruction,
                 callback: Optional[Callable]):
        self.func_name = func_name
        self.addr = addr
        self.block_addr = block_addr
        self.original = original
        self.callback = callback
        self.hits = 0


class Debugger:
    """A data-breakpoint debugging session on one program."""

    def __init__(self, session: DebugSession):
        from repro.watchpoints.engine import WatchpointEngine

        self.session = session
        self.mrs = session.mrs
        self.cpu = session.cpu
        self.symtab = session.program.symtab
        self.engine = WatchpointEngine(self)
        #: watchpoints on the same storage share one monitored region
        #: (regions must not overlap); the list is the only record of
        #: which regions this debugger armed
        self.watchpoints: List[Watchpoint] = []
        #: word -> its value before the next write, over every word of
        #: every region watch() created: §2.1 checks run after the
        #: store lands, so this is the only copy of the overwritten
        #: value (``$old``, ``WriteRecord.old``)
        self.shadow: Dict[int, int] = {}
        self.breakpoints: Dict[int, Breakpoint] = {}
        self.stop_reason: Optional[str] = None
        self.stopped_watch: Optional[Watchpoint] = None
        self._started = False
        self.log: List[str] = []
        self._recorder = None
        self._replay = None
        self.mrs.add_callback(self._on_hit)
        self.cpu.trap_handlers[TRAP_BREAKPOINT] = self._on_breakpoint
        self.mrs.enable()

    # -- construction ------------------------------------------------------

    @classmethod
    def for_source(cls, c_source: str, lang: str = "C",
                   strategy: str = "BitmapInlineRegisters",
                   optimize: Optional[str] = "full",
                   monitor_reads: bool = False,
                   faults=None) -> "Debugger":
        """Compile, instrument and attach a debugger to mini-C source:
        :meth:`attach` of a new :meth:`build`.

        *optimize* is any :func:`~repro.optimizer.pipeline.build_plan`
        mode (``"sym"``, ``"full"``, ``"ipa"``) or None; *faults* arms
        the session's MRS and memory injection points.
        """
        return cls.attach(cls.build(c_source, lang=lang, strategy=strategy,
                                    optimize=optimize,
                                    monitor_reads=monitor_reads),
                          faults=faults)

    @staticmethod
    def build(c_source: str, lang: str = "C",
              strategy: str = "BitmapInlineRegisters",
              optimize: Optional[str] = "full",
              monitor_reads: bool = False) -> InstrumentResult:
        """Compile, plan, instrument and assemble mini-C source: the
        half of :meth:`for_source` that depends only on the program,
        shared by every debugger :meth:`attach` makes from it."""
        asm = compile_source(c_source, lang=lang)
        plan: Optional[OptimizationPlan] = None
        if optimize:
            _stmts, plan = build_plan(asm, mode=optimize)
        return DebugSession.build(asm, strategy=strategy, plan=plan,
                                  monitor_reads=monitor_reads)

    @classmethod
    def attach(cls, inst: InstrumentResult, faults=None) -> "Debugger":
        """A debugger on a new machine loaded with the assembled
        *inst*; *faults* arms its MRS and memory injection points."""
        return cls(DebugSession.attach(inst, faults=faults))

    # -- name resolution -------------------------------------------------------

    def resolve(self, expression: str, func: Optional[str] = None
                ) -> Tuple[SymEntry, int, int]:
        """Resolve a watch expression to (entry, address, size).

        Supported forms: ``g``, ``a[3]``, ``s.f`` (field stabs), and —
        when *func*'s frame is live (stopped at a breakpoint in it) —
        frame-local names.
        """
        name = expression.strip()
        index: Optional[int] = None
        match = _INDEX_RE.match(name)
        if match:
            name, index = match.group(1), int(match.group(2))
        try:
            entry = self.symtab.lookup(name, func)
        except SymbolError:
            raise DebuggerError("no symbol %r (func=%r)" % (name, func))
        if entry.kind == "register":
            raise DebuggerError(
                "%s lives in a register; registers cannot be aliased so "
                "watch assignments to it with a control breakpoint "
                "instead (§2)" % name)
        if entry.is_frame_relative():
            if func is None:
                raise DebuggerError("%r is frame-local; pass func=" % name)
            base = (self.cpu.regs.read(FP) + entry.offset) & 0xFFFFFFFF
        else:
            base = entry.address
        size = entry.size
        if index is not None:
            elem = entry.elem or 4
            if index * elem >= entry.size:
                raise DebuggerError("%s[%d] out of range" % (name, index))
            base += index * elem
            size = elem
        return entry, base, size

    # -- data breakpoints ---------------------------------------------------------

    def watch(self, expression: str, func: Optional[str] = None,
              action: str = "log",
              condition: Optional[Callable[[int], bool]] = None,
              callback: Optional[Callable] = None,
              expr: Optional[str] = None, when: Optional[str] = None,
              access: Optional[str] = None) -> Watchpoint:
        """Create a data breakpoint on *expression*.

        ``action``: "log" (record hits), "print" (also append to
        ``self.log``), "stop" (suspend execution), or "call" (invoke
        *callback*).  *condition* filters hits by the newly written
        value (legacy callable form).

        ``expr`` is a predicate in the watchpoint predicate language
        (``$value > 100 && limit != 0``), compiled once at arm time;
        ``when`` turns the watchpoint into a *transition* watchpoint
        firing only on the selected truth edge (``"rise"`` /
        ``"fall"`` / ``"change"``); ``access`` filters hit kinds
        (``"read"`` / ``"write"`` / ``"readWrite"``; None fires on
        anything the region reports, the historical behaviour).
        """
        from repro.errors import PredicateCompileError, PredicateError

        watchpoint = self.new_watchpoint(expression, func, action,
                                         condition, callback, expr, when,
                                         access)
        # §4.2 protocol: patch known writes first, then create the region
        self.mrs.pre_monitor(watchpoint.entry.name, func)
        key = watchpoint.region_key
        region = next((other.region for other in self.watchpoints
                       if other.region.key() == key), None)
        if region is None:
            # a watch placed while stopped mid-run must re-insert checks
            # in loops whose pre-headers already executed this entry
            region = self.mrs.create_region(*key,
                                            mid_run=self._started)
            mem = self.cpu.mem
            for word in region.words():
                self.shadow[word] = mem.read_word(word)
        watchpoint.region = region
        self.watchpoints.append(watchpoint)
        try:
            self.engine.seed(watchpoint)
        except (PredicateError, PredicateCompileError):
            # the predicate faults on *current* memory: roll the arm
            # back so nothing half-armed remains
            self.unwatch(watchpoint)
            raise
        if self._recorder is not None:
            self._recorder.on_monitor_change()
        return watchpoint

    def new_watchpoint(self, expression: str, func: Optional[str] = None,
                       action: str = "log",
                       condition: Optional[Callable[[int], bool]] = None,
                       callback: Optional[Callable] = None,
                       expr: Optional[str] = None,
                       when: Optional[str] = None,
                       access: Optional[str] = None) -> Watchpoint:
        """The part of :meth:`watch` that touches neither the MRS nor
        the engine: validate, resolve, compile the predicate, construct
        the :class:`Watchpoint` (its ``region`` still None) and take the
        pruner's verdict.  A hibernation thaw builds its watchpoints
        here and hands them to :meth:`restore`."""
        from repro.watchpoints.engine import ACCESS_KINDS, EDGES
        from repro.watchpoints.predicate import compile_predicate

        if when is not None and when not in EDGES:
            raise DebuggerError(
                "unknown transition edge %r (have: %s)"
                % (when, ", ".join(EDGES)))
        if when is not None and expr is None:
            raise DebuggerError(
                "a transition watchpoint needs a predicate (expr=)")
        if access is not None and access not in ACCESS_KINDS:
            raise DebuggerError(
                "unknown access kind %r (have: %s)"
                % (access, ", ".join(ACCESS_KINDS)))
        entry, addr, size = self.resolve(expression, func)
        predicate = None
        if expr is not None:
            # compile (and thereby validate) before touching the MRS:
            # a bad predicate must fail at arm time with nothing armed
            predicate = compile_predicate(expr, symtab=self.symtab,
                                          func=func)
        watchpoint = Watchpoint(self, expression, entry, addr, size,
                                action, condition, callback, func,
                                predicate=predicate, when=when,
                                access=access)
        if predicate is not None and predicate.const is None:
            # dependency pruning: when the ipa pass left a may-write
            # fact for every site and none aliases the predicate's
            # read footprint, its truth is invariant — the engine
            # caches it at seed time
            from repro.analysis.prune import predicate_invariant
            inst = self.session.inst
            watchpoint.invariant = predicate_invariant(
                predicate, inst.plan, self.symtab,
                sites=[s.site for s in inst.sites])
        return watchpoint

    def unwatch(self, watchpoint: Watchpoint) -> None:
        if watchpoint not in self.watchpoints:
            return
        region = watchpoint.region
        if not any(other is not watchpoint and other.region == region
                   for other in self.watchpoints):
            self.mrs.delete_region(region)
            for word in region.words():
                self.shadow.pop(word, None)
        self.watchpoints.remove(watchpoint)
        self.mrs.post_monitor(watchpoint.entry.name, watchpoint.func)
        if self._recorder is not None:
            self._recorder.on_monitor_change()

    def _on_hit(self, addr: int, size: int, is_read: bool) -> None:
        """The session's one MRS hook.  The engine's ``$old`` and the
        recording's ``WriteRecord.old`` both read :attr:`shadow`; then
        a write's words take their new values."""
        self.engine.on_hit(addr, size, is_read)
        mem = self.cpu.mem
        word = addr & ~3
        if self._recorder is not None:
            new = mem.read_word(word)
            self._recorder.on_hit(addr, size, is_read,
                                  self.shadow.get(word, new), new)
        if not is_read:
            shadow = self.shadow
            for written in range(word, (addr + size + 3) & ~3, 4):
                if written in shadow:
                    shadow[written] = mem.read_word(written)

    def _fire(self, watchpoint: Watchpoint, addr: int, size: int,
              value: int) -> None:
        """Dispatch one firing hit's action (the engine decided it)."""
        watchpoint.hits.append((addr, size, value,
                                self.cpu.instructions))
        if watchpoint.action == "print":
            self.log.append("%s = %d" % (watchpoint.name, value))
        elif watchpoint.action == "stop":
            self.stop_reason = "watch"
            self.stopped_watch = watchpoint
            self.cpu.stop()
            self.cpu.exit_code = None
        elif watchpoint.action == "call" and watchpoint.callback:
            watchpoint.callback(watchpoint, addr, size, value)

    # -- control breakpoints ---------------------------------------------------------

    def break_at(self, func_name: str,
                 callback: Optional[Callable] = None) -> Breakpoint:
        """Stop when *func_name* is entered (after its prologue save)."""
        program = self.session.program
        func = program.function_named(func_name)
        # patch the instruction after the save so %fp is established
        addr = func.address + 4
        original = self.cpu.code.at(addr)
        if original is None or isinstance(
                original, (I.BranchInsn, I.CallInsn, I.JmplInsn)):
            raise DebuggerError("cannot place breakpoint in %s"
                                % func_name)
        trap = I.TrapInsn(TRAP_BREAKPOINT)
        trap.tag = "patch"
        back = I.BranchInsn("a", addr + 4, annul=True)
        back.tag = "patch"
        block_addr = self.cpu.code.append_block([trap, original, back])
        jump = I.BranchInsn("a", block_addr, annul=True)
        jump.tag = "patch"
        self.cpu.code.patch(addr, jump)
        breakpoint = Breakpoint(func_name, addr, block_addr, original,
                                callback)
        self.breakpoints[block_addr] = breakpoint
        if self._recorder is not None:
            self._recorder.on_monitor_change()
        return breakpoint

    def clear_breakpoint(self, breakpoint: Breakpoint) -> None:
        self.cpu.code.patch(breakpoint.addr, breakpoint.original)
        self.breakpoints.pop(breakpoint.block_addr, None)
        if self._recorder is not None:
            self._recorder.on_monitor_change()

    def _on_breakpoint(self, cpu) -> None:
        breakpoint = self.breakpoints.get(cpu.pc)
        if breakpoint is None:
            return
        breakpoint.hits += 1
        if breakpoint.callback is not None:
            breakpoint.callback(self, breakpoint)
        else:
            self.stop_reason = "breakpoint:%s" % breakpoint.func_name
            self.cpu.stop()
            self.cpu.exit_code = None

    # -- inspection ---------------------------------------------------------------

    def evaluate(self, expression: str, func: Optional[str] = None):
        """Read the current value of a watchable expression.

        Returns ``(entry, address, value)``; *value* is an int for
        word-sized storage and a list of up to 16 leading words for
        larger storage (arrays, structs).
        """
        entry, addr, size = self.resolve(expression, func)
        if size == 4:
            return entry, addr, to_signed(self.cpu.mem.read_word(addr))
        words = [to_signed(self.cpu.mem.read_word(addr + offset))
                 for offset in range(0, min(size, 64), 4)]
        return entry, addr, words

    def disassemble(self, func_name: str) -> str:
        """Disassemble *func_name* as currently patched, marking the pc.

        Shows inserted checks (tagged), write-site ids, and any active
        Kessler patches — what the MRS actually did to the code.
        """
        from repro.machine.disasm import disassemble_function

        return disassemble_function(self.session.program, self.cpu.code,
                                    func_name, mark=self.cpu.pc)

    # -- checkpoint / replay (§5) -------------------------------------------------

    def checkpoint(self):
        """Snapshot the debuggee for replayed execution (§5).

        Returns ``(machine Checkpoint, (watchpoint list, breakpoint
        list), state)``.  The breakpoint list pairs each control
        breakpoint with its hit count: its code patch rewinds with the
        machine, so the table must too.  *state* holds per watchpoint,
        in list order, its hits and engine state, plus the log and
        started flag, and the old-value :attr:`shadow` as [word, value]
        pairs — plain data that :meth:`restore` takes back after a JSON
        round trip (hibernation writes it into the frozen header).

        Watchpoints may be added or removed between :meth:`restore` and
        the next :meth:`run` — the classic replay loop narrows in on a
        corruption across repeated re-executions.
        """
        from repro.machine.checkpoint import Checkpoint

        snapshot = Checkpoint(self.cpu, output=self.session.output,
                              mrs=self.mrs)
        state = {
            "watchpoints": [{
                "hits": list(w.hits),
                "enabled": w.enabled,
                "truth": w.truth,
                "stats": w.stats.as_tuple(),
                "cachedTruth": w.cached_truth,
                "disarm": None if w.disarm_error is None else
                (w.disarm_error.args[0], w.disarm_error.reason),
            } for w in self.watchpoints],
            "shadow": list(self.shadow.items()),
            "log": list(self.log),
            "started": self._started,
        }
        breakpoints = [(breakpoint, breakpoint.hits)
                       for breakpoint in self.breakpoints.values()]
        return (snapshot, (list(self.watchpoints), breakpoints), state)

    def restore(self, checkpoint, discard_recording: bool = True) -> None:
        """Rewind the debuggee to a :meth:`checkpoint` — including the
        watchpoint set and the control breakpoints as they stood then.

        An *external* restore moves the debuggee to a point the active
        recording knows nothing about, so the recording is discarded
        (the replay engine's own keyframe restores pass
        ``discard_recording=False``).
        """
        from repro.errors import PredicateError
        from repro.watchpoints.engine import WatchStats

        if discard_recording:
            self.stop_record()
        snapshot, (watchpoints, breakpoints), state = checkpoint
        snapshot.restore(self.cpu, output=self.session.output,
                         mrs=self.mrs)
        self.breakpoints = {}
        for breakpoint, hits in breakpoints:
            breakpoint.hits = hits
            self.breakpoints[breakpoint.block_addr] = breakpoint
        self.watchpoints = list(watchpoints)
        for watchpoint, saved in zip(self.watchpoints,
                                     state["watchpoints"]):
            watchpoint.hits = list(map(tuple, saved["hits"]))
            # engine state (transition truth, counters) rewinds with
            # the machine, so replayed execution re-fires predicates
            # exactly as the recording did
            watchpoint.enabled = saved["enabled"]
            watchpoint.truth = saved["truth"]
            watchpoint.stats = WatchStats.from_tuple(saved["stats"])
            watchpoint.cached_truth = saved["cachedTruth"]
            disarm = saved["disarm"]
            watchpoint.disarm_error = None if disarm is None else \
                PredicateError(disarm[0], reason=disarm[1])
        self.shadow = dict(state["shadow"])
        self.log = list(state["log"])
        self._started = state["started"]
        self.stop_reason = None
        self.stopped_watch = None

    # -- record / time travel (§5, the replay workload) ---------------------------

    def record(self, stride: Optional[int] = None,
               max_keyframes: Optional[int] = None,
               max_trace: Optional[int] = None):
        """Start recording for time travel; returns the
        :class:`~repro.replay.recorder.Recorder`.

        Subsequent :meth:`run`/:meth:`step` calls capture keyframes
        every *stride* instructions and log every monitor hit, enabling
        :meth:`reverse_continue`, :meth:`reverse_step` and
        :meth:`last_write`.
        """
        from repro.replay import (DEFAULT_MAX_KEYFRAMES,
                                  DEFAULT_MAX_TRACE, DEFAULT_STRIDE,
                                  Recorder, ReplayController, ReplayError)
        if self._recorder is not None:
            raise ReplayError("recording already active")
        recorder = Recorder(
            self,
            stride=stride if stride is not None else DEFAULT_STRIDE,
            max_keyframes=(max_keyframes if max_keyframes is not None
                           else DEFAULT_MAX_KEYFRAMES),
            max_trace=max_trace if max_trace is not None
            else DEFAULT_MAX_TRACE)
        recorder.start()
        self._recorder = recorder
        self._replay = ReplayController(self, recorder)
        return recorder

    @property
    def recording(self) -> bool:
        return self._recorder is not None

    @property
    def recorder(self):
        return self._recorder

    def archive_recording(self, store,
                          wall_time_s: Optional[float] = None,
                          **meta):
        """Ingest the active recording into a persistent
        :class:`~repro.store.TraceStore`; *meta* fields (workload,
        scale, seed, ...) are stamped into the trace's run-identity
        header first.  Returns the store's
        :class:`~repro.store.IngestResult`."""
        from repro.replay import ReplayError
        if self._recorder is None:
            raise ReplayError(
                "no active recording to archive; call record() first",
                reason="not_recording")
        return store.ingest_recorder(self._recorder,
                                     wall_time_s=wall_time_s, **meta)

    def stop_record(self) -> None:
        """Discard the active recording (idempotent)."""
        self._recorder = None
        self._replay = None

    def _require_replay(self):
        from repro.replay import ReplayError
        if self._replay is None:
            raise ReplayError(
                "no active recording; call record() before time travel",
                reason="not_recording")
        return self._replay

    def reverse_continue(self) -> str:
        """Run backwards to where the newest earlier firing of an armed
        watchpoint stopped the live run; returns "watch" or
        "replay-start"."""
        return self._require_replay().reverse_continue()

    def reverse_step(self, count: int = 1) -> str:
        """Step *count* instructions backwards; returns "step" or
        "replay-start" when clamped at the recording's start."""
        return self._require_replay().reverse_step(count)

    def last_write(self, expression: str, func: Optional[str] = None):
        """Most recent write to *expression*'s storage at or before the
        current point in time, as a
        :class:`~repro.replay.controller.LastWrite` (or None if never
        written while recorded)."""
        replay = self._require_replay()
        _entry, addr, size = self.resolve(expression, func)
        return replay.last_write_to(addr, size)

    # -- execution -----------------------------------------------------------------

    def run(self, max_instructions: int = 400_000_000) -> str:
        """Run or resume; returns the stop reason ("exited", "watch",
        "breakpoint:<func>").  Retires at least one instruction, and
        raises a resumable :class:`~repro.machine.cpu.SimulationLimit`
        when *max_instructions* run out with the program still live."""
        reason = self.step(max(1, max_instructions))
        if reason == "step":
            raise SimulationLimit.at(self.cpu, max_instructions)
        return reason

    def step(self, count: int = 1) -> str:
        """Execute up to *count* instructions; returns the stop reason
        ("exited", "watch", "breakpoint:<func>", or "step" when the
        count ran out with the program still live).  Under an active
        recording :meth:`Recorder.resume
        <repro.replay.recorder.Recorder.resume>` moves the debuggee, so
        keyframes are captured and verified as the recording goes."""
        if self._recorder is None:
            return self._step_raw(count)
        return self._recorder.resume(count)

    def _step_raw(self, count: int = 1) -> str:
        """Execute up to *count* instructions with no recording
        bookkeeping: the primitive under :meth:`step` and the
        recorder's chunks.  Its first call fixes the snapshot a fresh
        :meth:`DebugSession.run <repro.session.DebugSession.run>`
        rewinds to.  Once the program has exited it executes nothing."""
        self.stop_reason = None
        self.stopped_watch = None
        cpu = self.cpu
        if cpu.running or cpu.exit_code is None:
            if not self._started:
                self._started = True
                if not self.session.started:
                    # a fresh DebugSession.run() rewinds the whole
                    # debugger, watch state included, to this snapshot
                    entry = self.checkpoint()
                    self.session.mark_started(lambda: self.restore(entry))
            # run_steps() is bit-exact with *count* single steps:
            # monitor checks, breakpoints and watch traps all live in
            # trap/patch instructions, which never compile into
            # fast-path blocks
            cpu.run_steps(count)
        if not cpu.running and cpu.exit_code is not None:
            self.stop_reason = "exited"
        elif self.stop_reason is None:
            self.stop_reason = "step"
        return self.stop_reason

    @property
    def output(self) -> List[str]:
        return self.session.output
