"""Interactive command-line debugger: ``python -m repro debug FILE.c``.

A small gdb-flavoured command loop over :class:`repro.debugger.Debugger`
so data breakpoints can be explored by hand:

.. code-block:: text

    (pdb93) watch balance          # data breakpoint, stop on write
    (pdb93) trace table[3]         # data breakpoint, log only
    (pdb93) cond balance "$value < 0"          # conditional stop
    (pdb93) trans balance "$value > 100" rise  # transition stop
    (pdb93) break main             # control breakpoint
    (pdb93) run                    # run / continue
    (pdb93) print balance          # read a variable
    (pdb93) info                   # watchpoints, hits, stats
    (pdb93) disasm bump            # patched code, checks tagged
    (pdb93) checkpoint             # snapshot for replay
    (pdb93) restore                # rewind to the snapshot
    (pdb93) record                 # start time-travel recording
    (pdb93) rc                     # reverse-continue to the last firing
    (pdb93) rs 10                  # step 10 instructions backwards
    (pdb93) lastwrite balance      # who wrote this last?
    (pdb93) quit
"""

from __future__ import annotations

import shlex
from typing import Callable, Dict, List, Optional

from repro.debugger.debugger import Debugger, DebuggerError
from repro.errors import (PredicateCompileError, PredicateError,
                          ReplayError)


class DebuggerRepl:
    """One interactive session; commands are line strings."""

    PROMPT = "(pdb93) "

    def __init__(self, debugger: Debugger,
                 write: Optional[Callable[[str], None]] = None):
        self.debugger = debugger
        self._write = write if write is not None else _stdout_write
        self._checkpoint = None
        self._finished = False
        self._commands: Dict[str, Callable[[List[str]], None]] = {
            "watch": self._cmd_watch,
            "trace": self._cmd_trace,
            "cond": self._cmd_cond,
            "trans": self._cmd_trans,
            "unwatch": self._cmd_unwatch,
            "break": self._cmd_break,
            "run": self._cmd_run,
            "continue": self._cmd_run,
            "c": self._cmd_run,
            "step": self._cmd_step,
            "s": self._cmd_step,
            "print": self._cmd_print,
            "p": self._cmd_print,
            "info": self._cmd_info,
            "disasm": self._cmd_disasm,
            "checkpoint": self._cmd_checkpoint,
            "restore": self._cmd_restore,
            "record": self._cmd_record,
            "rc": self._cmd_reverse_continue,
            "reverse-continue": self._cmd_reverse_continue,
            "rs": self._cmd_reverse_step,
            "reverse-step": self._cmd_reverse_step,
            "lastwrite": self._cmd_last_write,
            "help": self._cmd_help,
        }

    # -- driver -----------------------------------------------------------

    def execute(self, line: str) -> bool:
        """Run one command; returns False when the session should end."""
        parts = shlex.split(line)
        if not parts:
            return True
        name, args = parts[0], parts[1:]
        if name in ("quit", "q", "exit"):
            return False
        handler = self._commands.get(name)
        if handler is None:
            self._write("unknown command %r (try: help)" % name)
            return True
        try:
            handler(args)
        except (DebuggerError, ReplayError, PredicateCompileError,
                PredicateError) as exc:
            self._write("error: %s" % exc)
        return True

    def loop(self, input_fn: Callable[[str], str]) -> None:
        while True:
            try:
                line = input_fn(self.PROMPT)
            except EOFError:
                break
            if not self.execute(line):
                break

    # -- commands -----------------------------------------------------------

    def _cmd_watch(self, args: List[str]) -> None:
        self._add_watch(args, action="stop")

    def _cmd_trace(self, args: List[str]) -> None:
        self._add_watch(args, action="log")

    def _cmd_cond(self, args: List[str]) -> None:
        """``cond EXPR PREDICATE [func]`` — conditional data
        breakpoint: stop only when the predicate (over ``$value``,
        ``$old``, ``$addr``, ``$size`` and globals) holds."""
        if len(args) < 2:
            self._write('usage: cond EXPR "PREDICATE" [func]')
            return
        func = args[2] if len(args) > 2 else None
        self._add_watch([args[0]] + ([func] if func else []),
                        action="stop", expr=args[1])

    def _cmd_trans(self, args: List[str]) -> None:
        """``trans EXPR PREDICATE [edge] [func]`` — transition data
        breakpoint: stop when the predicate's truth value changes on
        the selected edge (rise / fall / change; default change)."""
        from repro.watchpoints import EDGES
        if len(args) < 2:
            self._write('usage: trans EXPR "PREDICATE" '
                        '[rise|fall|change] [func]')
            return
        when = "change"
        rest = args[2:]
        if rest and rest[0] in EDGES:
            when, rest = rest[0], rest[1:]
        func = rest[0] if rest else None
        self._add_watch([args[0]] + ([func] if func else []),
                        action="stop", expr=args[1], when=when)

    def _add_watch(self, args: List[str], action: str,
                   expr: Optional[str] = None,
                   when: Optional[str] = None) -> None:
        if not args:
            self._write("usage: watch EXPR [func]")
            return
        func = args[1] if len(args) > 1 else None
        watchpoint = self.debugger.watch(args[0], func=func,
                                         action=action, expr=expr,
                                         when=when)
        label = "watchpoint" if action == "stop" else "trace"
        if watchpoint.kind != "plain":
            label = "%s %s" % (watchpoint.kind, label)
        detail = ""
        if expr is not None:
            detail = " if %s" % expr
            if when is not None:
                detail += " (on %s)" % when
        self._write("%s #%d on %s%s (region 0x%08x..0x%08x)"
                    % (label,
                       self.debugger.watchpoints.index(watchpoint),
                       args[0], detail, watchpoint.region.start,
                       watchpoint.region.end))

    def _cmd_unwatch(self, args: List[str]) -> None:
        if not args:
            self._write("usage: unwatch NUMBER")
            return
        index = int(args[0])
        if not 0 <= index < len(self.debugger.watchpoints):
            self._write("no watchpoint #%d" % index)
            return
        self.debugger.watchpoints[index].delete()
        self._write("deleted watchpoint #%d" % index)

    def _cmd_break(self, args: List[str]) -> None:
        if not args:
            self._write("usage: break FUNCTION")
            return
        breakpoint = self.debugger.break_at(args[0])
        self._write("breakpoint at %s (0x%08x)"
                    % (args[0], breakpoint.addr))

    def _cmd_run(self, args: List[str]) -> None:
        if self._finished:
            self._write("program has exited (use restore to replay)")
            return
        reason = self.debugger.run()
        output = "".join(self.debugger.output)
        if output:
            self._write("program output so far: %s" % output.strip())
        if reason == "exited":
            self._finished = True
            self._write("program exited")
        elif reason == "watch":
            watchpoint = self.debugger.stopped_watch
            self._write("stopped: %s = %s"
                        % (watchpoint.name, watchpoint.last_value()))
        else:
            self._write("stopped: %s" % reason)

    def _cmd_step(self, args: List[str]) -> None:
        """Execute N instructions (default 1), then show the pc."""
        if self._finished:
            self._write("program has exited (use restore to replay)")
            return
        count = int(args[0]) if args else 1
        reason = self.debugger.step(count)
        if reason == "exited":
            self._finished = True
            self._write("program exited")
            return
        cpu = self.debugger.cpu
        insn = cpu.code.at(cpu.pc)
        self._write("pc=0x%08x: %s" % (cpu.pc, insn))

    def _cmd_print(self, args: List[str]) -> None:
        if not args:
            self._write("usage: print EXPR [func]")
            return
        func = args[1] if len(args) > 1 else None
        entry, _addr, value = self.debugger.evaluate(args[0], func)
        if isinstance(value, list):
            suffix = " ..." if entry.size > 64 else ""
            self._write("%s = {%s}%s"
                        % (args[0], ", ".join(map(str, value)), suffix))
        else:
            self._write("%s = %d" % (args[0], value))

    def _cmd_info(self, args: List[str]) -> None:
        debugger = self.debugger
        if not debugger.watchpoints and not debugger.breakpoints:
            self._write("no watchpoints or breakpoints")
        for index, watchpoint in enumerate(debugger.watchpoints):
            stats = watchpoint.stats
            detail = ""
            if watchpoint.predicate is not None:
                detail = " if %s" % watchpoint.predicate.source
                if watchpoint.when is not None:
                    detail += " (on %s)" % watchpoint.when
                detail += " [%d eval, %d suppressed]" % (
                    stats.evals, stats.suppressed)
            if not watchpoint.enabled:
                detail += (" DISARMED: %s" % watchpoint.disarm_error
                           if watchpoint.disarm_error is not None
                           else " disabled")
            self._write("#%d %-6s %-16s %d hit(s)%s"
                        % (index, watchpoint.action, watchpoint.name,
                           watchpoint.hit_count(), detail))
        for breakpoint in debugger.breakpoints.values():
            self._write("break %-16s %d hit(s)"
                        % (breakpoint.func_name, breakpoint.hits))
        cpu = debugger.cpu
        self._write("pc=0x%08x  %d instructions, %d cycles"
                    % (cpu.pc, cpu.instructions, cpu.cycles))

    def _cmd_disasm(self, args: List[str]) -> None:
        if not args:
            self._write("usage: disasm FUNCTION")
            return
        try:
            self._write(self.debugger.disassemble(args[0]))
        except KeyError:
            self._write("no function %r" % args[0])

    def _cmd_checkpoint(self, args: List[str]) -> None:
        self._checkpoint = self.debugger.checkpoint()
        self._write("checkpoint taken at pc=0x%08x"
                    % self.debugger.cpu.pc)

    def _cmd_restore(self, args: List[str]) -> None:
        if self._checkpoint is None:
            self._write("no checkpoint (use: checkpoint)")
            return
        self.debugger.restore(self._checkpoint)
        self._finished = False
        self._write("restored to pc=0x%08x" % self.debugger.cpu.pc)

    def _cmd_record(self, args: List[str]) -> None:
        if self.debugger.recording:
            self._write("already recording")
            return
        stride = int(args[0]) if args else None
        recorder = self.debugger.record(stride=stride)
        self._write("recording (keyframe stride %d instructions)"
                    % recorder.stride)

    def _cmd_reverse_continue(self, args: List[str]) -> None:
        reason = self.debugger.reverse_continue()
        self._finished = False
        if reason == "watch":
            watchpoint = self.debugger.stopped_watch
            self._write("stopped backwards: %s = %s (instruction %d)"
                        % (watchpoint.name, watchpoint.last_value(),
                           self.debugger.cpu.instructions))
        else:
            self._write("at the start of the recording")

    def _cmd_reverse_step(self, args: List[str]) -> None:
        count = int(args[0]) if args else 1
        reason = self.debugger.reverse_step(count)
        self._finished = False
        cpu = self.debugger.cpu
        if reason == "replay-start":
            self._write("at the start of the recording")
            return
        insn = cpu.code.at(cpu.pc)
        self._write("pc=0x%08x: %s" % (cpu.pc, insn))

    def _cmd_last_write(self, args: List[str]) -> None:
        if not args:
            self._write("usage: lastwrite EXPR [func]")
            return
        func = args[1] if len(args) > 1 else None
        answer = self.debugger.last_write(args[0], func)
        if answer is None:
            self._write("%s was never written while recorded" % args[0])
            return
        from repro.isa.instructions import to_signed
        self._write("%s last written at pc=0x%08x (instruction %d): "
                    "%d -> %d" % (args[0], answer.pc, answer.index,
                                  to_signed(answer.old),
                                  to_signed(answer.new)))

    def _cmd_help(self, args: List[str]) -> None:
        self._write("commands: watch trace cond trans unwatch break "
                    "run/continue step print info disasm checkpoint "
                    "restore record rc rs lastwrite quit")
        self._write('  cond EXPR "PRED" [func]: stop when PRED holds '
                    '($value, $old, $addr, $size, globals)')
        self._write('  trans EXPR "PRED" [rise|fall|change] [func]: '
                    "stop when PRED's truth changes")


def _stdout_write(text: str) -> None:
    print(text)


def run_repl(source: str, lang: str = "C",
             strategy: str = "BitmapInlineRegisters",
             optimize: Optional[str] = "full") -> None:
    """Start an interactive session on mini-C *source*."""
    debugger = Debugger.for_source(source, lang=lang, strategy=strategy,
                                   optimize=optimize)
    repl = DebuggerRepl(debugger)
    print("Practical Data Breakpoints — interactive debugger "
          "(type 'help')")
    repl.loop(input)
