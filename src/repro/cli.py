"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE.c`` — compile, instrument, and run a mini-C program with
  optional data breakpoints (``--watch``, conditional ``--cond``,
  transition ``--trans``), printing every hit;
* ``asm FILE.c`` — show the generated (optionally instrumented)
  assembly;
* ``table1`` / ``table2`` / ``figure3`` / ``nop`` / ``baselines`` /
  ``space`` / ``breakeven`` / ``ablations`` — regenerate one of the
  paper's tables or figures (accept ``--scale``);
* ``serve`` — host the multi-session debug server (DAP-lite wire
  protocol over TCP);
* ``connect FILE.c`` — run a mini-C program on a remote debug server
  with data breakpoints, streaming monitor hits;
* ``record FILE.c`` — run under the time-travel recorder, printing the
  write-trace (optionally saving it for determinism checks, or
  archiving it into a persistent store with ``--store``);
* ``replay FILE.c`` — record a run, then travel backwards through it
  (reverse-continue walk, last-write queries, trace verification);
* ``analyze`` — cross-run analytics over a persistent trace store
  (``hot``, ``writes``, ``regress``, ``provenance``, ``stats``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run", help="run a mini-C program under the debugger")
    parser.add_argument("file", help="mini-C source file")
    parser.add_argument("--lang", default="C", choices=["C", "F"],
                        help="write-type dialect (FORTRAN enables "
                             "BSS-VAR segment caching)")
    parser.add_argument("--strategy", default="BitmapInlineRegisters",
                        help="write-check strategy (Bitmap, BitmapInline,"
                             " BitmapInlineRegisters, Cache, CacheInline)")
    parser.add_argument("--optimize", default="full",
                        choices=["full", "sym", "ipa", "none"],
                        help="write-check elimination mode")
    parser.add_argument("--watch", action="append", default=[],
                        metavar="EXPR",
                        help="data breakpoint (repeatable): g, a[3], s.f")
    parser.add_argument("--cond", action="append", default=[], nargs=2,
                        metavar=("EXPR", "PRED"),
                        help="conditional data breakpoint (repeatable): "
                             "fires when PRED is true, e.g. "
                             "--cond g '$value > 100'")
    parser.add_argument("--trans", action="append", default=[], nargs=3,
                        metavar=("EXPR", "PRED", "EDGE"),
                        help="transition data breakpoint (repeatable): "
                             "fires when PRED crosses EDGE "
                             "(rise, fall, change), e.g. "
                             "--trans g '$value > 100' rise")
    parser.add_argument("--monitor-reads", action="store_true",
                        help="also monitor read instructions (§5)")
    parser.add_argument("--stats", action="store_true",
                        help="print cycle/instruction statistics")


def _add_debug_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "debug", help="interactive debugger session on a mini-C program")
    parser.add_argument("file")
    parser.add_argument("--lang", default="C", choices=["C", "F"])
    parser.add_argument("--strategy", default="BitmapInlineRegisters")
    parser.add_argument("--optimize", default="full",
                        choices=["full", "sym", "ipa", "none"])


def _add_asm_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "asm", help="show generated assembly for a mini-C program")
    parser.add_argument("file")
    parser.add_argument("--lang", default="C", choices=["C", "F"])
    parser.add_argument("--instrument", metavar="STRATEGY",
                        help="also insert write checks with STRATEGY")


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="host the multi-session debug server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=4711)
    parser.add_argument("--max-sessions", type=int, default=16)
    parser.add_argument("--workers", type=int, default=8,
                        help="bounded pool of concurrent executions")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="evict sessions idle this long")
    parser.add_argument("--quota", type=int, default=None,
                        metavar="INSTRUCTIONS",
                        help="per-request execution quota")
    parser.add_argument("--hibernate-dir", default=None, metavar="DIR",
                        help="freeze idle sessions to DIR and resume "
                             "them on demand (survives restarts)")
    parser.add_argument("--liveness-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="drop connections silent this long "
                             "(clients heartbeat with ping)")
    parser.add_argument("--trace-store", default=None, metavar="DB",
                        help="archive session recordings into this "
                             "persistent trace store on hibernate or "
                             "disconnect")


def _add_connect_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "connect", help="run a mini-C program on a remote debug server")
    parser.add_argument("file", help="mini-C source file")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=4711)
    parser.add_argument("--lang", default="C", choices=["C", "F"])
    parser.add_argument("--strategy", default="BitmapInlineRegisters")
    parser.add_argument("--optimize", default="full",
                        choices=["full", "sym", "ipa", "none"])
    parser.add_argument("--watch", action="append", default=[],
                        metavar="EXPR",
                        help="data breakpoint (repeatable): g, a[3], s.f")
    parser.add_argument("--condition", action="append", default=[],
                        metavar="COND",
                        help="condition for the matching --watch "
                             "(legacy '== 42' or a predicate like "
                             "'$value > limit')")
    parser.add_argument("--when", action="append", default=[],
                        metavar="EDGE",
                        help="transition edge (rise, fall, change) for "
                             "the matching --watch; requires a "
                             "--condition for that watch")


def _add_record_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "record", help="run under the time-travel recorder")
    parser.add_argument("file", nargs="?", default=None,
                        help="mini-C source file (or use --workload)")
    parser.add_argument("--workload", default=None, metavar="NAME",
                        help="record a §6 workload from the registry "
                             "instead of a file")
    parser.add_argument("--scale", type=float, default=0.3,
                        help="workload scale (with --workload)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed recorded in the trace header "
                             "(distinguishes repeat runs in the store)")
    parser.add_argument("--lang", default="C", choices=["C", "F"])
    parser.add_argument("--strategy", default="BitmapInlineRegisters")
    parser.add_argument("--optimize", default="full",
                        choices=["full", "sym", "ipa", "none"])
    parser.add_argument("--watch", action="append", default=[],
                        metavar="EXPR",
                        help="data breakpoint to record (repeatable)")
    parser.add_argument("--stride", type=int, default=None,
                        help="keyframe stride in instructions")
    parser.add_argument("-o", "--trace-out", metavar="FILE",
                        help="save the canonical write-trace bytes")
    parser.add_argument("--store", nargs="?", const="__default__",
                        default=None, metavar="DB",
                        help="archive the recording into this "
                             "persistent trace store (default "
                             "repro_store.sqlite)")
    parser.add_argument("--store-max-runs", type=int, default=None,
                        metavar="N",
                        help="retention: keep at most N runs per "
                             "workload in the store")
    parser.add_argument("--store-max-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="retention: bound the store's payload "
                             "bytes (LRU eviction)")


def _add_replay_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "replay", help="record a run, then travel backwards through it")
    parser.add_argument("file", help="mini-C source file")
    parser.add_argument("--lang", default="C", choices=["C", "F"])
    parser.add_argument("--strategy", default="BitmapInlineRegisters")
    parser.add_argument("--optimize", default="full",
                        choices=["full", "sym", "ipa", "none"])
    parser.add_argument("--watch", action="append", default=[],
                        metavar="EXPR",
                        help="data breakpoint to travel to (repeatable)")
    parser.add_argument("--stride", type=int, default=None,
                        help="keyframe stride in instructions")
    parser.add_argument("--back", type=int, default=None, metavar="N",
                        help="stop after N reverse-continues "
                             "(default: walk to the start, or stay at "
                             "the end with --last-write)")
    parser.add_argument("--last-write", action="append", default=[],
                        metavar="EXPR",
                        help="report the last write to EXPR "
                             "(repeatable; may re-execute)")
    parser.add_argument("--verify", metavar="FILE",
                        help="check the write-trace is byte-identical "
                             "to a saved one (determinism proof)")


def _add_audit_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "audit", help="trace-backed soundness audit of check "
                      "elimination (§4.2 contract)")
    parser.add_argument("file", nargs="?", default=None,
                        help="mini-C source file (or use --workload)")
    parser.add_argument("--workload", metavar="NAME",
                        help="audit a §6 workload instead of a file")
    parser.add_argument("--scale", type=float, default=0.3,
                        help="workload scale (with --workload)")
    parser.add_argument("--lang", default="C", choices=["C", "F"])
    parser.add_argument("--strategy", default="BitmapInlineRegisters")
    parser.add_argument("--mode", default="ipa",
                        choices=["full", "sym", "ipa", "none"],
                        help="optimization mode to audit")
    parser.add_argument("--monitor", action="append", default=[],
                        metavar="SYMBOL",
                        help="global to monitor during the audit "
                             "(repeatable; default: the most-written "
                             "globals)")


_EVAL_COMMANDS = {
    "table1": ("repro.eval.table1", 1.0),
    "table2": ("repro.eval.table2", 1.0),
    "figure3": ("repro.eval.figure3", 0.5),
    "nop": ("repro.eval.nop_experiment", 0.5),
    "baselines": ("repro.eval.baselines", 0.5),
    "space": ("repro.eval.space", 1.0),
    "ablations": ("repro.eval.ablations", 0.5),
    "elim": ("repro.eval.elim", 0.3),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Practical Data Breakpoints (PLDI 1993) — "
                    "reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command")
    _add_run_parser(subparsers)
    _add_debug_parser(subparsers)
    _add_asm_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_connect_parser(subparsers)
    _add_record_parser(subparsers)
    _add_replay_parser(subparsers)
    _add_audit_parser(subparsers)
    from repro.store.analyze import add_analyze_parser
    add_analyze_parser(subparsers)
    for name, (_module, default_scale) in _EVAL_COMMANDS.items():
        sub = subparsers.add_parser(
            name, help="regenerate the paper's %s" % name)
        sub.add_argument("--scale", type=float, default=default_scale)
    subparsers.add_parser("breakeven",
                          help="regenerate the §3.3.3 break-even table")
    return parser


def _command_run(args) -> int:
    from repro.debugger import Debugger
    from repro.debugger.debugger import DebuggerError
    from repro.errors import PredicateCompileError, PredicateError

    with open(args.file) as handle:
        source = handle.read()
    optimize = None if args.optimize == "none" else args.optimize
    debugger = Debugger.for_source(source, lang=args.lang,
                                   strategy=args.strategy,
                                   optimize=optimize,
                                   monitor_reads=args.monitor_reads)
    requested = ([(expr, None, None) for expr in args.watch]
                 + [(expr, pred, None) for expr, pred in args.cond]
                 + [(expr, pred, edge) for expr, pred, edge in args.trans])
    watchpoints = []
    for expr, pred, edge in requested:
        try:
            watchpoints.append(
                (expr, debugger.watch(expr, action="log", expr=pred,
                                      when=edge)))
        except (DebuggerError, PredicateCompileError,
                PredicateError) as exc:
            print("error: cannot watch %s: %s" % (expr, exc),
                  file=sys.stderr)
            return 1
    reason = debugger.run()
    sys.stdout.write("".join(
        item if item.isprintable() or item.isspace() else "?"
        for item in debugger.output))
    if debugger.output and not "".join(debugger.output).endswith("\n"):
        sys.stdout.write("\n")
    print("-- %s" % reason)
    for expr, watchpoint in watchpoints:
        label = expr
        if watchpoint.predicate is not None:
            label += " if %s" % watchpoint.predicate.source
        if watchpoint.when is not None:
            label += " (on %s)" % watchpoint.when
        detail = ""
        if watchpoint.hits:
            detail += ", last value %d" % watchpoint.last_value()
        if watchpoint.kind != "plain":
            detail += ", %d eval(s), %d suppressed" % (
                watchpoint.stats.evals, watchpoint.stats.suppressed)
        if watchpoint.disarm_error is not None:
            detail += ", DISARMED: %s" % watchpoint.disarm_error
        kind = ("watch" if watchpoint.kind == "plain"
                else watchpoint.kind)
        print("-- %s %-16s %d hit(s)%s"
              % (kind, label, watchpoint.hit_count(), detail))
        for addr, size, value, _index in watchpoint.hits:
            print("     wrote 0x%08x (%d bytes): %d" % (addr, size,
                                                        value))
    if args.stats:
        cpu = debugger.cpu
        print("-- %d instructions, %d cycles, %d stores"
              % (cpu.instructions, cpu.cycles, cpu.stores))
        for tag in sorted(cpu.tag_counts):
            print("     %-12s %9d insns %10d cycles"
                  % (tag, cpu.tag_counts[tag], cpu.tag_cycles[tag]))
    return 0


def _command_asm(args) -> int:
    from repro.minic.codegen import compile_source

    with open(args.file) as handle:
        source = handle.read()
    asm = compile_source(source, lang=args.lang)
    if args.instrument:
        from repro.instrument.rewriter import instrument_source
        inst = instrument_source(asm, args.instrument)
        from repro.asm.ast import AsmInsn, Label
        lines = []
        for stmt in inst.statements:
            if isinstance(stmt, Label):
                lines.append("%s:" % stmt.name)
            elif isinstance(stmt, AsmInsn):
                note = "   ! %s" % stmt.tag if stmt.tag != "orig" else ""
                lines.append("\t%r%s" % (stmt, note))
            else:
                lines.append("\t%r" % (stmt,))
        print("\n".join(lines))
    else:
        print(asm)
    return 0


def _record_run(args):
    """Compile, watch, record and run *args.file* to completion."""
    from repro.debugger import Debugger

    workload = getattr(args, "workload", None)
    if workload is not None:
        from repro.workloads import WORKLOADS, workload_source
        source = workload_source(workload, args.scale)
        lang = WORKLOADS[workload].lang
    elif args.file is not None:
        with open(args.file) as handle:
            source = handle.read()
        lang = args.lang
    else:
        raise SystemExit("error: record needs a FILE or --workload NAME")
    optimize = None if args.optimize == "none" else args.optimize
    debugger = Debugger.for_source(source, lang=lang,
                                   strategy=args.strategy,
                                   optimize=optimize)
    for expr in args.watch:
        debugger.watch(expr, action="log")
    recorder = debugger.record(stride=args.stride)
    reason = debugger.run()
    while reason not in ("exited",):
        reason = debugger.run()
    output = "".join(debugger.output)
    if output:
        sys.stdout.write(output)
        if not output.endswith("\n"):
            sys.stdout.write("\n")
    return debugger, recorder


def _print_trace(debugger, recorder) -> None:
    stats = recorder.stats()
    print("-- recorded %d instructions: %d write(s), %d keyframe(s) "
          "(stride %d), trace digest 0x%08x"
          % (stats["end_index"] - stats["start_index"],
             stats["trace_records"], stats["keyframes"],
             stats["stride"], recorder.trace.digest()))
    if recorder.trace.dropped:
        print("-- oldest %d record(s) evicted from the trace ring"
              % recorder.trace.dropped)
    def symbol_for(addr: int, size: int):
        for watchpoint in debugger.watchpoints:
            region = watchpoint.region
            if addr < region.end and region.start < addr + size:
                return watchpoint.name
        return None

    for record in recorder.trace:
        symbol = symbol_for(record.addr, record.size)
        print("   [%6d] pc=0x%08x %-5s 0x%08x (%d bytes)  %d -> %d%s"
              % (record.index, record.pc,
                 "read" if record.is_read else "wrote",
                 record.addr, record.size, record.old, record.new,
                 "  [%s]" % symbol if symbol else ""))


def _command_record(args) -> int:
    debugger, recorder = _record_run(args)
    _print_trace(debugger, recorder)
    if args.trace_out:
        data = recorder.trace.to_bytes()
        with open(args.trace_out, "wb") as handle:
            handle.write(data)
        print("-- trace saved to %s (%d bytes)"
              % (args.trace_out, len(data)))
    if args.store is not None:
        from repro.store import (DEFAULT_STORE_PATH, RetentionPolicy,
                                 TraceStore)
        path = (DEFAULT_STORE_PATH if args.store == "__default__"
                else args.store)
        retention = None
        if (args.store_max_runs is not None
                or args.store_max_bytes is not None):
            retention = RetentionPolicy(
                max_runs_per_workload=args.store_max_runs,
                max_bytes=args.store_max_bytes)
        workload = args.workload
        if workload is None:
            import os
            workload = os.path.basename(args.file)
        with TraceStore(path, retention=retention) as store:
            result = store.ingest_recorder(
                recorder, workload=workload,
                scale=args.scale if args.workload else None,
                seed=args.seed)
        print("-- archived to %s as run %d (%s, %d new / %d shared "
              "keyframe(s))"
              % (path, result.run_id,
                 "duplicate" if result.duplicate else "new",
                 result.keyframes_new, result.keyframes_shared))
    return 0


def _command_replay(args) -> int:
    from repro.errors import ReplayError

    debugger, recorder = _record_run(args)
    _print_trace(debugger, recorder)
    if args.verify:
        with open(args.verify, "rb") as handle:
            saved = handle.read()
        if saved == recorder.trace.to_bytes():
            print("-- trace verified: byte-identical to %s"
                  % args.verify)
        else:
            print("-- trace DIVERGED from %s" % args.verify)
            return 1
    remaining = args.back
    if remaining is None:
        # a last-write question is asked of the present, not the start
        remaining = 0 if args.last_write else -1
    while remaining != 0:
        reason = debugger.reverse_continue()
        if reason != "watch":
            print("-- at the start of the recording (instruction %d)"
                  % debugger.cpu.instructions)
            break
        watchpoint = debugger.stopped_watch
        print("-- reverse-continue: %s = %s (instruction %d)"
              % (watchpoint.name, watchpoint.last_value(),
                 debugger.cpu.instructions))
        remaining -= 1
    for expr in args.last_write:
        try:
            answer = debugger.last_write(expr)
        except ReplayError as exc:
            print("-- last-write %s: error: %s" % (expr, exc))
            continue
        if answer is None:
            print("-- last-write %s: never written while recorded"
                  % expr)
        else:
            print("-- last-write %s: pc=0x%08x instruction %d: "
                  "%d -> %d  [%s]"
                  % (expr, answer.pc, answer.index, answer.old,
                     answer.new, answer.source))
    return 0


def _command_audit(args) -> int:
    from repro.analysis.audit import audit_source, audit_workload
    from repro.errors import AuditError, UnsoundEliminationError

    mode = None if args.mode == "none" else args.mode
    monitors = [(name, None) for name in args.monitor] or None
    try:
        if args.workload:
            report = audit_workload(args.workload, mode=mode,
                                    scale=args.scale, monitors=monitors,
                                    strategy=args.strategy)
        elif args.file:
            with open(args.file) as handle:
                source = handle.read()
            report = audit_source(source, lang=args.lang, mode=mode,
                                  monitors=monitors,
                                  strategy=args.strategy)
        else:
            print("error: audit needs a FILE or --workload NAME",
                  file=sys.stderr)
            return 2
    except UnsoundEliminationError as exc:
        print("UNSOUND: %s" % exc, file=sys.stderr)
        print("  site:       %s" % exc.site, file=sys.stderr)
        print("  pass:       %s" % exc.elim_pass, file=sys.stderr)
        print("  provenance: %s" % exc.provenance, file=sys.stderr)
        return 1
    except AuditError as exc:
        print("audit failed: %s" % exc, file=sys.stderr)
        return 1
    print(report.render())
    return 0


def _command_serve(args) -> int:
    from repro.server import DebugServer, ServerConfig
    from repro.server.handlers import DEFAULT_QUOTA

    config = ServerConfig(max_sessions=args.max_sessions,
                          idle_timeout=args.idle_timeout,
                          workers=args.workers,
                          quota_instructions=args.quota
                          if args.quota is not None else DEFAULT_QUOTA,
                          hibernate_dir=args.hibernate_dir,
                          liveness_timeout=args.liveness_timeout,
                          trace_store=args.trace_store)
    server = DebugServer(host=args.host, port=args.port, config=config)
    print("repro debug server listening on %s:%d "
          "(max %d sessions, %d workers, quota %d insns/request)"
          % (server.address[0], server.address[1], config.max_sessions,
             config.workers, config.quota_instructions), flush=True)
    if config.hibernate_dir is not None:
        print("hibernation: %s (%d frozen session%s adopted)"
              % (config.hibernate_dir, len(server.adopted),
                 "" if len(server.adopted) == 1 else "s"), flush=True)
    if config.trace_store is not None:
        print("trace store: %s (recordings archived on hibernate or "
              "disconnect)" % config.trace_store, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...")
    finally:
        server.close()
    return 0


def _command_connect(args) -> int:
    from repro.server.client import DebugClient, RemoteError

    with open(args.file) as handle:
        source = handle.read()
    conditions = dict(zip(args.watch, args.condition))
    edges = dict(zip(args.watch, args.when))
    try:
        with DebugClient(host=args.host, port=args.port) as client:
            negotiated = client.initialize()
            print("-- connected, protocol v%d"
                  % negotiated["protocolVersion"])
            session_id = client.launch(source, lang=args.lang,
                                       strategy=args.strategy,
                                       optimize=args.optimize)
            specs = []
            for expr in args.watch:
                info = client.data_breakpoint_info(session_id, expr)
                if info.get("dataId") is None:
                    print("-- cannot watch %s: %s"
                          % (expr, info.get("description")))
                    continue
                spec = {"dataId": info["dataId"], "stop": False}
                if expr in conditions:
                    spec["condition"] = conditions[expr]
                if edges.get(expr):
                    spec["when"] = edges[expr]
                specs.append(spec)
            if specs:
                for result in client.set_data_breakpoints(session_id,
                                                          specs):
                    print("-- breakpoint %s verified=%s"
                          % (result.get("dataId"), result["verified"]))
            stop = client.cont(session_id)
            while not stop.get("exited") and stop["reason"] == "quota":
                stop = client.cont(session_id)
            for body in client.pop_events("output"):
                sys.stdout.write(body["output"])
                if not body["output"].endswith("\n"):
                    sys.stdout.write("\n")
            print("-- %s" % stop["reason"])
            for hit in client.pop_events("monitorHit"):
                print("     wrote 0x%08x (%d bytes): %s  [%s]"
                      % (hit["address"], hit["size"],
                         hit.get("value", "?"),
                         hit.get("symbol", "?")))
            client.disconnect(session_id)
    except (RemoteError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    from repro.errors import ReproError
    try:
        return _dispatch(args)
    except ReproError as exc:
        # every structured repro failure (bad --optimize mode, MRS
        # rollback, audit divergence, ...) exits non-zero with its
        # class name and context instead of a traceback
        print("error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "run":
        return _command_run(args)
    if args.command == "debug":
        from repro.debugger.repl import run_repl
        with open(args.file) as handle:
            source = handle.read()
        optimize = None if args.optimize == "none" else args.optimize
        run_repl(source, lang=args.lang, strategy=args.strategy,
                 optimize=optimize)
        return 0
    if args.command == "asm":
        return _command_asm(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "connect":
        return _command_connect(args)
    if args.command == "record":
        return _command_record(args)
    if args.command == "replay":
        return _command_replay(args)
    if args.command == "audit":
        return _command_audit(args)
    if args.command == "analyze":
        from repro.store.analyze import run_analyze
        return run_analyze(args)
    if args.command == "breakeven":
        from repro.eval.breakeven import main as breakeven_main
        breakeven_main()
        return 0
    module_name, _default = _EVAL_COMMANDS[args.command]
    import importlib
    module = importlib.import_module(module_name)
    module.main(args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
