"""Spans around the calls into each layer of ``repro``, for the traced run.

The benchmark measures layers from outside: :func:`install` replaces
each layer's public entry point with a wrapper that records a span, in
every module that binds the name.  ``from ... import`` copies a
function into the importing module, so a wrapper must be installed
where callers look the name up (``repro.session.compile_source``,
``repro.debugger.debugger.build_plan``, ...).  ``BlockCache.lookup``
reads ``repro.machine.blocks.compile_block`` as a module global, so one
wrapper there catches every block compile.

Spans stay in memory, each with a parent and a per-operation id (the id
of the outermost span on its thread), and are summarised when the run
ends.  A span's self time is its duration minus the time its child
spans cover.  :func:`install` returns a function that puts the
originals back, so the benchmark's own correctness checks, which run
after a pass, are not counted as layer time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List

#: span name -> [(module, attribute), ...] binding that function
FUNCTIONS = [
    ("minic.compile", "repro.minic.codegen", "compile_source",
     ["repro.session", "repro.eval.overhead", "repro.debugger.debugger"]),
    ("optimizer.plan", "repro.optimizer.pipeline", "build_plan",
     ["repro.debugger.debugger"]),
    ("instrument.rewrite", "repro.instrument.rewriter", "instrument_source",
     ["repro.session"]),
    ("asm.assemble", "repro.asm.assembler", "assemble",
     ["repro.instrument.rewriter", "repro.session"]),
    ("asm.load", "repro.asm.loader", "load_program", ["repro.session"]),
    ("machine.blocks.compile", "repro.machine.blocks", "compile_block", []),
]

#: span name -> (module, class, method)
METHODS = [
    ("machine.checkpoint.capture", "repro.machine.checkpoint", "Checkpoint",
     "__init__"),
    ("machine.checkpoint.restore", "repro.machine.checkpoint", "Checkpoint",
     "restore"),
    ("core.region_ops", "repro.core.service", "MonitoredRegionService",
     "create_region"),
    ("core.region_ops", "repro.core.service", "MonitoredRegionService",
     "delete_region"),
    ("replay.reverse_continue", "repro.replay.controller",
     "ReplayController", "reverse_continue"),
    ("store.export", "repro.replay.recorder", "Recorder", "export"),
    ("store.ingest", "repro.store.store", "TraceStore", "ingest"),
    ("store.query.hot", "repro.store.store", "TraceStore", "hot"),
    ("store.query.writes", "repro.store.store", "TraceStore", "write_stats"),
    ("store.query.provenance", "repro.store.store", "TraceStore",
     "provenance"),
    ("client.request", "repro.server.client", "DebugClient", "request"),
]


class Tracer:
    """In-memory span recorder (thread-safe: one span stack per thread).

    *compile_delay* seconds are slept inside every block compile span;
    the self-test uses it to slow the block compiler."""

    def __init__(self, compile_delay: float = 0.0):
        self.compile_delay = compile_delay
        #: (span id, operation id, parent id, name, start, end)
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = collections.Counter()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        op = parent[1] if parent is not None else next(self._ops)
        stack.append((span_id, op, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, op,
                               parent[0] if parent is not None else None,
                               name, start, end))

    def inside(self, name: str) -> bool:
        return any(entry[2] == name for entry in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def summary(self) -> Dict[str, Any]:
        """Per span name: total and self seconds and calls; counters."""
        covered: Dict[int, float] = collections.defaultdict(float)
        for _sid, _op, parent, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers: Dict[str, Dict[str, float]] = {}
        for sid, _op, _parent, name, start, end in self.spans:
            entry = layers.setdefault(name, {"total": 0.0, "self": 0.0,
                                             "calls": 0})
            entry["total"] += end - start
            entry["self"] += end - start - covered.get(sid, 0.0)
            entry["calls"] += 1
        return {"layers": layers, "counters": dict(self.counters),
                "spans": len(self.spans)}


def merge(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the summaries of several processes."""
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = collections.Counter()
    for summary in summaries:
        for name, entry in summary["layers"].items():
            into = layers.setdefault(name, {"total": 0.0, "self": 0.0,
                                            "calls": 0})
            for key in into:
                into[key] += entry[key]
        counters.update(summary["counters"])
    return {"layers": layers, "counters": dict(counters)}


def _import_layers():
    import importlib

    # repro.session first: importing repro.instrument.rewriter or
    # repro.core before it raises a circular ImportError
    import repro.session  # noqa: F401
    import repro.debugger.debugger  # noqa: F401
    modules = {name for _span, name, _attr, users in FUNCTIONS
               for name in [name] + users}
    modules.update(name for _span, name, _cls, _meth in METHODS)
    modules.update(["repro.machine.cpu", "repro.watchpoints.engine",
                    "repro.server.handlers"])
    return {name: importlib.import_module(name) for name in modules}


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point of ``repro`` in this process;
    returns a function that puts the originals back."""
    modules = _import_layers()
    saved = []

    def replace(owner, attr: str, wrapper: Callable) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for span, home, attr, users in FUNCTIONS:
        original = getattr(modules[home], attr)
        make = _SPECIAL.get(span)
        wrapper = make(tracer, original) if make is not None else \
            _spanned(tracer, span, original)
        for name in [home] + users:
            replace(modules[name], attr, wrapper)
    for span, home, cls_name, meth in METHODS:
        cls = getattr(modules[home], cls_name)
        replace(cls, meth, _spanned(tracer, span, getattr(cls, meth)))

    cpu_cls = modules["repro.machine.cpu"].CPU
    replace(cpu_cls, "run", _run_wrapper(tracer, cpu_cls.run))
    replace(cpu_cls, "run_steps", _run_wrapper(tracer, cpu_cls.run_steps))

    engine_cls = modules["repro.watchpoints.engine"].WatchpointEngine
    replace(engine_cls, "on_hit", _hit_wrapper(tracer, engine_cls.on_hit))

    router_cls = modules["repro.server.handlers"].RequestRouter
    dispatch = router_cls.dispatch

    @functools.wraps(dispatch)
    def traced_dispatch(self, request, emit, seq):
        with tracer.span("server.dispatch." + str(request.command)):
            return dispatch(self, request, emit, seq)
    replace(router_cls, "dispatch", traced_dispatch)

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return uninstall


def _compile_wrapper(tracer: Tracer, compile_block: Callable) -> Callable:
    @functools.wraps(compile_block)
    def traced(*args, **kwargs):
        with tracer.span("machine.blocks.compile"):
            if tracer.compile_delay:
                time.sleep(tracer.compile_delay)
            return compile_block(*args, **kwargs)
    return traced


def _plan_wrapper(tracer: Tracer, build_plan: Callable) -> Callable:
    @functools.wraps(build_plan)
    def traced(*args, **kwargs):
        with tracer.span("optimizer.plan"):
            statements, plan = build_plan(*args, **kwargs)
        for name, stats in plan.pass_stats.items():
            tracer.count("optimizer.seen." + name, stats.seen)
            tracer.count("optimizer.eliminated." + name, stats.eliminated)
        return statements, plan
    return traced


#: span name -> wrapper factory, for functions that need more than a span
_SPECIAL = {"machine.blocks.compile": _compile_wrapper,
            "optimizer.plan": _plan_wrapper}


def _run_wrapper(tracer: Tracer, run: Callable) -> Callable:
    """Span the execute layer and count what the block cache did."""
    @functools.wraps(run)
    def traced(cpu, *args, **kwargs):
        blocks = cpu.block_cache() if cpu.fast_path else None
        instructions = cpu.instructions
        if blocks is not None:
            before = (blocks.decodes, blocks.invalidations, blocks.runs,
                      blocks.retired)
        try:
            with tracer.span("machine.cpu.run"):
                return run(cpu, *args, **kwargs)
        finally:
            executed = cpu.instructions - instructions
            tracer.count("machine.cpu.instructions", executed)
            if tracer.inside("replay.reverse_continue"):
                tracer.count("replay.reexec_instr", executed)
            if blocks is not None:
                after = (blocks.decodes, blocks.invalidations, blocks.runs,
                         blocks.retired)
                for key, old, new in zip(("decodes", "invalidations",
                                          "block_runs", "fast_retired"),
                                         before, after):
                    tracer.count("machine.blocks." + key, new - old)
    return traced


def _hit_wrapper(tracer: Tracer, on_hit: Callable) -> Callable:
    """Count MRS notifications and the watchpoint engine's decisions."""
    @functools.wraps(on_hit)
    def traced(engine, addr, size, is_read):
        watchpoints = engine.debugger.watchpoints
        before = [(w.stats.evals, w.stats.suppressed, w.stats.fired)
                  for w in watchpoints]
        try:
            return on_hit(engine, addr, size, is_read)
        finally:
            tracer.count("core.hits")
            for watchpoint, (evals, suppressed, fired) in zip(watchpoints,
                                                              before):
                stats = watchpoint.stats
                tracer.count("watchpoints.evals", stats.evals - evals)
                tracer.count("watchpoints.suppressed",
                             stats.suppressed - suppressed)
                tracer.count("watchpoints.fired", stats.fired - fired)
    return traced


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a merged summary into the per-layer metric names."""
    layers = summary["layers"]
    counters = collections.Counter(summary["counters"])
    out: Dict[str, float] = {}

    def timed(metric: str, *spans: str) -> None:
        out[metric] = sum(layers.get(s, {}).get("self", 0.0) for s in spans)
        out[metric + ".calls"] = sum(layers.get(s, {}).get("calls", 0)
                                     for s in spans)

    timed("minic.compile_s", "minic.compile")
    timed("optimizer.plan_s", "optimizer.plan")
    for name in ("symbol", "loop"):
        seen = counters["optimizer.seen." + name]
        out["optimizer.elim_ratio." + name] = (
            counters["optimizer.eliminated." + name] / seen if seen else 0.0)
    timed("instrument.rewrite_s", "instrument.rewrite")
    timed("asm.assemble_s", "asm.assemble")
    timed("asm.load_s", "asm.load")
    timed("machine.blocks.compile_s", "machine.blocks.compile")
    out["machine.blocks.decodes"] = counters["machine.blocks.decodes"]
    out["machine.blocks.invalidations"] = \
        counters["machine.blocks.invalidations"]
    runs = counters["machine.blocks.block_runs"]
    retired = counters["machine.blocks.fast_retired"]
    instructions = counters["machine.cpu.instructions"]
    out["machine.blocks.instr_per_run"] = retired / runs if runs else 0.0
    out["machine.blocks.coverage"] = (retired / instructions
                                      if instructions else 0.0)
    timed("machine.cpu.run_self_s", "machine.cpu.run")
    out["machine.cpu.instructions"] = instructions
    timed("machine.checkpoint.capture_s", "machine.checkpoint.capture")
    timed("machine.checkpoint.restore_s", "machine.checkpoint.restore")
    recordings = counters["replay.recordings"]
    out["replay.keyframes"] = (counters["replay.keyframes"] / recordings
                               if recordings else 0.0)
    reverse = layers.get("replay.reverse_continue", {}).get("calls", 0)
    out["replay.reexec_instr"] = (counters["replay.reexec_instr"] / reverse
                                  if reverse else 0.0)
    timed("core.region_ops_s", "core.region_ops")
    out["core.hits"] = counters["core.hits"]
    out["watchpoints.evals"] = counters["watchpoints.evals"]
    decided = counters["watchpoints.suppressed"] + \
        counters["watchpoints.fired"]
    out["watchpoints.suppressed_ratio"] = (
        counters["watchpoints.suppressed"] / decided if decided else 0.0)
    timed("store.export_s", "store.export")
    timed("store.ingest_s", "store.ingest")
    out["store.dedup_ratio"] = counters["store.dedup_ratio"]
    for kind in ("hot", "writes", "provenance"):
        timed("store.query_s." + kind, "store.query." + kind)
    dispatched = 0.0
    requests = 0
    for command in SERVER_COMMANDS:
        timed("server.dispatch_s." + command, "server.dispatch." + command)
        dispatched += layers.get("server.dispatch." + command,
                                 {}).get("total", 0.0)
        requests += out["server.dispatch_s.%s.calls" % command]
    client = layers.get("client.request", {}).get("total", 0.0)
    out["server.wait_s"] = max(0.0, client - dispatched)
    out["server.wait_s.calls"] = requests
    return out


#: the wire commands a debug session sends, in session order
SERVER_COMMANDS = ("initialize", "launch", "dataBreakpointInfo",
                   "setDataBreakpoints", "continue", "evaluate",
                   "disconnect")
