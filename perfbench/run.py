"""The repository benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload paper-tables --seed 1 \\
        --seconds 30 --trace 0

Every run exercises all three user paths of ``repro`` and reports all
fifteen end-to-end metrics; the workload decides which path carries
the heavy, seeded load (see README.md in this directory):

* ``paper-tables``: the Table 1 / Table 2 sweep;
* ``debug-sessions``: debug sessions against a ``repro serve`` process;
* ``time-travel``: record, reverse-continue, archive and query.

The other two paths run a light load, so each metric exists on every
workload.  With ``--trace 1`` the run makes an untraced pass and then
a traced pass, and reports the per-layer metrics of the traced pass
plus the traced-minus-untraced difference of every end-to-end metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A mismatch
against any correctness oracle prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: workload -> the phase it loads heavily
WORKLOADS = {"paper-tables": "tables", "debug-sessions": "sessions",
             "time-travel": "travel"}

#: end-to-end metrics (tracing off), in report order
END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("sweep_s", "s"),
    ("sim_overhead_pct", "%"), ("launch_ms.p50", "ms"),
    ("launch_ms.tail", "ms"), ("continue_ms.p50", "ms"),
    ("continue_ms.tail", "ms"), ("sessions_per_s", "1/s"),
    ("record_s", "s"), ("reverse_ms.p50", "ms"), ("reverse_ms.tail", "ms"),
    ("archive_ms.p50", "ms"), ("query_ms.p50", "ms"),
    ("query_ms.tail", "ms"),
)
#: set-ups per untraced pass; setup_s is their median
SETUP_REPEATS = 3
#: rounds the phases are interleaved in
ROUNDS = 12
#: store query rounds in each round once the first pass of recordings
#: is archived
QUERY_ROUNDS = 4
#: rounds of the session pool per second of --seconds, heavy and light
SESSION_ROUNDS = {True: 0.1, False: 0.05}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    from inputs import CONFIGS
    from tables import TAGS
    from tracer import SERVER_COMMANDS

    units = {}

    def timed(name):
        units[name] = "s"
        units[name + ".calls"] = "count"

    timed("minic.compile_s")
    timed("optimizer.plan_s")
    units["optimizer.elim_ratio.symbol"] = "ratio"
    units["optimizer.elim_ratio.loop"] = "ratio"
    timed("instrument.rewrite_s")
    timed("asm.assemble_s")
    timed("asm.load_s")
    timed("machine.blocks.compile_s")
    units["machine.blocks.decodes"] = "count"
    units["machine.blocks.invalidations"] = "count"
    units["machine.blocks.instr_per_run"] = "instr"
    units["machine.blocks.coverage"] = "ratio"
    timed("machine.cpu.run_self_s")
    units["machine.cpu.instructions"] = "count"
    for config in CONFIGS:
        for tag in TAGS:
            units["sim.%s.%s_pct" % (config, tag)] = "%"
    timed("machine.checkpoint.capture_s")
    timed("machine.checkpoint.restore_s")
    units["replay.keyframes"] = "count"
    units["replay.reexec_instr"] = "instr"
    timed("core.region_ops_s")
    units["core.hits"] = "count"
    units["watchpoints.evals"] = "count"
    units["watchpoints.suppressed_ratio"] = "ratio"
    timed("store.export_s")
    timed("store.ingest_s")
    units["store.dedup_ratio"] = "ratio"
    for kind in ("hot", "writes", "provenance"):
        timed("store.query_s." + kind)
    for command in SERVER_COMMANDS:
        timed("server.dispatch_s." + command)
    timed("server.wait_s")
    for name, unit in END_TO_END:
        units["trace_overhead." + name] = unit
    return units


def fingerprint() -> dict:
    """Engine and host the numbers were measured on."""
    from repro.machine.cpu import CPU, CodeSpace
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    fast = CPU(CodeSpace()).fast_path
    return {"engine": "fast path" if fast else "slow loop",
            "cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit or "n/a (not a git checkout)",
            "source_sha256": digest.hexdigest()[:16]}


def set_up(inputs, import_s: float, trace_out=None):
    """Boot the server to its banner and generate and compile the run's
    sources; returns (seconds, server, sources).  The bench process
    imports once, so its import time is part of every set-up."""
    from repro.minic.codegen import compile_source

    from inputs import lang, sources as generate
    from sessions import ServerProcess

    begin = time.perf_counter()
    server = ServerProcess(trace_out=trace_out)
    try:
        sources = generate(inputs)
        for (program, _scale), text in sources.items():
            compile_source(text, lang=lang(program))
    except BaseException:
        server.stop()
        raise
    return import_s + time.perf_counter() - begin, server, sources


def _split(items: list, parts: int) -> list:
    return [items[i * len(items) // parts:(i + 1) * len(items) // parts]
            for i in range(parts)]


def run_pass(args, inputs, import_s: float, scratch: str, tracer=None):
    """Set up, then run the three phases interleaved in ``ROUNDS``
    rounds, so each metric samples the whole run rather than one stretch
    of it (host speed here drifts over seconds).  The untraced pass
    repeats the set-up in rounds spread over the run for the same
    reason.  Every set-up and phase slice runs between two calibrations
    of host speed, and the times it measured are scaled to the
    reference speed (see speed.py).  With *tracer*, the layer wrappers
    are installed after the set-up and taken out before the correctness
    checks.  Returns the pass result."""
    import stats
    import sessions
    import speed
    import tables
    import tracer as tracing
    import travel

    heavy = WORKLOADS[args.workload]
    trace_out = os.path.join(scratch, "server-spans.json") \
        if tracer is not None else None
    scaler = speed.Scaler()
    setups: list = []

    def boot(server_trace=None):
        seconds, server, sources = set_up(inputs, import_s, server_trace)
        setups.append(seconds)
        return server, sources

    server, sources = scaler.slice([setups], boot, trace_out)
    again = set() if tracer is not None else \
        {round(i * ROUNDS / SETUP_REPEATS) for i in range(1, SETUP_REPEATS)}
    uninstall = None
    try:
        if tracer is not None:
            uninstall = tracing.install(tracer)
        sweep = tables.Sweep()
        trip = travel.Trip(inputs, sources,
                           os.path.join(scratch, "store-%s.sqlite"
                                        % ("traced" if tracer else "plain")),
                           heavy == "travel")
        load = sessions.Load(server.port, inputs, sources)
        cells = _split(tables.cells_of(inputs.tables if heavy == "tables"
                                       else inputs.light_tables), ROUNDS)
        recordings = _split(trip.plan, ROUNDS)
        recorded = 0
        pool_rounds = max(1, round(args.seconds *
                                   SESSION_ROUNDS[heavy == "sessions"]))
        counts = [len(chunk) for chunk in _split(
            [None] * pool_rounds * len(inputs.sessions), ROUNDS)]
        times = trip.samples
        for index in range(ROUNDS):
            if index in again:
                spare, _sources = scaler.slice([setups], boot)
                spare.stop()
            # collect before each phase, so that a collection inside a
            # timed call does not pay for the garbage of another phase
            gc.collect()
            for cell in cells[index]:
                scaler.slice([sweep.seconds], sweep.run, [cell])
            gc.collect()
            for recording in recordings[index]:
                scaler.slice([times.record_s, times.reverse_ms,
                              times.archive_ms], trip.record, [recording])
            recorded += len(recordings[index])
            if recorded >= trip.first_pass:
                trip.reopen()
                for _ in range(QUERY_ROUNDS):
                    scaler.slice([times.query_ms], trip.query)
            gc.collect()
            scaler.slice([load.seconds, load.samples.launch_ms,
                          load.samples.continue_ms], load.run, counts[index])
        travelled = trip.close()
        served = load.close()
    finally:
        if uninstall is not None:
            uninstall()
        server.stop()
    elapsed = sum(load.seconds)
    sweep_s, cells, table_mismatches = \
        sum(sweep.seconds), sweep.cells, sweep.mismatches
    if heavy == "sessions":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mismatches = table_mismatches + travelled.mismatches + \
        sessions.check(served, sources)

    completed = sum(1 for log in served.logs if log.error is None)
    summaries = {
        "launch_ms": stats.summarize(served.launch_ms),
        "continue_ms": stats.summarize(served.continue_ms),
        "reverse_ms": stats.summarize(travelled.reverse_ms),
        "query_ms": stats.summarize(travelled.query_ms),
        "archive_ms": {"p50": {"value": stats.median(travelled.archive_ms),
                               "percentile": 50.0,
                               "samples": len(travelled.archive_ms)}},
    }
    metrics = {
        "setup_s": stats.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        "sweep_s": sweep_s,
        "sim_overhead_pct": tables.overhead_pct(cells),
        "sessions_per_s": completed / elapsed,
        "record_s": stats.median(travelled.record_s),
    }
    for family, summary in summaries.items():
        for key, entry in summary.items():
            metrics["%s.%s" % (family, key)] = entry["value"]
    result = {
        "metrics": metrics, "summaries": summaries, "cells": cells,
        "setups": setups, "factors": scaler.factors,
        "mismatches": mismatches,
        "attempted": len(cells) + served.attempted + travelled.attempted,
        "failed": len(table_mismatches) + served.failed + travelled.failed,
        "counts": {"sessions": len(served.logs), "completed": completed,
                   "recordings": len(travelled.record_s),
                   "cells": len(cells)},
    }
    if tracer is not None:
        tracer.count("replay.keyframes", travelled.keyframes)
        tracer.count("replay.recordings", len(travelled.record_s))
        tracer.count("store.dedup_ratio", travelled.dedup_ratio)
        with open(trace_out) as handle:
            server_summary = json.load(handle)
        result["layers"] = (tracer.summary(), server_summary)
    return result


def report(args, inputs, host: dict, passes: dict) -> None:
    """Human-readable provenance, sample counts and breakdowns."""
    import tables

    print("workload %s  seed %d  seconds %d  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("engine %(engine)s; host %(cpu)s, nproc %(nproc)s, python "
          "%(python)s; commit %(commit)s; src sha256 %(source_sha256)s"
          % host)
    print("inputs: sweep %s; light sweep %s; travel %s"
          % (inputs.tables, inputs.light_tables,
             [pair[:2] for pair in inputs.travel]))
    for label, result in passes.items():
        print("-- %s pass: %s" % (label, json.dumps(result["counts"])))
        factors = sorted(result["factors"])
        print("   times scaled to the reference speed by factors %.3f "
              "(min) %.3f (median) %.3f (max) over %d slices"
              % (factors[0], factors[len(factors) // 2], factors[-1],
                 len(factors)))
        print("   set-ups (s): %s"
              % ", ".join("%.3f" % value for value in result["setups"]))
        for family, summary in result["summaries"].items():
            for key, entry in summary.items():
                print("   %s.%s = %.3f ms at p%.1f of %d samples"
                      % (family, key, entry["value"], entry["percentile"],
                         entry["samples"]))
        for line in tables.render(result["cells"]):
            print("   " + line)
        for mismatch in result["mismatches"]:
            print("   MISMATCH " + mismatch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: %s holds no repro sources to benchmark" % SRC,
              file=sys.stderr)
        return 2
    import speed
    speed.pin_to_one_cpu()
    sys.path.insert(0, SRC)
    import repro.session  # noqa: F401  (import order: see tracer.py)
    import repro.debugger  # noqa: F401
    import repro.eval.overhead  # noqa: F401
    import repro.server.client  # noqa: F401
    import repro.store  # noqa: F401

    import inputs as drawn
    import tracer as tracing

    import_s = time.perf_counter() - PROCESS_START
    inputs = drawn.draw(args.seed)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.join(ROOT, ".perfbench"))
    try:
        passes = {"untraced": run_pass(args, inputs, import_s, scratch)}
        if args.trace:
            passes["traced"] = run_pass(args, inputs, import_s, scratch,
                                        tracer=tracing.Tracer())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(args, inputs, fingerprint(), passes)

    units = dict(END_TO_END)
    untraced = passes["untraced"]["metrics"]
    if args.trace:
        import tables
        traced = passes["traced"]
        values = tracing.layer_metrics(tracing.merge(list(traced["layers"])))
        values.update(tables.tag_metrics(traced["cells"]))
        for name in units:
            values["trace_overhead." + name] = \
                traced["metrics"][name] - untraced[name]
        units = per_layer_units()
    else:
        values = untraced
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError("metric set drifted: %s" % sorted(missing))
    mismatches = [m for result in passes.values()
                  for m in result["mismatches"]]
    print(json.dumps({
        "correct": not mismatches,
        "attempted": sum(r["attempted"] for r in passes.values()),
        "failed": sum(r["failed"] for r in passes.values()),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
