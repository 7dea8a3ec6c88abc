"""Run ``repro serve`` for the benchmark's debug sessions.

Usage: ``python3 perfbench/serve.py [--trace-out FILE] SERVE-ARGS...``

With ``--trace-out`` the layer wrappers of ``tracer.py`` are installed
in this server process before it boots, and the span summary is
written to FILE as JSON when the server exits (SIGINT drains it).
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv) -> int:
    # the benchmark stops this server with SIGINT; a process started in
    # the background inherits SIGINT ignored, and Python then installs
    # no KeyboardInterrupt handler of its own
    signal.signal(signal.SIGINT, signal.default_int_handler)
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from repro.cli import main as repro_main
    code = repro_main(["serve"] + list(argv))
    if tracer is not None:
        with open(trace_out, "w") as handle:
            json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
