"""Predicate watchpoints: conditional and transition data breakpoints.

The MRS answers "was this region accessed?"; this package answers the
debugger-level question "*should this access stop the program?*".  It
has two halves:

* :mod:`repro.watchpoints.predicate` — the predicate language: one
  mini-C expression over ``$value`` / ``$old`` / ``$addr`` / ``$size``
  and the debuggee's globals, compiled once per watchpoint into a tree
  of closures (with constant folding and dependency tracking);
* :mod:`repro.watchpoints.engine` — the evaluation engine between the
  MRS notification callback and the debugger's action dispatch:
  access filter, byte-range guard, predicate evaluation, transition
  edge detection, per-watchpoint counters, and disarm-on-error.

Transition watchpoints follow Arya et al. ("Transition Watchpoints:
Teaching Old Debuggers New Tricks"): the watchpoint carries a shadow
truth value, initialised from memory at arm time, and fires only when
the predicate's truth *changes* on the selected edge.  Old values are
not kept here: ``$old`` reads the debugger's one shadow of the watched
words (``Debugger.shadow``), which the debugger's MRS hook hands the
engine and the time-travel recorder alike.
"""

from repro.errors import PredicateCompileError, PredicateError
from repro.watchpoints.engine import (ACCESS_KINDS, EDGES, WatchStats,
                                      WatchpointEngine, access_allows,
                                      edge_fires)
from repro.watchpoints.predicate import (SPECIALS, EvalContext,
                                         Predicate, compile_predicate,
                                         condition_to_expr,
                                         memory_reader)

__all__ = [
    "ACCESS_KINDS", "EDGES", "SPECIALS",
    "EvalContext", "Predicate", "WatchStats", "WatchpointEngine",
    "PredicateCompileError", "PredicateError",
    "access_allows", "compile_predicate", "condition_to_expr",
    "edge_fires", "memory_reader",
]
