"""Predicate watchpoints: compiler, engine, transition oracle, replay
and wire-protocol integration.

The ISSUE acceptance criteria exercised here:

* a transition watchpoint fires exactly on truth-value edges, checked
  against a brute-force per-step oracle that recomputes the predicate
  on every recorded write (small program and a §6 workload region);
* ``reverse_continue`` lands on the same firing instruction
  deterministically, for conditional and transition watchpoints;
* predicate runtime errors (bad deref, division by zero) disarm the
  watchpoint instead of crashing the session;
* protocol v4: ``accessTypes`` includes ``readWrite`` under
  ``monitorReads``, unsupported ``accessType`` values and predicates
  referencing undefined symbols are rejected with structured errors at
  ``setDataBreakpoints`` time.
"""

import pytest

from repro.debugger import Debugger
from repro.debugger.debugger import DebuggerError
from repro.errors import PredicateCompileError, PredicateError
from repro.server import DebugClient, DebugServer, ServerConfig
from repro.watchpoints import (EDGES, EvalContext,
                               WatchStats, access_allows,
                               compile_predicate, condition_to_expr,
                               edge_fires)

SOURCE = """
int g;
int limit;
int main() {
    register int i;
    limit = 10;
    for (i = 0; i < 24; i = i + 1) {
        g = (i * 13) & 15;
    }
    print(g);
    return 0;
}
"""

#: the values main() stores into g, in order
G_VALUES = [(i * 13) & 15 for i in range(24)]


def evaluate(source, **ctx):
    predicate = compile_predicate(source)
    return predicate.evaluate(EvalContext(**ctx))


# -- the predicate compiler ---------------------------------------------------

class TestPredicateCompiler:
    def test_specials_and_comparisons(self):
        assert evaluate("$value > 100", value=105) == 1
        assert evaluate("$value > 100", value=100) == 0
        assert evaluate("$old != $value", value=3, old=4) == 1
        assert evaluate("$addr + $size", addr=0x100, size=4) == 0x104

    def test_c_division_truncates_toward_zero(self):
        assert evaluate("-7 / 2") == -3
        assert evaluate("-7 % 2") == -1
        assert evaluate("7 / -2") == -3

    def test_arithmetic_wraps_to_32_bits(self):
        assert evaluate("2147483647 + 1") == -2147483648
        assert evaluate("$value * 2", value=0x40000000) == -2147483648

    def test_bitwise_shift_and_logic(self):
        assert evaluate("($value & 0xF0) >> 4", value=0xAB) == 0xA
        assert evaluate("1 << 31") == -2147483648
        # arithmetic right shift of a negative value
        assert evaluate("$value >> 1", value=-8) == -4
        assert evaluate("$value > 1 && $value < 5", value=3) == 1
        assert evaluate("$value < 1 || $value > 5", value=3) == 0

    def test_constant_folding_marks_const(self):
        predicate = compile_predicate("3 * 4 > 10")
        assert predicate.const == 1
        assert predicate.deps == frozenset()
        live = compile_predicate("$value > 10")
        assert live.const is None
        assert live.deps == frozenset({"value"})

    def test_short_circuit_folds_dead_branches(self):
        # `0 && <anything>` is false without evaluating the right side
        predicate = compile_predicate("0 && $value / 0")
        assert predicate.const == 0

    def test_unknown_special_is_a_compile_error(self):
        with pytest.raises(PredicateCompileError) as excinfo:
            compile_predicate("$bogus > 1")
        assert excinfo.value.token == "$bogus"

    def test_undefined_symbol_is_a_compile_error(self):
        with pytest.raises(PredicateCompileError) as excinfo:
            compile_predicate("$value > no_such_global")
        assert excinfo.value.token == "no_such_global"

    def test_division_by_zero_is_a_runtime_predicate_error(self):
        predicate = compile_predicate("100 / $value")
        with pytest.raises(PredicateError) as excinfo:
            predicate.evaluate(EvalContext(value=0))
        assert excinfo.value.reason == "div_zero"

    def test_condition_to_expr_desugars_legacy_dialect(self):
        assert condition_to_expr(">= 100") == "$value >= 100"
        assert condition_to_expr("== -3") == "$value == -3"
        # anything else is already a predicate expression
        assert condition_to_expr("$value > limit") == "$value > limit"

    def test_calls_and_strings_rejected(self):
        with pytest.raises(PredicateCompileError):
            compile_predicate("foo() > 1")
        with pytest.raises(PredicateCompileError):
            compile_predicate('"text"')


class TestEngineHelpers:
    def test_edge_fires_truth_table(self):
        assert edge_fires("rise", False, True)
        assert not edge_fires("rise", True, True)
        assert not edge_fires("rise", True, False)
        assert edge_fires("fall", True, False)
        assert not edge_fires("fall", False, False)
        assert edge_fires("change", False, True)
        assert edge_fires("change", True, False)
        assert not edge_fires("change", True, True)

    def test_access_allows(self):
        assert access_allows(None, True) and access_allows(None, False)
        assert access_allows("readWrite", True)
        assert access_allows("read", True)
        assert not access_allows("read", False)
        assert access_allows("write", False)
        assert not access_allows("write", True)

    def test_watch_stats_round_trip(self):
        stats = WatchStats(5, 4, 3, 2, 1, 0)
        assert WatchStats.from_tuple(stats.as_tuple()).as_tuple() \
            == stats.as_tuple()
        assert stats.as_dict()["hits"] == 5


# -- debugger-level semantics -------------------------------------------------

class TestConditionalWatchpoints:
    def test_predicate_filters_hits(self):
        debugger = Debugger.for_source(SOURCE)
        watchpoint = debugger.watch("g", action="log",
                                    expr="$value > 9")
        assert debugger.run() == "exited"
        expected = [value for value in G_VALUES if value > 9]
        assert [value for _a, _s, value, _i in watchpoint.hits] == expected
        assert watchpoint.stats.evals == len(G_VALUES)
        assert watchpoint.stats.suppressed \
            == len(G_VALUES) - len(expected)
        assert watchpoint.kind == "conditional"

    def test_old_value_available(self):
        debugger = Debugger.for_source(SOURCE)
        watchpoint = debugger.watch("g", action="log",
                                    expr="$value - $old > 9")
        assert debugger.run() == "exited"
        previous = [0] + G_VALUES[:-1]
        expected = [new for old, new in zip(previous, G_VALUES)
                    if new - old > 9]
        assert [value for _a, _s, value, _i in watchpoint.hits] == expected

    def test_predicate_can_read_globals(self):
        debugger = Debugger.for_source(SOURCE)
        watchpoint = debugger.watch("g", action="log",
                                    expr="$value > limit")
        assert debugger.run() == "exited"
        # limit is 10 by the time g is first written
        expected = [value for value in G_VALUES if value > 10]
        assert [value for _a, _s, value, _i in watchpoint.hits] == expected

    def test_bad_edge_and_missing_predicate_rejected(self):
        debugger = Debugger.for_source(SOURCE)
        with pytest.raises(DebuggerError):
            debugger.watch("g", when="sideways", expr="$value")
        with pytest.raises(DebuggerError):
            debugger.watch("g", when="rise")
        with pytest.raises(DebuggerError):
            debugger.watch("g", access="sometimes")
        assert debugger.watchpoints == []

    def test_bad_predicate_leaves_nothing_armed(self):
        debugger = Debugger.for_source(SOURCE)
        with pytest.raises(PredicateCompileError):
            debugger.watch("g", expr="$value > no_such_symbol")
        assert debugger.watchpoints == []
        assert debugger.run() == "exited"


class TestDisarmSemantics:
    def test_runtime_error_disarms_not_crashes(self):
        debugger = Debugger.for_source(SOURCE)
        # faults as soon as g == 0 lands (the first write)
        watchpoint = debugger.watch("g", action="log",
                                    expr="100 / $value > 3")
        assert debugger.run() == "exited"
        assert watchpoint.disarm_error is not None
        assert watchpoint.disarm_error.reason == "div_zero"
        assert watchpoint.enabled is False
        assert watchpoint.stats.errors == 1
        assert any("disarmed" in line for line in debugger.log)

    def test_arm_time_fault_rolls_back(self):
        debugger = Debugger.for_source(SOURCE)
        # g is 0 before the program runs, so seeding the transition
        # truth divides by zero at arm time
        with pytest.raises(PredicateError):
            debugger.watch("g", expr="100 / $value > 3", when="rise")
        assert debugger.watchpoints == []


# -- transition semantics vs. a brute-force oracle ----------------------------

def brute_force_edges(seed_truth, truths, when):
    """Per-step oracle: indices where the edge fires, recomputed from
    scratch (no shared code with the engine's edge logic)."""
    fires = []
    previous = seed_truth
    for index, current in enumerate(truths):
        if when == "rise":
            fired = current and not previous
        elif when == "fall":
            fired = previous and not current
        else:
            fired = current != previous
        if fired:
            fires.append(index)
        previous = current
    return fires


class TestTransitionOracle:
    @pytest.mark.parametrize("when", EDGES)
    def test_fires_exactly_on_edges(self, when):
        debugger = Debugger.for_source(SOURCE)
        watchpoint = debugger.watch("g", action="log",
                                    expr="$value > 9", when=when)
        # seeded from current memory: g is 0 at arm time
        assert watchpoint.truth is False
        assert debugger.run() == "exited"
        truths = [value > 9 for value in G_VALUES]
        expected = brute_force_edges(False, truths, when)
        assert [value for _a, _s, value, _i in watchpoint.hits] \
            == [G_VALUES[i] for i in expected]
        assert watchpoint.stats.fired == len(expected)
        assert watchpoint.kind == "transition"

    @pytest.mark.parametrize("when", EDGES)
    def test_workload_region_matches_oracle(self, when):
        """The acceptance criterion, on a real §6 workload: eqntott's
        PRNG seed churns pseudo-randomly, so the predicate's truth
        value flips many times over the run."""
        from repro.workloads import WORKLOADS, workload_source

        source = workload_source("023.eqntott", 0.1)
        lang = WORKLOADS["023.eqntott"].lang
        predicate = "($value & 12) == 8"

        plain = Debugger.for_source(source, lang=lang)
        seed0 = plain.evaluate("__seed")[2]
        probe = plain.watch("__seed", action="log")
        assert plain.run() == "exited"
        values = [value for _a, _s, value, _i in probe.hits]
        assert len(values) > 10  # the oracle needs real churn

        transition = Debugger.for_source(source, lang=lang)
        watchpoint = transition.watch("__seed", action="log",
                                      expr=predicate, when=when)
        assert transition.run() == "exited"

        truths = [(value & 12) == 8 for value in values]
        expected = brute_force_edges((seed0 & 12) == 8, truths, when)
        assert [value for _a, _s, value, _i in watchpoint.hits] \
            == [values[i] for i in expected]


# -- replay: reverse-continue lands on predicate firings ----------------------

class TestReverseContinuePredicate:
    def run_recorded(self, **watch_kwargs):
        debugger = Debugger.for_source(SOURCE)
        watchpoint = debugger.watch("g", action="stop", **watch_kwargs)
        debugger.record(stride=200)
        reason = debugger.run()
        stops = []
        while reason != "exited":
            if reason == "watch":
                stops.append(debugger.cpu.instructions)
            reason = debugger.run()
        return debugger, watchpoint, stops

    def test_reverse_lands_on_last_transition_firing(self):
        debugger, watchpoint, stops = self.run_recorded(
            expr="$value > 9", when="rise")
        assert stops  # the forward run did stop at least once
        assert debugger.reverse_continue() == "watch"
        assert debugger.stopped_watch is watchpoint
        assert debugger.cpu.instructions == stops[-1]
        # walking further back visits earlier firings, newest first
        for earlier in reversed(stops[:-1]):
            assert debugger.reverse_continue() == "watch"
            assert debugger.cpu.instructions == earlier
        assert debugger.reverse_continue() == "replay-start"

    def test_reverse_is_deterministic_across_runs(self):
        landings = []
        for _ in range(2):
            debugger, _watchpoint, stops = self.run_recorded(
                expr="$value > 9", when="change")
            assert debugger.reverse_continue() == "watch"
            landings.append((debugger.cpu.instructions, stops[-1]))
        assert landings[0] == landings[1]
        assert landings[0][0] == landings[0][1]

    def test_conditional_reverse_skips_suppressed_writes(self):
        debugger, watchpoint, stops = self.run_recorded(
            expr="$value == 14")
        assert G_VALUES.count(14) == len(stops)
        assert debugger.reverse_continue() == "watch"
        assert debugger.cpu.instructions == stops[-1]
        assert debugger.evaluate("g")[2] == 14


# -- protocol v4 --------------------------------------------------------------

@pytest.fixture
def server():
    instance = DebugServer(config=ServerConfig(max_sessions=8,
                                               workers=4)).start()
    yield instance
    instance.close(drain=False, timeout=2.0)


def client_for(server, timeout=15.0):
    return DebugClient(port=server.port, timeout=timeout)


def run_to_exit(client, session_id):
    stop = client.cont(session_id)
    while not stop.get("exited"):
        stop = client.cont(session_id)
    return stop


class TestWireProtocolV4:
    def test_capabilities_advertise_predicates(self, server):
        with client_for(server) as client:
            negotiated = client.initialize()
            assert negotiated["protocolVersion"] == 4
            capabilities = negotiated["capabilities"]
            assert capabilities["supportsConditionalDataBreakpoints"] \
                is True
            assert capabilities["supportsPredicateConditions"] is True
            assert capabilities["supportsTransitionDataBreakpoints"] \
                is True
            assert capabilities["predicateSpecials"] == \
                ["$value", "$old", "$addr", "$size"]
            assert capabilities["transitionEdges"] == list(EDGES)

    def test_access_types_follow_monitor_reads(self, server):
        with client_for(server) as client:
            client.initialize()
            plain = client.launch(SOURCE)
            info = client.data_breakpoint_info(plain, "g")
            assert info["accessTypes"] == ["write"]
            reads = client.launch(SOURCE, monitorReads=True)
            info = client.data_breakpoint_info(reads, "g")
            assert info["accessTypes"] == ["read", "write", "readWrite"]

    def test_unsupported_access_type_rejected(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            info = client.data_breakpoint_info(session_id, "g")
            results = client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"],
                              "accessType": "read"}])
            assert results[0]["verified"] is False
            context = results[0]["error"]["context"]
            assert context["reason"] == "access_type"
            assert context["field"] == "accessType"
            assert context["supported"] == ["write"]
            # the rejected spec must not leave a half-armed breakpoint
            assert client.set_data_breakpoints(session_id, []) == []

    def test_invalid_condition_rejected_with_token(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            info = client.data_breakpoint_info(session_id, "g")
            results = client.set_data_breakpoints(
                session_id,
                [{"dataId": info["dataId"],
                  "condition": "$value > undefined_sym"}])
            assert results[0]["verified"] is False
            context = results[0]["error"]["context"]
            assert context["reason"] == "invalid_condition"
            assert context["field"] == "condition"
            assert context["token"] == "undefined_sym"
            assert context["condition"] == "$value > undefined_sym"

    def test_transition_fires_once_over_the_wire(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            info = client.data_breakpoint_info(session_id, "g")
            results = client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"], "stop": True,
                              "condition": "$value > 9",
                              "when": "rise"}])
            assert results[0]["verified"] is True
            assert results[0]["kind"] == "transition"
            rises = brute_force_edges(
                False, [value > 9 for value in G_VALUES], "rise")
            stops = []
            stop = client.cont(session_id)
            while not stop.get("exited"):
                if stop["reason"] == "watch":
                    stops.append(stop["value"])
                stop = client.cont(session_id)
            assert stops == [G_VALUES[i] for i in rises]

    def test_legacy_condition_dialect_still_works(self, server):
        with client_for(server) as client:
            client.initialize()
            session_id = client.launch(SOURCE)
            info = client.data_breakpoint_info(session_id, "g")
            results = client.set_data_breakpoints(
                session_id, [{"dataId": info["dataId"], "stop": True,
                              "condition": "== 14"}])
            assert results[0]["verified"] is True
            stop = client.cont(session_id)
            assert stop["reason"] == "watch"
            assert stop["value"] == 14
            run_to_exit(client, session_id)
