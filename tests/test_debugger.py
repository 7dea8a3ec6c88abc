"""Tests for the source-level debugger and fault isolation."""

import pytest

from repro.debugger import Debugger, DebuggerError, FaultIsolator
from repro.errors import ReproError
from repro.faults import SERVICE_DELETE, FaultPlan

PROGRAM = """
struct rec { int key; int value; };

int counter;
int table[10];
struct rec entry;
int *alias;

int tick() {
    counter = counter + 1;
    return counter;
}

int store(int i, int v) {
    table[i] = v;
    return v;
}

int main() {
    register int i;
    alias = &counter;
    entry.key = 5;
    for (i = 0; i < 10; i = i + 1) {
        store(i, i * i);
    }
    tick();
    tick();
    *alias = 100;
    entry.value = table[3];
    print(counter);
    print(entry.value);
    return 0;
}
"""


def make(optimize="full"):
    return Debugger.for_source(PROGRAM, optimize=optimize)


class TestWatch:
    def test_global_counts_all_aliased_writes(self):
        debugger = make()
        watchpoint = debugger.watch("counter")
        assert debugger.run() == "exited"
        assert watchpoint.hit_count() == 3     # 2 ticks + *alias
        assert watchpoint.last_value() == 100

    def test_array_element(self):
        debugger = make()
        watchpoint = debugger.watch("table[3]")
        debugger.run()
        assert watchpoint.hit_count() == 1
        assert watchpoint.last_value() == 9

    def test_struct_field(self):
        debugger = make()
        key = debugger.watch("entry.key")
        value = debugger.watch("entry.value")
        debugger.run()
        assert key.hit_count() == 1 and key.last_value() == 5
        assert value.hit_count() == 1 and value.last_value() == 9

    def test_condition_filters(self):
        debugger = make()
        watchpoint = debugger.watch("counter",
                                    condition=lambda v: v >= 2)
        debugger.run()
        assert watchpoint.hit_count() == 2   # values 2 and 100

    def test_stop_and_resume(self):
        debugger = make()
        watchpoint = debugger.watch("counter", action="stop")
        assert debugger.run() == "watch"
        assert watchpoint.last_value() == 1
        assert debugger.run() == "watch"
        assert watchpoint.last_value() == 2
        assert debugger.run() == "watch"
        assert debugger.run() == "exited"
        assert debugger.output[-2:] == ["100", "9"]

    def test_unwatch_stops_reporting(self):
        debugger = make()
        watchpoint = debugger.watch("counter", action="stop")
        assert debugger.run() == "watch"
        watchpoint.delete()
        assert debugger.run() == "exited"
        assert watchpoint.hit_count() == 1

    def test_two_watchpoints_share_storage(self):
        debugger = make()
        a = debugger.watch("counter")
        b = debugger.watch("counter", condition=lambda v: v == 100)
        debugger.run()
        assert a.hit_count() == 3
        assert b.hit_count() == 1

    def test_shared_region_lives_until_its_last_watchpoint_goes(self):
        debugger = make()
        a = debugger.watch("counter")
        b = debugger.watch("counter", condition=lambda v: v == 100)
        assert a.region is b.region
        assert list(debugger.shadow) == [a.region.start]
        a.delete()
        assert list(debugger.mrs.regions) == [b.region]
        assert list(debugger.shadow) == [b.region.start]
        b.delete()
        assert list(debugger.mrs.regions) == []
        assert debugger.shadow == {}

    def test_unwatch_whose_region_delete_faults_stays_armed(self):
        debugger = Debugger.for_source(
            PROGRAM, faults=FaultPlan.nth(SERVICE_DELETE))
        watchpoint = debugger.watch("counter")
        with pytest.raises(ReproError):
            watchpoint.delete()
        assert debugger.watchpoints == [watchpoint]
        assert list(debugger.mrs.regions) == [watchpoint.region]
        watchpoint.delete()  # only the first delete faults
        assert debugger.watchpoints == []
        assert list(debugger.mrs.regions) == []

    def test_index_out_of_range(self):
        debugger = make()
        with pytest.raises(DebuggerError):
            debugger.watch("table[99]")

    def test_unknown_symbol(self):
        debugger = make()
        with pytest.raises(DebuggerError):
            debugger.watch("nothing")

    def test_register_variable_rejected_helpfully(self):
        debugger = Debugger.for_source("""
        int main() {
            register int r;
            r = 1;
            print(r);
            return 0;
        }
        """, optimize=None)
        with pytest.raises(DebuggerError) as excinfo:
            debugger.watch("r", func="main")
        assert "register" in str(excinfo.value)

    def test_local_requires_function(self):
        debugger = Debugger.for_source("""
        int main() {
            int x;
            x = 1;
            print(x);
            return 0;
        }
        """, optimize=None)
        with pytest.raises(DebuggerError):
            debugger.watch("x")


class TestBreakpoints:
    def test_break_then_watch_local(self):
        debugger = Debugger.for_source("""
        int square_sum(int n) {
            int total;
            register int i;
            total = 0;
            for (i = 1; i <= n; i = i + 1) {
                total = total + i * i;
            }
            return total;
        }
        int main() { print(square_sum(4)); return 0; }
        """, optimize="full")
        breakpoint = debugger.break_at("square_sum")
        assert debugger.run().startswith("breakpoint")
        assert breakpoint.hits == 1
        watchpoint = debugger.watch("total", func="square_sum")
        assert debugger.run() == "exited"
        assert watchpoint.hit_count() == 5   # init + 4 updates
        assert watchpoint.last_value() == 30

    def test_breakpoint_callback_no_stop(self):
        debugger = make()
        entries = []
        debugger.break_at("tick",
                          callback=lambda dbg, bp: entries.append(bp.hits))
        assert debugger.run() == "exited"
        assert entries == [1, 2]

    def test_clear_breakpoint(self):
        debugger = make()
        breakpoint = debugger.break_at("tick")
        assert debugger.run().startswith("breakpoint")
        debugger.clear_breakpoint(breakpoint)
        assert debugger.run() == "exited"
        assert breakpoint.hits == 1


class TestFaultIsolation:
    def test_all_writers_allowed(self):
        debugger = Debugger.for_source(PROGRAM, optimize=None)
        isolator = FaultIsolator(debugger, ["main", "store", "tick"])
        isolator.protect("table[3]")
        debugger.run()
        assert isolator.violations == []

    def test_disallowed_writer_flagged(self):
        debugger = Debugger.for_source(PROGRAM, optimize=None)
        isolator = FaultIsolator(debugger, ["main"])
        isolator.protect("counter")
        debugger.run()
        funcs = {v.func for v in isolator.violations}
        assert "tick" in funcs
