"""Tests for the evaluation harness and the paper's shapes.

The module-scoped ``evaluation`` fixture runs the whole report
(:func:`repro.eval.report.measure`) once at ``SCALE``; every shape
below is checked on those results, so tier-1 checks the orderings the
paper's conclusions rest on at the cost of one evaluation.
"""

import json
import math

import pytest

import golden
from repro.eval.ablations import sweep_window_bulk
from repro.eval.breakeven import (breakeven_full_fraction, cost_cache,
                                  cost_registers)
from repro.eval.elim import measure_workload as elim_row
from repro.eval.nop_experiment import linear_regression
from repro.eval.overhead import WorkloadBench, average
from repro.eval.paper_data import TABLE1, TABLE1_COLUMNS, TABLE2
from repro.eval.report import measure, render
from repro.eval.space import measure_workload as measure_space
from repro.eval.table1 import format_table, summarize
from repro.eval.table2 import summarize as summarize_table2
from repro.workloads import WORKLOAD_ORDER

TINY = 0.2
#: the scale the shared evaluation runs at
SCALE = 0.15
#: Table 1's columns with the MRS enabled
ENABLED = [column for column in TABLE1_COLUMNS if column != "Disabled"]


@pytest.fixture(scope="module")
def evaluation():
    return measure(SCALE)


class TestWorkloadBench:
    def test_baseline_cached(self):
        bench = WorkloadBench("042.fpppp", scale=TINY)
        first = bench.baseline()
        second = bench.baseline()
        assert first is second

    def test_overhead_positive_for_enabled_checks(self, evaluation):
        assert evaluation["table1"]["042.fpppp"]["Bitmap"] > 5.0

    def test_output_mismatch_detected(self):
        bench = WorkloadBench("042.fpppp", scale=TINY)
        run = bench.run_instrumented("Cache", enabled=True)
        assert run.output == bench.baseline().output

    def test_average(self):
        assert average([1.0, 2.0, 3.0]) == 2.0
        assert average([]) == 0.0


class TestTable1Harness:
    def test_row_has_all_columns(self, evaluation):
        assert set(evaluation["table1"]["042.fpppp"]) == set(TABLE1_COLUMNS)

    def test_disabled_cheapest(self, evaluation):
        row = evaluation["table1"]["030.matrix300"]
        assert row["Disabled"] < row["Bitmap"]
        assert row["Disabled"] < row["Cache"]

    def test_formatting_and_summary(self, evaluation):
        rows = {"042.fpppp": evaluation["table1"]["042.fpppp"]}
        text = format_table(rows)
        assert "042.fpppp" in text and "%" in text
        summary = summarize(rows)
        assert "overall" in summary and "F" in summary

    def test_every_enabled_strategy_costs_cycles(self, evaluation):
        row = evaluation["table1"]["030.matrix300"]
        for strategy in ENABLED:
            assert row[strategy] > 0, strategy

    def test_strategy_orderings(self, evaluation):
        summary = summarize(evaluation["table1"])["overall"]
        # Disabled is far below any enabled configuration
        assert summary["Disabled"] < summary["CacheInline"]
        assert summary["Disabled"] < summary["BitmapInlineRegisters"]
        # reserved registers beat the plain procedure-call bitmap (§3.1)
        assert summary["BitmapInlineRegisters"] < summary["Bitmap"]
        # segment caching beats uncached lookup on average (§3.3.3)
        assert summary["Cache"] < summary["Bitmap"]
        assert summary["CacheInline"] < summary["Bitmap"]
        # the headline: checking every write is practical (tens of
        # percent, not the factors of prior approaches)
        assert summary["BitmapInlineRegisters"] < 120.0

    def test_write_dense_c_codes_are_most_expensive(self, evaluation):
        bitmap = {name: row["Bitmap"]
                  for name, row in evaluation["table1"].items()}
        worst = sorted(bitmap, key=bitmap.get)[-2:]
        assert set(worst) <= {"022.li", "001.gcc1.35", "015.doduc"}

    def test_c_overheads_exceed_fortran(self, evaluation):
        summary = summarize(evaluation["table1"])
        for strategy in ENABLED:
            assert summary["C"][strategy] > summary["F"][strategy], \
                strategy


class TestTable2Harness:
    def test_row_fields(self, evaluation):
        row = evaluation["table2"]["030.matrix300"]
        assert row["total"] == pytest.approx(
            row["sym"] + row["li"] + row["range"], abs=0.1)
        assert row["total"] >= 90.0
        assert row["full"] < row["sym_overhead"] + 1.0

    def test_paper_reference_data_complete(self):
        assert set(TABLE1) == set(TABLE2)
        assert len(TABLE1) == 10

    def test_matrix300_is_the_showcase(self, evaluation):
        # the paper's showcase: 100% of checks eliminated
        row = evaluation["table2"]["030.matrix300"]
        assert row["total"] >= 95.0
        assert row["range"] > 20.0

    def test_li_eliminates_by_symbol_only(self, evaluation):
        row = evaluation["table2"]["022.li"]
        assert row["sym"] > 50.0
        assert row["li"] + row["range"] < 10.0

    def test_elimination_shapes(self, evaluation):
        results = evaluation["table2"]
        summary = summarize_table2(results)
        # "Data flow analysis eliminated an average of 79% of the
        # dynamic write checks": well over half
        assert summary["overall"]["total"] > 60.0
        # "For scientific programs such as the NAS kernels, analysis
        # reduced write checks by a factor of ten or more"
        for name in ("030.matrix300", "020.nasker"):
            assert results[name]["total"] >= 90.0, name
        # FORTRAN programs gain more from loop optimization than C (§4.6)
        assert summary["F"]["range"] >= 0.0
        assert summary["F"]["full"] < summary["C"]["full"]
        # pre-header checks are rare relative to the checks they replace
        assert summary["overall"]["gen_li"] + \
            summary["overall"]["gen_range"] < 15.0
        # Full <= Sym on average: loop elimination pays for its checks
        assert summary["overall"]["full"] <= \
            summary["overall"]["sym_overhead"] + 1.0


class TestElimHarness:
    def test_ipa_dominates_full_on_the_spec_mimics(self):
        # li, doduc and spice2g6 are where ipa removes label-only stores
        # full cannot; gcc's sbrk obstacks are where it refuses them
        rows = {name: elim_row(name, scale=TINY)
                for name in ("022.li", "015.doduc", "013.spice2g6",
                             "001.gcc1.35")}
        for name, row in rows.items():
            assert row["ipa"] >= row["full"], name
        wins = [name for name, row in rows.items()
                if row["ipa_static"] > row["full_static"]]
        assert len(wins) >= 2, rows


class TestFigure3Harness:
    def test_hit_rate_bounds(self, evaluation):
        assert 0.0 <= evaluation["figure3"][128]["030.matrix300"] <= 1.0

    def test_bigger_segments_never_much_worse(self, evaluation):
        small = evaluation["figure3"][64]["030.matrix300"]
        large = evaluation["figure3"][1024]["030.matrix300"]
        assert large >= small - 0.02

    def test_locality_shape(self, evaluation):
        for row in evaluation["figure3"].values():
            assert list(row) == WORKLOAD_ORDER
        rates = {size: average(list(row.values()))
                 for size, row in evaluation["figure3"].items()}
        # locality improves with segment size...
        assert rates[128] > rates[32]
        # ...the 128-word hit rate is already high (the paper's choice)...
        assert rates[128] > 0.80
        # ...and growing segments past 128 words buys little (§3.1)
        assert rates[1024] - rates[128] < 0.15


class TestNopHarness:
    def test_linear_regression(self):
        slope, intercept = linear_regression([1, 2, 3], [2.0, 4.0, 6.0])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(0.0)

    def test_nop_overheads_increase(self, evaluation):
        assert list(evaluation["nop"]) == WORKLOAD_ORDER
        for name, row in evaluation["nop"].items():
            # overhead grows with inserted nops (positive slope)...
            assert row["slope"] > 0, name
            # ...monotonically at the ends of the sweep...
            assert row["nop32"] > row["nop2"], name
            # ...and residual sigma (cache alignment noise) is a modest
            # fraction of the overhead range, as in the paper's σ column
            spread = row["nop32"] - row["nop2"]
            assert row["sigma"] < max(spread, 1.0), name


class TestBaselines:
    def test_trap_factor(self, evaluation):
        # "too slow for practical use": four to five orders of magnitude
        assert evaluation["trap_factor"] > 10_000

    def test_hashtable_overheads(self, evaluation):
        hashes = evaluation["hashtable"]
        assert list(hashes) == WORKLOAD_ORDER
        # hash-table checks cost much more than the segmented bitmap
        for name, overhead in hashes.items():
            bitmap = evaluation["table1"][name]["BitmapInlineRegisters"]
            assert overhead > bitmap * 1.5, name
        # the worst cases reach into the hundreds of percent
        # (paper: 209-642)
        assert max(hashes.values()) > 150.0

    def test_hardware_capacity(self, evaluation):
        assert "watches 1 word" in evaluation["hardware_limit"]

    def test_vmprotect(self, evaluation):
        result = evaluation["vmprotect"]
        # page sharing causes false faults, making this approach slow
        assert result["false_faults"] > 0
        assert result["overhead"] > 100.0
        assert result["hits"] > 0


class TestSpaceAndBreakeven:
    def test_space_fraction_near_one_thirty_second(self):
        # at 0.15, matrix300's 192 data bytes round up to one 16-byte
        # bitmap block (8.33%), so this check runs at 0.4
        for name in ("022.li", "030.matrix300", "047.tomcatv"):
            row = measure_space(name, scale=0.4)
            # "roughly 3% of the total memory used by the program":
            # 1/32 = 3.125% plus segment rounding
            assert 0.025 <= row["fraction"] <= 0.08, name

    def test_breakeven_monotone_in_load_cost(self):
        fast = breakeven_full_fraction(0.05, 2.0)
        slow = breakeven_full_fraction(0.05, 8.0)
        assert 0.0 < fast < slow < 1.0

    def test_cost_model_consistency(self):
        for load_cost in (2.0, 4.0, 8.0):
            # at zero full lookups, caching is cheaper; at 100%, dearer
            assert cost_cache(0.0, 0.05, load_cost) < \
                cost_registers(0.0, load_cost)
            assert cost_cache(1.0, 0.05, load_cost) > \
                cost_registers(1.0, load_cost)
            # the crossover is where the costs meet
            point = breakeven_full_fraction(0.05, load_cost)
            assert abs(cost_cache(point, 0.05, load_cost)
                       - cost_registers(point, load_cost)) < 0.5

    def test_breakeven_ranges(self, evaluation):
        ranges = evaluation["breakeven"]
        assert set(ranges) == {"C", "F"}
        # a break-even point exists in the tens of percent
        for low, high in ranges.values():
            assert 5.0 < low < high < 60.0
        # FORTRAN's higher cache-miss rate lowers its break-even point
        assert ranges["F"][0] < ranges["C"][0]


class TestAblations:
    def test_cache_size(self, evaluation):
        # overheads stay in the same regime; cache effects are alignment
        # noise, not order-of-magnitude shifts (§3.3.1)
        values = list(evaluation["cache_size"].values())
        assert max(values) < 3 * max(min(values), 1.0)

    def test_window_bulk(self):
        results = sweep_window_bulk()
        # bulk spilling makes the *baseline* cheaper (fewer traps during
        # descent), the property the default relies on
        assert results[4]["baseline_cycles"] < results[1]["baseline_cycles"]

    def test_loop_safety(self, evaluation):
        results = evaluation["loop_safety"]
        optimistic = results["optimistic"]
        guarded = results["alias-guarded"]
        # the alias guard can only remove eliminations, never add them
        assert guarded["range"] <= optimistic["range"]
        assert guarded["li"] <= optimistic["li"]
        # the overflow guard changes nothing for in-range constant loops
        assert results["overflow-guarded"]["range"] == optimistic["range"]


class TestReportGenerator:
    def test_report_contains_all_sections(self, evaluation):
        report = render(evaluation)
        for marker in ("E1", "E4/E5", "E3", "E2", "E6", "E7", "E8",
                       "E9"):
            assert marker in report
        assert "Table 1" in report and "elimination" in report


class TestGoldenEvaluation:
    def test_simulated_numbers_match_the_golden(self, evaluation):
        """Every simulated number of the shared evaluation equals the
        committed one: a change that moves one must rewrite the golden
        (``PYTHONPATH=src python tests/golden.py``) and show the diff."""
        assert evaluation["scale"] == golden.SCALE
        with open(golden.PATH) as handle:
            assert golden.canonical(evaluation) == handle.read()

    def test_a_last_bit_difference_does_not_move_the_golden(self):
        """``sum()`` compensates rounding error since Python 3.12, so an
        average or regression of the evaluation may differ in its last
        bit between the interpreters CI runs: each float is pinned to
        fewer digits than that."""
        with open(golden.PATH) as handle:
            pinned = json.load(handle)
        floats = [value for value in floats_in(pinned) if value]
        assert len(floats) > 250
        for value in floats:
            for neighbour in (math.nextafter(value, math.inf),
                              math.nextafter(value, -math.inf)):
                assert golden.rounded(neighbour) == value


def floats_in(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from floats_in(item)
    elif isinstance(value, list):
        for item in value:
            yield from floats_in(item)
