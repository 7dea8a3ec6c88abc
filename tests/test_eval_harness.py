"""Tests for the evaluation harness itself (tiny scales)."""

import pytest

from repro.eval.breakeven import (breakeven_full_fraction,
                                  compute_breakeven, cost_cache,
                                  cost_registers)
from repro.eval.elim import measure_workload as elim_row
from repro.eval.figure3 import measure_hit_rate
from repro.eval.nop_experiment import linear_regression, measure_workload
from repro.eval.overhead import WorkloadBench, average
from repro.eval.paper_data import TABLE1, TABLE1_COLUMNS, TABLE2
from repro.eval.space import measure_workload as measure_space
from repro.eval.table1 import format_table, measure_workload as table1_row
from repro.eval.table1 import summarize
from repro.eval.table2 import measure_workload as table2_row

TINY = 0.2


class TestWorkloadBench:
    def test_baseline_cached(self):
        bench = WorkloadBench("042.fpppp", scale=TINY)
        first = bench.baseline()
        second = bench.baseline()
        assert first is second

    def test_overhead_positive_for_enabled_checks(self):
        bench = WorkloadBench("042.fpppp", scale=TINY)
        assert bench.overhead("Bitmap", enabled=True) > 5.0

    def test_output_mismatch_detected(self):
        bench = WorkloadBench("042.fpppp", scale=TINY)
        run = bench.run_instrumented("Cache", enabled=True)
        assert run.output == bench.baseline().output

    def test_average(self):
        assert average([1.0, 2.0, 3.0]) == 2.0
        assert average([]) == 0.0


class TestTable1Harness:
    def test_row_has_all_columns(self):
        row = table1_row("042.fpppp", scale=TINY)
        assert set(row) == set(TABLE1_COLUMNS)

    def test_disabled_cheapest(self):
        row = table1_row("030.matrix300", scale=TINY)
        assert row["Disabled"] < row["Bitmap"]
        assert row["Disabled"] < row["Cache"]

    def test_formatting_and_summary(self):
        rows = {"042.fpppp": table1_row("042.fpppp", scale=TINY)}
        text = format_table(rows)
        assert "042.fpppp" in text and "%" in text
        summary = summarize(rows)
        assert "overall" in summary and "F" in summary


class TestTable2Harness:
    def test_row_fields(self):
        row = table2_row("030.matrix300", scale=TINY)
        assert row["total"] == pytest.approx(
            row["sym"] + row["li"] + row["range"], abs=0.1)
        assert row["total"] >= 90.0
        assert row["full"] < row["sym_overhead"] + 1.0

    def test_paper_reference_data_complete(self):
        assert set(TABLE1) == set(TABLE2)
        assert len(TABLE1) == 10


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
    def test_hit_rate_bounds(self):
        rate = measure_hit_rate("030.matrix300", 128, scale=TINY)
        assert 0.0 <= rate <= 1.0

    def test_bigger_segments_never_much_worse(self):
        small = measure_hit_rate("030.matrix300", 64, scale=TINY)
        large = measure_hit_rate("030.matrix300", 1024, scale=TINY)
        assert large >= small - 0.02


class TestNopHarness:
    def test_linear_regression(self):
        slope, intercept = linear_regression([1, 2, 3], [2.0, 4.0, 6.0])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(0.0)

    def test_nop_overheads_increase(self):
        row = measure_workload("042.fpppp", scale=TINY)
        assert row["nop32"] > row["nop2"]
        assert row["slope"] > 0


class TestSpaceAndBreakeven:
    def test_space_fraction_near_one_thirty_second(self):
        row = measure_space("030.matrix300", scale=TINY)
        assert 0.02 < row["fraction"] < 0.10

    def test_breakeven_monotone_in_load_cost(self):
        fast = breakeven_full_fraction(0.05, 2.0)
        slow = breakeven_full_fraction(0.05, 8.0)
        assert 0.0 < fast < slow < 1.0

    def test_cost_model_consistency(self):
        # at zero full lookups, caching is cheaper; at 100%, dearer
        assert cost_cache(0.0, 0.05, 4.0) < cost_registers(0.0, 4.0)
        assert cost_cache(1.0, 0.05, 4.0) > cost_registers(1.0, 4.0)
        ranges = compute_breakeven()
        assert set(ranges) == {"C", "F"}


class TestReportGenerator:
    def test_report_contains_all_sections(self):
        from repro.eval.report import generate
        report = generate(scale=0.15)
        for marker in ("E1", "E4/E5", "E3", "E2", "E6", "E7", "E8",
                       "E9"):
            assert marker in report
        assert "Table 1" in report and "elimination" in report
