"""EXPERIMENTS.md quotes the committed results.

Each bold figure of its headline table, each measured cell of its E1
and E4/E5 average tables, the E7 space range and the ablation figures
are read back from ``results/results_<verb>.txt`` — the files CI
regenerates byte-identically — at the precision the document prints
them.  A range such as ``94–350%`` is the minimum and maximum of the
matching column over the ten workloads.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

NUMBER = re.compile(r"\d[\d,]*(?:\.\d+)?")
PROGRAM = re.compile(r"^(\([CF]\) )?\d{3}\.[\w.]+$")


def results(verb):
    path = ROOT / "results" / ("results_%s.txt" % verb)
    return path.read_text(encoding="utf-8")


def rows(verb):
    """Row label (the text before the first colon or run of spaces) ->
    the percentages on that row of ``results_<verb>.txt``."""
    table = {}
    for line in results(verb).splitlines():
        values = re.findall(r"(-?\d+(?:\.\d+)?)%", line)
        if values:
            label = re.split(r"\s{2,}|:", line.strip())[0]
            table.setdefault(label, [float(value) for value in values])
    return table


def column(verb, index):
    """Column *index* of every workload row of ``results_<verb>.txt``."""
    return [values[index] for label, values in rows(verb).items()
            if PROGRAM.match(label)]


def span(values):
    return [min(values), max(values)]


def section(title):
    """The body of the EXPERIMENTS.md section headed ``## <title>...``."""
    match = re.search(r"^## %s[^\n]*\n(.*?)(?=^## |\Z)" % re.escape(title),
                      DOC, re.M | re.S)
    assert match, "EXPERIMENTS.md has no section %r" % title
    return match.group(1)


def table_rows(text):
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in text.splitlines() if line.startswith("|")]


def assert_quotes(text, values):
    """*text* quotes *values*, each at the precision it is printed."""
    figures = NUMBER.findall(text)
    assert len(figures) == len(values), (text, values)
    printed = [figure.replace(",", "") for figure in figures]
    expected = ["%.*f" % (len(figure.partition(".")[2]), value)
                for figure, value in zip(printed, values)]
    assert printed == expected, text


#: headline claim (its first words) -> the values its bold figures quote
HEADLINE = {
    "Checking every write":
        lambda: [rows("table1")["OVERALL AVERAGE"][3]],
    "Dataflow analysis eliminates":
        lambda: [rows("table2")["OVERALL AVERAGE"][3]],
    "Optimizations reduce":
        lambda: [rows("table2")["OVERALL AVERAGE"][6]],
    "Scientific programs":
        lambda: [min(rows("table2")["(F) " + name][3] for name in (
            "030.matrix300", "020.nasker", "047.tomcatv", "042.fpppp"))],
    "dbx trap-per-instruction":
        lambda: [float(re.search(r"slowdown: (\d+)x",
                                 results("baselines")).group(1))],
    "Hash-table":
        lambda: span(column("baselines", 0)),
    "Segmented bitmap space":
        lambda: span(column("space", 0)),
}


def headline_rows():
    table = table_rows(section("Headline claims"))
    return [(claim, measured) for claim, _paper, measured, _verdict
            in table[2:]]


class TestHeadlineTable:
    def test_every_bold_figure_has_a_check(self):
        bold = [claim for claim, measured in headline_rows()
                if "**" in measured]
        assert len(bold) == len(HEADLINE)
        assert all(any(claim.startswith(key) for key in HEADLINE)
                   for claim in bold)

    @pytest.mark.parametrize("key", sorted(HEADLINE))
    def test_bold_figures_quote_the_results(self, key):
        (measured,) = [measured for claim, measured in headline_rows()
                       if claim.startswith(key)]
        bold = " ".join(re.findall(r"\*\*(.+?)\*\*", measured))
        assert_quotes(bold, HEADLINE[key]())


@pytest.mark.parametrize("title,verb,columns", [
    ("E1 ", "table1", 6), ("E4/E5 ", "table2", 8)])
def test_average_tables_quote_the_results(title, verb, columns):
    averages = rows(verb)
    measured = [row for row in table_rows(section(title))
                if "(measured)" in row[0]]
    assert [row[0].split()[0] for row in measured] == \
        ["C", "F", "overall"]
    for row in measured:
        label = {"C": "C AVERAGE", "F": "FORTRAN AVERAGE",
                 "overall": "OVERALL AVERAGE"}[row[0].split()[0]]
        assert len(row) == columns + 1
        assert_quotes(" ".join(row[1:]), averages[label])


def test_space_range_quotes_the_results():
    quoted = re.search(r"— ([\d.]+–[\d.]+)%", section("E7 ")).group(1)
    assert_quotes(quoted, span(column("space", 0)))


def test_ablation_figures_quote_the_results():
    text = " ".join(section("Ablations").split())
    cache = re.search(r"\*\*cache size\*\* \([^)]*\): ([^—]*)—", text)
    assert_quotes(cache.group(1), [rows("ablations")["%d KB" % size][0]
                                   for size in (16, 64, 256)])
    safety = re.search(r"optimistic = (\d+) range.*?`guard_aliases` = "
                       r"(\d+).*?`guard_overflow` = (\d+)", text)
    lines = dict(re.findall(r"^\s*(\S+)\s+(\{.*\})$",
                            results("ablations"), re.M))
    assert_quotes(" ".join(safety.groups()), [
        ast.literal_eval(lines[label])["range"]
        for label in ("optimistic", "alias-guarded", "overflow-guarded")])
