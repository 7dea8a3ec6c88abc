"""End-to-end tests for the trace-backed soundness auditor
(``repro audit``): clean certification under every mode, monitor
auto-selection, and the ``analysis.unsound`` fault injection being
provably caught with its provenance chain."""

import pytest

from repro.analysis.audit import (audit_source, audit_workload,
                                  pick_monitors)
from repro.errors import (AuditError, ReproError,
                          UnsoundEliminationError)
from repro.faults import ANALYSIS_UNSOUND, FaultPlan

PROGRAM = """
int counts[12];
int total;
int *cursor;

int bump(int *dest, int amount) {
    *dest = *dest + amount;   /* store through a parameter pointer:  */
    return *dest;             /* only the ipa pass can eliminate it  */
}

int main() {
    int round;
    cursor = &total;
    for (round = 0; round < 4; round = round + 1) {
        bump(cursor, round + 1);
        counts[round] = total;
    }
    print(total);
    return 0;
}
"""


class TestCleanAudits:
    @pytest.mark.parametrize("mode", [None, "sym", "full", "ipa"])
    def test_source_certified_under_every_mode(self, mode):
        report = audit_source(PROGRAM, mode=mode)
        assert report.ok
        assert report.hits_verified > 0
        if mode is not None:
            assert report.sites_eliminated > 0
        rendered = report.render()
        assert "audit OK" in rendered

    def test_explicit_monitors(self):
        report = audit_source(PROGRAM, mode="ipa",
                              monitors=[("total", None)])
        assert report.monitors == [("total", None)]
        # one *cursor store per round, through the ipa-eliminated site
        assert report.hits_verified == 4

    def test_workload_audit_ipa(self):
        report = audit_workload("023.eqntott", mode="ipa", scale=0.1)
        assert report.ok and report.hits_verified > 0

    def test_unknown_workload_is_structured(self):
        with pytest.raises(AuditError) as excinfo:
            audit_workload("999.nonesuch")
        assert excinfo.value.reason == "unknown_workload"
        assert isinstance(excinfo.value, ReproError)


class TestMonitorSelection:
    def test_picks_most_written_globals(self):
        from repro.minic import compile_source
        from repro.session import run_uninstrumented

        asm = compile_source(PROGRAM)
        _code, loaded = run_uninstrumented(asm, record_writes=True)
        monitors = pick_monitors(loaded.program.symtab,
                                 loaded.cpu.write_trace)
        names = [name for name, _func in monitors]
        assert "counts" in names or "total" in names


class TestUnsoundInjection:
    def test_fault_injected_elimination_is_caught(self):
        # trip the first ipa elimination so it skips re-insertion
        # registration; the auditor must catch the swallowed hits and
        # name the site, pass and provenance chain
        faults = FaultPlan.nth(ANALYSIS_UNSOUND, 0)
        with pytest.raises(UnsoundEliminationError) as excinfo:
            audit_source(PROGRAM, mode="ipa", faults=faults,
                         monitors=[("counts", None), ("total", None)])
        err = excinfo.value
        assert err.site is not None
        assert err.elim_pass == "ipa"
        assert "UNSOUND" in err.provenance
        assert err.provenance.startswith("ipa:")
        assert err.addr is not None
        assert isinstance(err, AuditError)

    def test_clean_plan_not_flagged(self):
        # same program, same monitors, no injection: certifies
        report = audit_source(PROGRAM, mode="ipa",
                              monitors=[("counts", None),
                                        ("total", None)])
        assert report.ok


class TestAuditCli:
    def test_cli_audit_file(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "prog.c"
        path.write_text(PROGRAM)
        rc = main(["audit", str(path), "--mode", "ipa"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit OK (mode=ipa)" in out

    def test_cli_audit_workload(self, capsys):
        from repro.cli import main
        rc = main(["audit", "--workload", "023.eqntott", "--mode", "ipa",
                   "--scale", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit OK (mode=ipa)" in out
        assert "hits verified:   0" not in out

    def test_cli_structured_error_nonzero_exit(self, capsys):
        from repro.cli import main
        rc = main(["audit", "--workload", "999.nonesuch"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "audit failed" in err
        assert "unknown_workload" in err
