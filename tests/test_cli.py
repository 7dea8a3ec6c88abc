"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

PROGRAM = """
int counter;
int main() {
    counter = 1;
    counter += 41;
    print(counter);
    return 0;
}
"""


#: tests/test_replay.py's program: six writes to total, one per grid cell
REPLAY_PROGRAM = """
int total;
int grid[8];

int bump(int k) {
    total = total + k;
    return total;
}

int main() {
    register int i;
    for (i = 0; i < 6; i = i + 1) {
        bump(i);
        grid[i] = total;
    }
    print(total);
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.c"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def replay_file(tmp_path):
    path = tmp_path / "replay.c"
    path.write_text(REPLAY_PROGRAM)
    return str(path)


class TestRunCommand:
    def test_run_with_watch(self, source_file, capsys):
        assert main(["run", source_file, "--watch", "counter"]) == 0
        out = capsys.readouterr().out
        assert "42" in out
        assert "watch counter" in out and "2 hit(s)" in out
        assert "last value 42" in out

    def test_run_without_optimization(self, source_file, capsys):
        assert main(["run", source_file, "--optimize", "none",
                     "--strategy", "Cache", "--watch", "counter"]) == 0
        assert "2 hit(s)" in capsys.readouterr().out

    def test_stats_output(self, source_file, capsys):
        assert main(["run", source_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "check" in out

    def test_exit_reason_printed(self, source_file, capsys):
        main(["run", source_file])
        assert "-- exited" in capsys.readouterr().out


class TestAsmCommand:
    def test_plain_assembly(self, source_file, capsys):
        assert main(["asm", source_file]) == 0
        out = capsys.readouterr().out
        assert ".proc main" in out and ".stabs" in out

    def test_instrumented_assembly(self, source_file, capsys):
        assert main(["asm", source_file, "--instrument", "Bitmap"]) == 0
        out = capsys.readouterr().out
        assert "__mrs_check_w4" in out
        assert "! check" in out


class TestReplayCommand:
    def test_back_one_walks_exactly_one_hit(self, replay_file, capsys):
        assert main(["replay", replay_file, "--watch", "total",
                     "--back", "1"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("-- reverse-continue")]
        assert lines == ["-- reverse-continue: total = 15 "
                         "(instruction 652)"]

    def test_last_write_scans_from_the_end_of_the_recording(
            self, replay_file, capsys):
        assert main(["replay", replay_file, "--watch", "grid[4]",
                     "--last-write", "total"]) == 0
        out = capsys.readouterr().out
        recorded = int(out.split("-- recorded ")[1].split()[0])
        answer = [line for line in out.splitlines()
                  if line.startswith("-- last-write total:")]
        assert len(answer) == 1 and answer[0].endswith("10 -> 15  [scan]")
        index = int(answer[0].split("instruction ")[1].split(":")[0])
        assert 0 < index < recorded
        assert "at the start of the recording" not in out

    def test_verify_against_a_saved_trace(self, replay_file, tmp_path,
                                          capsys):
        saved = tmp_path / "trace.bin"
        assert main(["record", replay_file, "--watch", "total",
                     "-o", str(saved)]) == 0
        assert main(["replay", replay_file, "--watch", "total",
                     "--back", "0", "--verify", str(saved)]) == 0
        assert "byte-identical" in capsys.readouterr().out

        data = bytearray(saved.read_bytes())
        data[len(data) // 2] ^= 0x01
        flipped = tmp_path / "flipped.bin"
        flipped.write_bytes(bytes(data))
        assert main(["replay", replay_file, "--watch", "total",
                     "--verify", str(flipped)]) == 1
        assert "DIVERGED" in capsys.readouterr().out


class TestEvalCommands:
    def test_breakeven(self, capsys):
        assert main(["breakeven"]) == 0
        assert "break-even" in capsys.readouterr().out

    def test_space_small(self, capsys):
        assert main(["space", "--scale", "0.2"]) == 0
        assert "%" in capsys.readouterr().out


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("run", "asm", "table1", "table2", "figure3",
                        "nop", "baselines", "space", "breakeven",
                        "ablations"):
            assert command in text
