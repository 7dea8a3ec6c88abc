"""Tests for the disassembler."""

from repro.debugger import Debugger
from repro.machine.disasm import disassemble, disassemble_function

PROGRAM = """
int g;
int bump() { g = g + 1; return g; }
int main() { bump(); print(g); return 0; }
"""


def make_debugger(**kwargs):
    kwargs.setdefault("optimize", None)
    kwargs.setdefault("strategy", "Bitmap")
    return Debugger.for_source(PROGRAM, **kwargs)


class TestDisassembler:
    def test_function_listing_has_labels_and_addresses(self):
        debugger = make_debugger()
        text = debugger.disassemble("bump")
        assert "bump:" in text
        assert "0x000" in text
        assert "save %sp" in text

    def test_check_code_tagged(self):
        debugger = make_debugger()
        text = debugger.disassemble("bump")
        assert "! check" in text
        assert "! site" in text

    def test_pc_marker(self):
        debugger = make_debugger()
        # the loader leaves pc at the startup stub; its call and delay
        # slot step into main's first instruction
        debugger.step(2)
        text = debugger.disassemble("main")
        assert text.splitlines()[1].startswith("=> ")
        assert text.count("=>") == 1

    def test_active_patch_visible(self):
        debugger = Debugger.for_source(PROGRAM, optimize="full")
        before = debugger.disassemble("bump")
        assert "st " in before
        debugger.mrs.pre_monitor("g")
        after = debugger.disassemble("bump")
        # the known write was replaced by a ba,a to its patch block
        assert "ba,a" in after
        assert "! patch" in after

    def test_raw_disassemble_bounds(self):
        debugger = make_debugger()
        code = debugger.cpu.code
        text = disassemble(code, code.base, 4)
        assert len(text.splitlines()) >= 4
        # beyond the end: stops quietly
        text = disassemble(code, code.limit - 4, 100)
        assert len([ln for ln in text.splitlines()
                    if ln.strip().startswith("0x") or "=>" in ln]) == 1

    def test_program_level_listing(self):
        debugger = make_debugger()
        text = disassemble_function(debugger.session.program,
                                    debugger.cpu.code, "main")
        assert "call" in text
