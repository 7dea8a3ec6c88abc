"""README.md's Python examples run as written.

Every ```python block that starts with an import runs, in order and in
one namespace (a later block may use a name an earlier one imported),
so a README example cannot drift from the API it shows.  Blocks that
start otherwise are fragments of a longer session and are not run.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def runnable_blocks():
    """(first line number, source) of each block that starts with an
    import, in README order."""
    text = README.read_text()
    blocks = []
    for match in _BLOCK.finditer(text):
        source = match.group(1)
        if re.match(r"(from|import)\s", source):
            line = text.count("\n", 0, match.start(1)) + 1
            blocks.append((line, source))
    return blocks


def test_readme_python_blocks_run(capsys):
    blocks = runnable_blocks()
    assert len(blocks) >= 4
    namespace = {"__name__": "readme"}
    for line, source in blocks:
        # the line offset makes a traceback point into README.md
        code = compile("\n" * (line - 1) + source, str(README), "exec")
        exec(code, namespace)
    assert "truncated" in capsys.readouterr().out
