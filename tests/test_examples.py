"""Every script in ``examples/``, each a documented end-to-end use of
the public API, runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(name for name in os.listdir(os.path.join(ROOT, "examples"))
                  if name.endswith(".py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
