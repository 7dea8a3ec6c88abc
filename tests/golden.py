"""The simulated clock, pinned: ``report.measure(0.15)`` as committed JSON.

Simulated cycles are deterministic, so the evaluation tier-1 shares
(``tests/test_eval_harness.py``'s ``evaluation`` fixture) must reproduce
``tests/golden_evaluation.json`` exactly, host time excepted.  Floats
are pinned to :data:`DIGITS` significant digits: the averages and
regressions over the cycle counts are summed with ``sum()``, which
compensates rounding error since Python 3.12, so their last bits
depend on the interpreter.  After a change that moves a simulated
number on purpose, rewrite the golden and review the diff this prints:

    PYTHONPATH=src python tests/golden.py
"""

import difflib
import json
import os
import sys

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden_evaluation.json")
#: the scale of the shared evaluation
SCALE = 0.15
#: significant digits a float keeps in the golden
DIGITS = 10


def rounded(value):
    """*value* with every float in it rounded to :data:`DIGITS`
    significant digits."""
    if isinstance(value, float):
        return float("%.*g" % (DIGITS, value))
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(item) for item in value]
    return value


def canonical(results) -> str:
    """*results* of ``measure()`` without its host time, as JSON text."""
    pinned = {key: rounded(value) for key, value in results.items()
              if key != "seconds"}
    return json.dumps(pinned, indent=1, sort_keys=True) + "\n"


def main() -> None:
    from repro.eval.report import measure

    new = canonical(measure(SCALE))
    old = ""
    if os.path.exists(PATH):
        with open(PATH) as handle:
            old = handle.read()
    name = os.path.relpath(PATH)
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(True), new.splitlines(True), name, name))
    with open(PATH, "w") as handle:
        handle.write(new)


if __name__ == "__main__":
    main()
