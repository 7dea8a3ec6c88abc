"""Order statistics shared by every phase of the benchmark."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

#: samples a tail statistic must leave above itself
TAIL_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it.

    That is the ``TAIL_BEYOND + 1``-th largest sample.  Returns the
    value, the percentile it sits at (share of samples at or below it)
    and the sample count, so every reported tail says what it is.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise ValueError("a tail needs more than %d samples, have %d"
                         % (TAIL_BEYOND, count))
    return {"value": ordered[count - TAIL_BEYOND - 1],
            "percentile": 100.0 * (count - TAIL_BEYOND) / count,
            "samples": count}


def summarize(samples: List[float]) -> Dict[str, Dict[str, float]]:
    """``{"p50": ..., "tail": ...}`` with sample counts."""
    return {"p50": {"value": median(samples), "percentile": 50.0,
                    "samples": len(samples)},
            "tail": tail(samples)}
