"""Seeded inputs for the three phases.

Every input the benchmark feeds ``repro`` is drawn here from the run's
seed; the same seed gives the same inputs.  The pools are fixed so
that runs with different seeds still compare like with like:

* the table sweep always holds 023.eqntott and 020.nasker and one
  program from each pair in ``TABLE_PAIRS``.  The two programs of a
  pair have nearly the same mean simulated overhead and host cost, so
  a different seed draws a different program set without moving the
  sweep's averages much;
* every seed's debug sessions and recordings use the whole pool in a
  seeded order, each session program with its two breakpoints armed in
  both orders, so percentiles over a run mix the same programs in the
  same proportions.  The pools hold an odd number of programs: each
  program contributes the same number of samples, so the median falls
  inside one program's cluster of samples rather than in the gap
  between two clusters, where it would jump from run to run.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.workloads import WORKLOADS, workload_source

#: Table 1 columns plus the Table 2 ``Full`` plan (BitmapInlineRegisters)
CONFIGS = ("Disabled", "Bitmap", "BitmapInline", "BitmapInlineRegisters",
           "Cache", "CacheInline", "Full")

TABLE_ALWAYS = ("023.eqntott", "020.nasker")
TABLE_PAIRS = (("001.gcc1.35", "022.li"),
               ("008.espresso", "042.fpppp"),
               ("015.doduc", "013.spice2g6"),
               ("030.matrix300", "047.tomcatv"))

#: heavy sweep: each program runs 0.15-1.0M instructions, large enough
#: that execution, not block compile, takes most of the sweep; within a
#: pair the scales also match the host time of the program's cells
HEAVY_SCALE = {
    "023.eqntott": 1.5, "020.nasker": 0.75,
    "001.gcc1.35": 0.525, "022.li": 0.75,
    "008.espresso": 3.75, "042.fpppp": 1.05,
    "015.doduc": 0.375, "013.spice2g6": 0.825,
    "030.matrix300": 0.7875, "047.tomcatv": 0.5625,
}
#: light sweep (a phase another workload carries): one pair, small runs
LIGHT_SCALE = {"023.eqntott": 0.6, "020.nasker": 0.4,
               "008.espresso": 0.313, "030.matrix300": 0.472}
LIGHT_PAIR = ("008.espresso", "030.matrix300")


class Watch(NamedTuple):
    """One data breakpoint: a watchable expression and an optional
    condition ``(mask, residue)`` meaning ``($value & mask) == residue``."""

    expr: str
    mask: Optional[Tuple[int, int]] = None

    @property
    def condition(self) -> Optional[str]:
        if self.mask is None:
            return None
        return "($value & %d) == %d" % self.mask

    def fires(self, value: int) -> bool:
        return self.mask is None or (value & self.mask[0]) == self.mask[1]


class SessionPlan(NamedTuple):
    """One debug session: a program, the breakpoint sets it cycles
    through, how many stops it takes before replacing the set, and
    after how many stops it disconnects (if the program has not exited
    by then)."""

    program: str
    scale: float
    schedule: Tuple[Watch, ...]
    every: int
    max_stops: int


#: program, scale, candidate breakpoints (each written 3-60 times)
SESSION_POOL = (
    ("023.eqntott", 0.15, (Watch("__seed", (3, 0)), Watch("__seed"))),
    ("008.espresso", 0.15, (Watch("col_count[2]"), Watch("col_count[5]"))),
    ("001.gcc1.35", 0.1, (Watch("node_count", (7, 0)),
                          Watch("__seed", (15, 0)))),
    ("022.li", 0.1, (Watch("hp", (15, 0)), Watch("hp", (31, 0)))),
    ("030.matrix300", 0.15, (Watch("c[3]"), Watch("c[10]"))),
    ("020.nasker", 0.15, (Watch("rowsum[1]"), Watch("kc[2]"))),
    ("013.spice2g6", 0.15, (Watch("y[8]", (1, 0)), Watch("x[3]"))),
    ("047.tomcatv", 0.15, (Watch("rx[8]"), Watch("xg[7]"))),
    ("042.fpppp", 0.2, (Watch("gout[3]"), Watch("gout[6]"))),
)

#: every session replaces its breakpoint set after this many stops and
#: disconnects after SESSION_STOPS stops; fixed, so that every seed
#: gives the same share of continues that follow a set replacement.
#: Continue times spread from 3 to 60 ms around their median, so its
#: sampling error is large; 16 stops rather than 8 give 60% more
#: continues for the same launches and halved that error.
SESSION_EVERY = 4
SESSION_STOPS = 16

#: program, watched expression, scale: recordings of ~0.2-0.3 s
TRAVEL_POOL = (
    ("023.eqntott", "__seed", 0.3),
    ("022.li", "hp", 0.1),
    ("001.gcc1.35", "node_count", 0.1),
    ("030.matrix300", "c[24]", 0.5),
    ("013.spice2g6", "y[8]", 0.15),
    ("020.nasker", "rowsum[1]", 0.2),
    ("008.espresso", "col_count[3]", 0.3),
)
#: instructions between keyframes
TRAVEL_STRIDE = 2000


class Inputs(NamedTuple):
    seed: int
    tables: List[Tuple[str, float]]
    light_tables: List[Tuple[str, float]]
    sessions: List[SessionPlan]
    travel: List[Tuple[str, str, float]]


def draw(seed: int) -> Inputs:
    rng = random.Random(seed)
    picks = [rng.choice(pair) for pair in TABLE_PAIRS]
    tables = list(TABLE_ALWAYS) + picks
    rng.shuffle(tables)
    light = list(TABLE_ALWAYS) + [rng.choice(LIGHT_PAIR)]
    rng.shuffle(light)
    plans = [SessionPlan(program, scale, schedule, SESSION_EVERY,
                         SESSION_STOPS)
             for program, scale, watches in SESSION_POOL
             for schedule in (watches, watches[::-1])]
    travel = list(TRAVEL_POOL)
    rng.shuffle(travel)
    return Inputs(seed, [(name, HEAVY_SCALE[name]) for name in tables],
                  [(name, LIGHT_SCALE[name]) for name in light],
                  plans, travel)


def session_order(inputs: Inputs):
    """Endless seeded session sequence: every plan once per round, each
    round in a fresh order."""
    rng = random.Random(inputs.seed * 7919 + 1)
    while True:
        plans = list(inputs.sessions)
        rng.shuffle(plans)
        yield from plans


def sources(inputs: Inputs) -> Dict[Tuple[str, float], str]:
    """Generate every mini-C source the run needs."""
    wanted = set(inputs.tables) | set(inputs.light_tables)
    wanted.update((plan.program, plan.scale) for plan in inputs.sessions)
    wanted.update((name, scale) for name, _expr, scale in inputs.travel)
    return {key: workload_source(*key) for key in sorted(wanted)}


def lang(program: str) -> str:
    return WORKLOADS[program].lang
