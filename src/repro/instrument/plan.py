"""Optimization plan: what the §4 optimizer tells the rewriter to do.

The optimizer never rewrites program instructions — it only decides
which write checks to *omit* (and how they can be re-inserted at
runtime), which pre-header checks to add, and which control-flow
verification code is required.  This module is the data contract
between :mod:`repro.optimizer` (producer) and
:mod:`repro.instrument.rewriter` (consumer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: elimination kinds, as reported in Table 2
ELIM_SYMBOL = "symbol"
ELIM_LOOP_INVARIANT = "li"
ELIM_RANGE = "range"
#: interprocedural points-to/range elimination (repro.analysis)
ELIM_IPA = "ipa"

ELIM_KINDS = (ELIM_SYMBOL, ELIM_LOOP_INVARIANT, ELIM_RANGE, ELIM_IPA)


class PassStats:
    """Per-pass site accounting: seen / eliminated / guarded.

    ``guarded`` counts sites the pass considered but could only handle
    with a runtime guard (loop pre-header checks) or had to refuse
    outright (ipa alias refusals); either way the inline check survives
    in some form.
    """

    __slots__ = ("seen", "eliminated", "guarded")

    def __init__(self, seen: int = 0, eliminated: int = 0,
                 guarded: int = 0):
        self.seen = seen
        self.eliminated = eliminated
        self.guarded = guarded

    def as_dict(self) -> Dict[str, int]:
        return {"seen": self.seen, "eliminated": self.eliminated,
                "guarded": self.guarded}

    def __repr__(self) -> str:
        return "<pass seen=%d eliminated=%d guarded=%d>" % (
            self.seen, self.eliminated, self.guarded)


class PreheaderCheck:
    """A check block inserted before a loop header.

    ``kind`` is "li" (a standard write check on a loop-invariant address)
    or "range" (a superpage range check on a monotonic address range).
    ``lines`` is assembly text computing the address/bounds into the
    reserved registers and trapping with ``ta 0x45`` (loop id in %g6) on
    a potential hit.  ``anchor_index`` is the statement index of the
    loop header label; the block is inserted just before it, in the
    pre-header position the optimizer guaranteed dominates the loop.
    """

    __slots__ = ("loop_id", "kind", "anchor_index", "lines")

    def __init__(self, loop_id: int, kind: str, anchor_index: int,
                 lines: List[str]):
        self.loop_id = loop_id
        self.kind = kind
        self.anchor_index = anchor_index
        self.lines = lines


class OptimizationPlan:
    """Everything the rewriter needs to apply §4 optimizations."""

    def __init__(self):
        #: site id -> elimination kind (ELIM_*)
        self.eliminate: Dict[int, str] = {}
        #: (function, symbol name) -> site ids writing exactly that symbol
        self.symbol_sites: Dict[Tuple[str, str], List[int]] = {}
        #: loop id -> site ids whose checks the loop optimization removed
        self.loop_sites: Dict[int, List[int]] = {}
        #: pre-header check blocks
        self.preheaders: List[PreheaderCheck] = []
        #: statement indices (of prologue saves) after which the %fp
        #: shadow-stack push is inserted (§4.2)
        self.fp_push_indices: List[int] = []
        #: statement indices (of returns) before which the %fp
        #: shadow-stack pop/compare is inserted
        self.fp_check_indices: List[int] = []
        #: statement indices of indirect jumps (returns) needing target
        #: verification before they execute
        self.jmp_check_indices: List[int] = []
        #: pseudo-variable key -> StaticSym, from symbol promotion;
        #: pre-header code generation reads variables' home slots with it
        self.promoted: Dict = {}
        #: how many reserved registers this plan's code uses (report only)
        self.reserved_registers = 3
        #: site id -> human-readable provenance chain explaining why the
        #: pass eliminated the check (audit reports quote this verbatim)
        self.why_eliminated: Dict[int, str] = {}
        #: pass name ("symbol"/"loop"/"ipa") -> PassStats; populated by
        #: build_plan and reset at the start of every run
        self.pass_stats: Dict[str, PassStats] = {}
        #: site id -> static may-write fact from the ipa analysis:
        #:   None                      unknown target, may write anything
        #:   "heap"                    writes the sbrk arena only
        #:   ("frame", func)           writes func's stack frame only
        #:   [(name, func|None), ...]  writes within these symtab entries
        #: consumed by the watchpoint predicate pruner; only "ipa" plans
        #: populate it (empty dict otherwise)
        self.write_facts: Dict[int, object] = {}

    @property
    def uses_shadow_stack(self) -> bool:
        return bool(self.fp_push_indices)

    def merge_site(self, site: int, kind: str,
                   why: Optional[str] = None) -> None:
        """Record an elimination (first decision wins)."""
        if site in self.eliminate:
            return
        self.eliminate[site] = kind
        if why is not None:
            self.why_eliminated[site] = why

    def stats_for(self, pass_name: str) -> PassStats:
        """The (lazily created) statistics bucket for *pass_name*."""
        return self.pass_stats.setdefault(pass_name, PassStats())

    def reset_stats(self) -> None:
        """Drop all pass statistics (called at the top of build_plan)."""
        self.pass_stats.clear()

    def summary(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in ELIM_KINDS}
        for kind in self.eliminate.values():
            counts[kind] += 1
        return counts
