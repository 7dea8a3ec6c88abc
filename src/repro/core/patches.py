"""Dynamic Kessler-patch management (§4), extracted from the MRS.

``PatchManager`` owns the runtime half of write-check elimination: when
``PreMonitor`` (or a loop pre-header hit) needs an eliminated check
back, the manager replaces the write instruction with the site's
annulled branch to its pre-assembled patch block
(``SiteRuntimeInfo.patch_insn``, built once per site, so every install
puts back the same object and compiled blocks that read it stay valid),
and restores the original instruction once the last activation reason
is dropped.  Activations are reference-counted per (site, reason) in
:attr:`PatchManager.reasons`, which is the only record of what is
active: a site is patched exactly when it has a reason.  The manager
adds two robustness properties:

* **fault injection**: installs and removals call
  :data:`~repro.faults.PATCH_INSTALL` / :data:`~repro.faults.PATCH_REMOVE`
  trip points before mutating code space, so a half-installed patch can
  be provoked deterministically in tests;
* **journaling**: when the caller passes an
  :class:`~repro.core.transactions.UndoJournal`, every mutation
  (refcount dicts, code-space slot) is recorded first, so a failed
  multi-site ``PreMonitor`` rolls back to a bit-identical patch state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.transactions import UndoJournal
from repro.faults import FaultPlan, PATCH_INSTALL, PATCH_REMOVE


class PatchManager:
    """Installs and removes dynamic write-check patches on one debuggee."""

    def __init__(self, cpu, patchable, faults: Optional[FaultPlan] = None):
        self.cpu = cpu
        #: site id -> SiteRuntimeInfo for every eliminated site
        self.patchable = patchable
        #: site id -> {reason: refcount} for currently active sites
        self.reasons: Dict[int, Dict[str, int]] = {}
        self.faults = faults

    # -- queries -----------------------------------------------------------

    def active_sites(self) -> List[int]:
        return sorted(self.reasons)

    def has_reason(self, site: int, reason: str) -> bool:
        return reason in self.reasons.get(site, {})

    # -- install / remove --------------------------------------------------

    def activate(self, site: int, reason: str,
                 journal: Optional[UndoJournal] = None) -> None:
        """Reference-count an activation; install the patch on 0 -> 1."""
        info = self.patchable.get(site)
        if info is None:
            return  # site was never eliminated; its inline check stands
        if self.faults is not None:
            self.faults.trip(PATCH_INSTALL, site=site, addr=info.addr,
                             patch_addr=info.patch_addr, reason=reason,
                             pc=self.cpu.pc)
        if journal is not None:
            journal.record_dict_entry(self.reasons, site, clone=dict)
        reasons = self.reasons.setdefault(site, {})
        if not reasons:
            if journal is not None:
                journal.record_code(self.cpu.code, info.addr)
            self.cpu.code.patch(info.addr, info.patch_insn)
        reasons[reason] = reasons.get(reason, 0) + 1

    def deactivate(self, site: int, reason: str,
                   journal: Optional[UndoJournal] = None) -> None:
        """Drop one activation reference; restore the original on 1 -> 0.

        A deactivation with no matching activation is a no-op (double
        ``PostMonitor`` must be harmless), and deliberately does not
        count as a fault-injection occurrence.
        """
        info = self.patchable.get(site)
        if info is None:
            return
        reasons = self.reasons.get(site)
        if not reasons or reason not in reasons:
            return
        if self.faults is not None:
            self.faults.trip(PATCH_REMOVE, site=site, addr=info.addr,
                             reason=reason, pc=self.cpu.pc)
        if journal is not None:
            journal.record_dict_entry(self.reasons, site, clone=dict)
        reasons[reason] -= 1
        if reasons[reason] <= 0:
            del reasons[reason]
        if not reasons:
            if journal is not None:
                journal.record_code(self.cpu.code, info.addr)
            self.cpu.code.patch(info.addr, info.original_insn)
            del self.reasons[site]
