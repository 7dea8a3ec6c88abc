"""The analysis/patching tool: inserts write checks into assembly.

This is the paper's "extra processing stage between the compiler and
the assembler" (§2.1).  It consumes the compiler's assembly (as parsed
statements), numbers the write sites, inserts the chosen strategy's
check code after each unchecked write, materializes Kessler-style patch
blocks for checks the optimizer eliminated (§4), inserts pre-header
check blocks and control-flow verification code from the optimization
plan, and appends the monitor library.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.asm.assembler import Program, assemble
from repro.asm.ast import AsmInsn, Label, Statement
from repro.asm.parser import parse
from repro.core.layout import MonitorLayout
from repro.instrument.plan import OptimizationPlan
from repro.instrument.strategies import (CheckStrategy, address_computation,
                                         make_strategy)
from repro.instrument.writes import (InstrumentError, WriteSite,
                                     check_cc_liveness,
                                     enumerate_write_sites)
from repro.isa import instructions as I


def _parse_tagged(lines: List[str], tag: str) -> List[Statement]:
    text = "\t.tag %s\n" % tag + "\n".join("\t" + ln if not
                                           ln.endswith(":") else ln
                                           for ln in lines) + "\n"
    return parse(text)


class SiteRuntimeInfo:
    """Post-assembly info needed to patch one eliminated site: the
    original write and the one ``ba,a`` to its patch block that every
    activation installs in its place."""

    __slots__ = ("site", "addr", "patch_addr", "original_insn",
                 "patch_insn")

    def __init__(self, site: int, addr: int, patch_addr: int,
                 original_insn: I.Instruction):
        self.site = site
        self.addr = addr
        self.patch_addr = patch_addr
        self.original_insn = original_insn
        self.patch_insn = I.BranchInsn("a", patch_addr, annul=True)
        self.patch_insn.tag = "patch"


class InstrumentResult:
    """Instrumented statements plus all the metadata the MRS needs."""

    def __init__(self, statements: List[Statement],
                 sites: List[WriteSite], strategy: CheckStrategy,
                 plan: Optional[OptimizationPlan]):
        self.statements = statements
        self.sites = sites
        self.strategy = strategy
        self.plan = plan if plan is not None else OptimizationPlan()
        self.program: Optional[Program] = None
        #: site id -> SiteRuntimeInfo for every *eliminated* site
        self.patchable: Dict[int, SiteRuntimeInfo] = {}

    @property
    def layout(self) -> MonitorLayout:
        return self.strategy.layout

    def assemble(self, **kwargs) -> Program:
        """Assemble the instrumented statements and resolve site info."""
        program = assemble(self.statements, **kwargs)
        self.program = program
        site_addr: Dict[int, int] = {}
        site_insn: Dict[int, I.Instruction] = {}
        for index, insn in enumerate(program.insns):
            if insn.site is not None and insn.tag == "orig" and \
                    insn.site not in site_addr:
                site_addr[insn.site] = program.text_base + 4 * index
                site_insn[insn.site] = insn
        for site_id in self.plan.eliminate:
            patch_label = ".Lmrs_patch_%d" % site_id
            if patch_label not in program.labels:
                raise InstrumentError("missing patch block for site %d"
                                      % site_id)
            self.patchable[site_id] = SiteRuntimeInfo(
                site_id, site_addr[site_id], program.labels[patch_label],
                site_insn[site_id])
        return program


class Rewriter:
    def __init__(self, strategy: CheckStrategy,
                 plan: Optional[OptimizationPlan] = None,
                 monitor_reads: bool = False):
        self.strategy = strategy
        self.plan = plan if plan is not None else OptimizationPlan()
        self.monitor_reads = monitor_reads

    def rewrite(self, statements: List[Statement],
                lang: str = "C") -> InstrumentResult:
        sites = enumerate_write_sites(statements, lang)
        check_cc_liveness(statements)
        eliminated = self.plan.eliminate
        # statement index -> statements to insert after / before it
        after: Dict[int, List[Statement]] = {}
        before: Dict[int, List[Statement]] = {}
        patch_sections: List[Statement] = []

        for site in sites:
            if site.site in eliminated:
                ret_label = ".Lmrs_ret_%d" % site.site
                after.setdefault(site.index, []).append(
                    Label(ret_label, site.stmt.line_no))
                patch_sections.extend(self._patch_block(site, ret_label))
            else:
                lines = self.strategy.site_check(site)
                after.setdefault(site.index, []).extend(
                    _parse_tagged(lines, "check"))

        if self.monitor_reads:
            # read checks go *before* the load: a load may overwrite its
            # own base register, and unlike stores there is no wild-jump
            # reason to place the check afterwards (§2.1)
            self._insert_read_checks(statements, before)

        if (self.plan.uses_shadow_stack or self.plan.eliminate) and \
                self.strategy.name.startswith("Cache"):
            raise InstrumentError(
                "optimization plans reserve %m1 for the %fp shadow "
                "stack and %m0 for scratch; use a non-Cache strategy")

        for pre in self.plan.preheaders:
            tag = "phead_%s" % pre.kind
            stmts = _parse_tagged(pre.lines, tag)
            before.setdefault(pre.anchor_index, []).extend(stmts)
        for index in self.plan.fp_push_indices:
            after.setdefault(index, []).extend(
                _parse_tagged(self._fp_push_lines(), "fpcheck"))
        for index in self.plan.fp_check_indices:
            before.setdefault(index, []).extend(
                _parse_tagged(self._fp_check_lines(index), "fpcheck"))
        for index in self.plan.jmp_check_indices:
            before.setdefault(index, []).extend(
                _parse_tagged(self._jmp_check_lines(index), "jmpcheck"))

        output: List[Statement] = []
        for index, stmt in enumerate(statements):
            if index in before:
                output.extend(before[index])
            output.append(stmt)
            if index in after:
                output.extend(after[index])

        output.extend(parse(self.strategy.library()))
        if patch_sections:
            output.extend(parse("\t.text\n"))
            output.extend(patch_sections)
        return InstrumentResult(output, sites, self.strategy, self.plan)

    # -- pieces ------------------------------------------------------------

    def _patch_block(self, site: WriteSite, ret_label: str
                     ) -> List[Statement]:
        """Kessler-style write-check patch for an eliminated site (§4).

        The patch executes the displaced store, runs a standard check,
        and branches back to the instruction after the site.  Activation
        replaces the site's store with ``ba,a`` to this block.
        """
        stmts: List[Statement] = [Label(".Lmrs_patch_%d" % site.site)]
        displaced = AsmInsn(site.stmt.mnemonic, site.stmt.ops,
                            line_no=site.stmt.line_no, tag="orig",
                            site=site.site)
        stmts.append(displaced)
        skip = ".Lmrs_pskip_%d" % site.site
        lines = [
            "tst %g2",
            "bne %s" % skip,
            "nop",
            address_computation(site.stmt.ops[1]),
            "call __mrs_check_w%d" % site.width,
            "nop",
            "%s:" % skip,
            "ba %s" % ret_label,
            "nop",
        ]
        stmts.extend(_parse_tagged(lines, "patch"))
        return stmts

    def _insert_read_checks(self, statements: List[Statement],
                            before: Dict[int, List[Statement]]) -> None:
        """Optional §5 extension: monitor read instructions too."""
        read_site = 1 << 20  # read pseudo-sites, distinct label space
        prev: Optional[AsmInsn] = None
        for index, stmt in enumerate(statements):
            if isinstance(stmt, AsmInsn) and stmt.is_load() and \
                    stmt.tag == "orig":
                if prev is not None and prev.is_dcti():
                    raise InstrumentError(
                        "load in a delay slot cannot be read-checked "
                        "(line %d)" % stmt.line_no)
                width = 4 if stmt.mnemonic in ("ld", "ldd") else 1
                pseudo = WriteSite(read_site, index, stmt, width, "", 2)
                lines = self.strategy.site_check(pseudo, is_read=True)
                before.setdefault(index, []).extend(
                    _parse_tagged(lines, "check"))
                read_site += 1
            if isinstance(stmt, AsmInsn):
                prev = stmt
            elif isinstance(stmt, Label):
                prev = None

    @staticmethod
    def _fp_push_lines() -> List[str]:
        """Push the just-established %fp onto the MRS shadow stack.

        §4.2: verifying %fp definitions "requires a pair of memory
        accesses to save and retrieve the correct %fp value"; ``%m1``
        is the dedicated shadow-stack pointer (the 4th reserved
        register of the symbol-optimized implementation).
        """
        return [
            "st %fp, [%m1]",
            "add %m1, 4, %m1",
        ]

    @staticmethod
    def _fp_check_lines(index: int) -> List[str]:
        """Pop the shadow stack and verify %fp before returning (§4.2)."""
        ok = ".Lmrs_fpok_%d" % index
        return [
            "sub %m1, 4, %m1",
            "ld [%m1], %g6",
            "cmp %g6, %fp",
            "be %s" % ok,
            "nop",
            "ta 0x43",
            "%s:" % ok,
        ]

    @staticmethod
    def _jmp_check_lines(index: int) -> List[str]:
        """Verify an indirect jump target lies in text (§4.2: "check all
        indirect jumps ... to ensure that they transfer control to
        legitimate targets")."""
        ok = ".Lmrs_jok_%d" % index
        return [
            "set 0x1000000, %g6",   # generous text ceiling
            "cmp %i7, %g6",
            "blu %s" % ok,
            "nop",
            "ta 0x43",
            "%s:" % ok,
        ]


def instrument_source(asm_source: str, strategy="Bitmap",
                      layout: Optional[MonitorLayout] = None,
                      plan: Optional[OptimizationPlan] = None,
                      monitor_reads: bool = False) -> InstrumentResult:
    """Parse, instrument, and return the result (not yet assembled).

    *strategy* may be a registered name or a CheckStrategy instance
    (the hash-table baseline passes an instance).
    """
    statements = parse(asm_source)
    lang = _find_lang(statements)
    if isinstance(strategy, CheckStrategy):
        strategy_obj = strategy
    else:
        strategy_obj = make_strategy(strategy, layout, monitor_reads)
    rewriter = Rewriter(strategy_obj, plan, monitor_reads)
    return rewriter.rewrite(statements, lang)


def _find_lang(statements: List[Statement]) -> str:
    for stmt in statements:
        if getattr(stmt, "name", "") == "lang" and stmt.args:
            arg = stmt.args[0]
            return getattr(arg, "name", None) or str(arg)
    return "C"
