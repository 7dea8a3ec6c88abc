"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import List, Tuple

from repro.core.regions import MonitoredRegion, RegionSet
from repro.minic.codegen import compile_source
from repro.session import DebugSession, run_uninstrumented

ALL_STRATEGIES = ["Bitmap", "BitmapInline", "BitmapInlineRegisters",
                  "Cache", "CacheInline"]


def run_asm(source: str, **kwargs):
    from repro.asm.loader import run_source
    return run_source(source, **kwargs)


def notifications(mrs) -> List[Tuple[int, int, bool]]:
    """Register a §2 ``NotificationCallBack`` on *mrs*; returns the list
    it fills with each (addr, size, is_read) notification, in order."""
    seen: List[Tuple[int, int, bool]] = []
    mrs.add_callback(lambda addr, size, is_read:
                     seen.append((addr, size, is_read)))
    return seen


def oracle_hits(write_trace, regions: List[Tuple[int, int]]
                ) -> List[Tuple[int, int]]:
    """Expected (addr, size) notifications for the given write trace."""
    region_set = RegionSet()
    for start, size in regions:
        region_set.add(MonitoredRegion(start, size))
    hits = []
    for _site, addr, width in write_trace:
        if region_set.hit(addr, width):
            hits.append((addr, width))
    return hits


def session_with_regions(c_source: str, strategy: str,
                         regions: List[Tuple[int, int]],
                         lang: str = "C", plan=None,
                         record_writes: bool = False) -> DebugSession:
    session = DebugSession.from_minic(c_source, lang=lang,
                                      strategy=strategy, plan=plan,
                                      record_writes=record_writes)
    session.mrs.enable()
    for start, size in regions:
        session.mrs.create_region(start, size)
    return session


def check_soundness(c_source: str, strategy: str,
                    region_specs: List[Tuple[str, int, int]],
                    lang: str = "C", plan_factory=None) -> DebugSession:
    """Run instrumented + uninstrumented; assert hits == oracle.

    *region_specs* are (symbol, byte offset, size) triples resolved
    against the symbol table.
    """
    asm = compile_source(c_source, lang=lang)
    _code, base = run_uninstrumented(asm, record_writes=True)

    plan = None
    if plan_factory is not None:
        plan = plan_factory(asm)
    session = DebugSession.from_asm(asm, strategy=strategy, plan=plan)
    symtab = session.program.symtab
    regions = []
    for name, offset, size in region_specs:
        entry = symtab.lookup(name)
        regions.append((entry.address + offset, size))
    session.mrs.enable()
    for start, size in regions:
        session.mrs.create_region(start, size)
    hits = notifications(session.mrs)
    exit_code = session.run()
    assert exit_code == 0
    assert session.output == base.output

    expected = oracle_hits(base.cpu.write_trace, regions)
    got = [(addr, size) for addr, size, _read in hits]
    assert got == expected, (
        "strategy %s: %d hits, expected %d" %
        (strategy, len(got), len(expected)))
    return session
