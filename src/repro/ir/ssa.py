"""SSA construction (§4.1: "converts it to static single assignment
form [Cytron et al.]").

Phi nodes are placed with iterated dominance frontiers, then variables
are renamed along the dominator tree.  Assert ops (§4.3.1) must already
be in place — they are ordinary defs of their operands, which is
exactly how the paper's ASSERT re-definitions refine bound information.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.build import Block, FuncIr
from repro.ir.cfg import compute_dominators
from repro.ir.tac import IrOp, SsaVar


class SsaInfo:
    """Results of SSA conversion for one function."""

    def __init__(self, func: FuncIr, order: List[Block]):
        self.func = func
        self.order = order
        #: SSA variable live at the *end* of each block, per base name
        self.exit_version: Dict[Tuple[int, Tuple], SsaVar] = {}
        self.all_vars: List[SsaVar] = []


def convert_to_ssa(func: FuncIr) -> SsaInfo:
    order = compute_dominators(func)
    info = SsaInfo(func, order)
    if not order:
        return info

    # 1. collect def sites per variable name
    def_blocks: Dict[Tuple, Set[int]] = {}
    block_by_id = {b.bid: b for b in order}
    for block in order:
        for op in block.ops:
            for dest in op.defs:
                if isinstance(dest, tuple):
                    def_blocks.setdefault(dest, set()).add(block.bid)

    # 2. phi placement via iterated dominance frontiers
    for name, blocks in def_blocks.items():
        if len(blocks) < 2:
            continue
        placed: Set[int] = set()
        work = list(blocks)
        while work:
            bid = work.pop()
            for frontier in block_by_id[bid].df:
                if frontier.bid in placed:
                    continue
                placed.add(frontier.bid)
                phi = IrOp("phi", [name],
                           [name] * len(frontier.preds),
                           frontier.header_stmt_index)
                phi.block = frontier
                frontier.phis.append(phi)
                if frontier.bid not in blocks:
                    work.append(frontier.bid)

    # 3. renaming
    counters: Dict[Tuple, int] = {}
    stacks: Dict[Tuple, List[SsaVar]] = {}

    def fresh(name: Tuple, def_op: IrOp) -> SsaVar:
        version = counters.get(name, 0)
        counters[name] = version + 1
        var = SsaVar(name, version)
        var.def_op = def_op
        stacks.setdefault(name, []).append(var)
        info.all_vars.append(var)
        return var

    def current(name: Tuple) -> SsaVar:
        stack = stacks.get(name)
        if stack:
            return stack[-1]
        # undefined on this path: version-0 var with no def
        var = SsaVar(name, counters.get(name, 0))
        counters[name] = var.version + 1
        stacks.setdefault(name, []).append(var)
        info.all_vars.append(var)
        return var

    def rename_value(value):
        if isinstance(value, tuple):
            return current(value)
        return value

    def rename(block: Block) -> None:
        pushed: List[Tuple] = []
        for op in block.phis:
            name = op.defs[0]
            op.defs = [fresh(name, op)]
            pushed.append(name)
        for op in block.ops:
            op.uses = [rename_value(use) for use in op.uses]
            if op.mem is not None:
                op.mem = tuple(rename_value(part) for part in op.mem)
            new_defs = []
            for dest in op.defs:
                if isinstance(dest, tuple):
                    new_defs.append(fresh(dest, op))
                    pushed.append(dest)
                else:
                    new_defs.append(dest)
            op.defs = new_defs
        # versions live at the end of this block (used when generating
        # pre-header code on the entry edge into a loop header)
        for name, stack in stacks.items():
            if stack:
                info.exit_version[(block.bid, name)] = stack[-1]
        for succ in block.succs:
            which = succ.preds.index(block)
            for phi in succ.phis:
                name = phi.uses[which]
                if isinstance(name, tuple):
                    phi.uses[which] = current(name)
        for child in block.dom_children:
            rename(child)
        for name in reversed(pushed):
            stacks[name].pop()

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000))
    try:
        rename(order[0])
    finally:
        sys.setrecursionlimit(old_limit)
    return info
