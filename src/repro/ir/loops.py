"""Natural-loop detection and nesting (§4.3).

Loop nests are processed inner to outer "so that checks moved out of
inner loops can become candidates for further optimization".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.asm.ast import Label, Statement
from repro.ir.build import Block, FuncIr
from repro.ir.cfg import dominates


class Loop:
    __slots__ = ("header", "body", "back_edges", "parent", "children",
                 "loop_id")

    def __init__(self, header: Block):
        self.header = header
        self.body: Set[int] = {header.bid}
        self.back_edges: List[Block] = []
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        self.loop_id = -1

    def __repr__(self) -> str:
        return "<loop @B%d, %d blocks>" % (self.header.bid, len(self.body))


def find_loops(func: FuncIr, order: List[Block]) -> List[Loop]:
    """Natural loops of *func*, returned inner-to-outer.

    Requires dominators (``compute_dominators`` already run).
    """
    by_header: Dict[int, Loop] = {}
    block_set = {b.bid: b for b in order}
    for block in order:
        for succ in block.succs:
            if succ.bid in block_set and dominates(succ, block):
                loop = by_header.get(succ.bid)
                if loop is None:
                    loop = Loop(succ)
                    by_header[succ.bid] = loop
                loop.back_edges.append(block)
                _grow(loop, block, block_set)
    loops = sorted(by_header.values(), key=lambda lp: len(lp.body))
    # nesting: smallest enclosing loop is the parent
    for index, loop in enumerate(loops):
        for outer in loops[index + 1:]:
            if loop.header.bid in outer.body and outer is not loop:
                loop.parent = outer
                outer.children.append(loop)
                break
    for loop_id, loop in enumerate(loops):
        loop.loop_id = loop_id
    return loops


def _grow(loop: Loop, tail: Block, block_set: Dict[int, Block]) -> None:
    stack = [tail]
    while stack:
        block = stack.pop()
        if block.bid in loop.body or block.bid not in block_set:
            continue
        loop.body.add(block.bid)
        stack.extend(block.preds)


def preheader_anchor(func: FuncIr, loop: Loop,
                     statements: List[Statement]) -> Optional[int]:
    """Statement index where pre-header checks can be inserted.

    Code inserted *before* the header's label is executed exactly by
    the loop-entry edges (fall-through from outside), while back edges
    branch to the label and skip it.  This is only a valid pre-header
    when every edge into the header from outside the loop falls
    through, i.e. no branch outside the loop targets the header label.
    """
    header = loop.header
    for pred in header.preds:
        if pred.bid in loop.body:
            # back edge: must be an explicit jump (skips inserted code)
            if not _ends_in_jump_to(pred, header):
                return None
        else:
            # entry edge: must fall through (passes through inserted code)
            if _ends_in_jump_to(pred, header):
                return None
    anchor = header.header_stmt_index
    if anchor < 0 or not isinstance(statements[anchor], (Label,)):
        return None
    return anchor


def _ends_in_jump_to(pred: Block, header: Block) -> bool:
    """Does *pred* transfer to *header* via an explicit branch target?

    Successor order for conditional branches is [taken, fallthrough];
    for jumps it is [target].
    """
    if not pred.ops:
        return False
    last = pred.ops[-1]
    if last.kind == "jump":
        return pred.succs and pred.succs[0] is header
    if last.kind == "branch":
        return len(pred.succs) >= 1 and pred.succs[0] is header
    return False
