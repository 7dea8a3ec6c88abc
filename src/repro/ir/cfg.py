"""Dominators and dominance frontiers (Cooper-Harvey-Kennedy).

Used for SSA construction (§4.1 cites Cytron et al.) and natural-loop
detection (§4.3)."""

from __future__ import annotations

from typing import List

from repro.ir.build import Block, FuncIr


def reverse_postorder(func: FuncIr) -> List[Block]:
    """Reachable blocks of *func* in reverse postorder."""
    visited = set()
    postorder: List[Block] = []

    def visit(block: Block) -> None:
        stack = [(block, 0)]
        visited.add(block.bid)
        while stack:
            current, index = stack.pop()
            if index < len(current.succs):
                stack.append((current, index + 1))
                succ = current.succs[index]
                if succ.bid not in visited:
                    visited.add(succ.bid)
                    stack.append((succ, 0))
            else:
                postorder.append(current)

    if func.entry is not None:
        visit(func.entry)
    order = list(reversed(postorder))
    for number, block in enumerate(order):
        block.rpo = number
    return order


def compute_dominators(func: FuncIr) -> List[Block]:
    """Fill ``idom``/``dom_children``/``df``; returns reachable RPO."""
    order = reverse_postorder(func)
    if not order:
        return order
    entry = order[0]
    entry.idom = entry
    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            candidates = [p for p in block.preds if p.idom is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for pred in candidates[1:]:
                new_idom = _intersect(pred, new_idom)
            if block.idom is not new_idom:
                block.idom = new_idom
                changed = True
    entry.idom = None
    for block in order:
        block.dom_children = []
        block.df = []
    for block in order:
        if block.idom is not None:
            block.idom.dom_children.append(block)
    # dominance frontiers
    for block in order:
        if len(block.preds) >= 2:
            for pred in block.preds:
                if pred.rpo < 0:
                    continue
                runner = pred
                while runner is not block.idom and runner is not None:
                    runner.df.append(block)
                    runner = runner.idom
    return order


def _intersect(a: Block, b: Block) -> Block:
    while a is not b:
        while a.rpo > b.rpo:
            a = a.idom
        while b.rpo > a.rpo:
            b = b.idom
    return a


def dominates(a: Block, b: Block) -> bool:
    """Does *a* dominate *b*?  (entry has idom None)"""
    runner = b
    while runner is not None:
        if runner is a:
            return True
        runner = runner.idom
    return False
