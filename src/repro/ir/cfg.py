"""CFG utilities: edges, reachability, and branch-free regions.

The *branch-free region* of a conditional edge ``e`` is the set of
blocks reachable from the edge's target without crossing another
conditional-branch edge.  It is the key geometric object behind kill
placement in the BAT construction (see DESIGN.md §4): any dynamic
execution of a block ``B`` is immediately preceded, in the stream of
committed conditional branches, either by an edge whose region contains
``B`` or by function entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from .function import BasicBlock, IRFunction
from .instructions import CondBranch


@dataclass(frozen=True)
class CondEdge:
    """One outcome of a conditional branch: (branch block, direction)."""

    block_label: str
    taken: bool

    def __str__(self) -> str:
        return f"({self.block_label}, {'T' if self.taken else 'NT'})"


def cond_edges(fn: IRFunction) -> List[CondEdge]:
    """All conditional edges of a function, in block order, taken first."""
    edges: List[CondEdge] = []
    for block in fn.blocks:
        if block.ends_in_cond_branch():
            edges.append(CondEdge(block.label, True))
            edges.append(CondEdge(block.label, False))
    return edges


def edge_target(fn: IRFunction, edge: CondEdge) -> BasicBlock:
    """The block an edge transfers control to."""
    branch = fn.block(edge.block_label).terminator
    assert isinstance(branch, CondBranch)
    return fn.block(branch.taken if edge.taken else branch.fallthrough)


def branch_free_region(fn: IRFunction, edge: CondEdge) -> FrozenSet[str]:
    """Blocks reachable from ``edge``'s target without crossing another
    conditional edge.

    The search includes blocks that *end* in a conditional branch (their
    straight-line body runs before the branch decides) but does not
    continue through them.
    """
    start = edge_target(fn, edge)
    region: Set[str] = set()
    stack = [start]
    while stack:
        block = stack.pop()
        if block.label in region:
            continue
        region.add(block.label)
        if block.ends_in_cond_branch():
            continue
        stack.extend(block.succs)
    return frozenset(region)


def entry_region(fn: IRFunction) -> FrozenSet[str]:
    """Blocks reachable from function entry without crossing any
    conditional edge — executed before the first branch event."""
    region: Set[str] = set()
    stack = [fn.entry]
    while stack:
        block = stack.pop()
        if block.label in region:
            continue
        region.add(block.label)
        if block.ends_in_cond_branch():
            continue
        stack.extend(block.succs)
    return frozenset(region)


def regions_by_edge(fn: IRFunction) -> Dict[CondEdge, FrozenSet[str]]:
    """Branch-free region of every conditional edge."""
    return {edge: branch_free_region(fn, edge) for edge in cond_edges(fn)}


def edges_covering_block(fn: IRFunction, label: str) -> List[CondEdge]:
    """All conditional edges whose branch-free region contains ``label``."""
    return [e for e, region in regions_by_edge(fn).items() if label in region]


def reachable_blocks(fn: IRFunction, start: BasicBlock) -> Set[str]:
    """Labels of blocks reachable from ``start`` (inclusive)."""
    seen: Set[str] = set()
    stack = [start]
    while stack:
        block = stack.pop()
        if block.label in seen:
            continue
        seen.add(block.label)
        stack.extend(block.succs)
    return seen


def iter_rpo(fn: IRFunction) -> Iterator[BasicBlock]:
    """Blocks in reverse post-order from entry (a good dataflow order)."""
    seen: Set[str] = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack: List[Tuple[BasicBlock, int]] = [(block, 0)]
        seen.add(block.label)
        while stack:
            current, index = stack[-1]
            if index < len(current.succs):
                stack[-1] = (current, index + 1)
                succ = current.succs[index]
                if succ.label not in seen:
                    seen.add(succ.label)
                    stack.append((succ, 0))
            else:
                order.append(current)
                stack.pop()

    visit(fn.entry)
    for block in fn.blocks:  # unreachable blocks last, stable
        if block.label not in seen:
            visit(block)
    return iter(reversed(order))
