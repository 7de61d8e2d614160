"""Branch condition analysis: connecting branches to memory values.

For each conditional branch, walk the defining chain of its operand
backwards *within the branch's basic block* through affine arithmetic
(``r ± const``, ``-r``, ``c - r``, and 0/1 comparisons materialized by
``Cmp``).  Every register on the chain relates to the branch operand by
``operand = sign·r + offset``, so a relational condition on the operand
solves to a relational condition on ``r``.

This yields the paper's two roles:

* **Check side** ("branch whose outcome is inferable from l's range",
  Fig. 5 line 5): if the chain terminates at a direct ``Load`` of a
  scalar variable ``v``, the branch outcome is a deterministic function
  of the value ``l`` loads — the branch is *checkable*.
* **Inference side** ("branch whose outcome can infer the range",
  Fig. 5 lines 7/12): once the branch commits, its direction reveals a
  range for the memory copy of a variable — through the terminal load,
  or through a ``Store`` of any chain register (Fig. 3.b: store, then
  branch on the stored value).  Inference is only sound if memory still
  mirrors the register when the branch commits, so each inference
  access requires a *clean gap*: no potential store to the variable
  between the access and the end of the block.

Keeping the whole chain inside one basic block is a conservative
simplification (DESIGN.md §4): a register then has exactly one static
defining chain, eliminating the paper's "other definitions to the
register" case (Fig. 5 lines 19–21), because registers here are
single-assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.function import BasicBlock, IRFunction
from ..ir.instructions import (
    BinOp,
    Cmp,
    CondBranch,
    Load,
    Reg,
    RelOp,
    Store,
    UnOp,
    Variable,
    defined_reg,
)
from .defs import DefinitionMap
from .ranges import Interval


@dataclass(frozen=True)
class OutcomeSet:
    """The set of variable values producing one branch outcome.

    Either a closed interval, or the complement of a single point (the
    non-interval side of an equality test).
    """

    interval: Optional[Interval] = None
    hole: Optional[int] = None

    @staticmethod
    def from_relop(op: RelOp, bound: int, taken: bool) -> "OutcomeSet":
        interval = Interval.from_relop(op, bound, taken)
        if interval is not None:
            return OutcomeSet(interval=interval)
        return OutcomeSet(hole=bound)

    def contains_value(self, value: int) -> bool:
        if self.interval is not None:
            return self.interval.contains(value)
        return value != self.hole

    def superset_of(self, values: Interval) -> bool:
        """True if every value in ``values`` lies in this outcome set."""
        if values.is_empty:
            return True
        if self.interval is not None:
            return values.subsumes(self.interval)
        return not values.contains(self.hole)

    def superset_of_outcome(self, other: "OutcomeSet") -> bool:
        """True if ``other`` ⊆ ``self`` (the paper's subsumption test,
        lifted to punctured-line sets so equality branches correlate
        in both directions)."""
        if other.interval is not None:
            return self.superset_of(other.interval)
        # other = Z \ {q}: contained in an interval only if the interval
        # is all of Z; contained in Z \ {p} iff p == q.
        if self.interval is not None:
            return self.interval.is_top
        return self.hole == other.hole

    @property
    def is_trivial(self) -> bool:
        """True when the set carries no information (all of Z)."""
        return self.interval is not None and self.interval.is_top

    def __str__(self) -> str:
        if self.interval is not None:
            return str(self.interval)
        return f"Z\\{{{self.hole}}}"


@dataclass(frozen=True)
class CheckInfo:
    """How a branch's outcome follows from its terminal load."""

    var: Variable
    op: RelOp
    bound: int
    taken_set: OutcomeSet
    nottaken_set: OutcomeSet
    load_index: int  # index of the terminal load within the block

    def outcome_for_value(self, value: int) -> bool:
        return self.op.evaluate(value, self.bound)

    def outcome_set(self, taken: bool) -> OutcomeSet:
        return self.taken_set if taken else self.nottaken_set


@dataclass(frozen=True)
class InferenceInfo:
    """A range fact one branch direction implies about one variable."""

    var: Variable
    kind: str  # "load" | "store"
    index: int  # instruction index within the block
    op: RelOp
    bound: int
    taken_set: OutcomeSet
    nottaken_set: OutcomeSet

    def implied_interval(self, taken: bool) -> Optional[Interval]:
        """Interval of mem[var] when the branch goes ``taken``
        (None when that side is not an interval)."""
        return Interval.from_relop(self.op, self.bound, taken)

    def implied_set(self, taken: bool) -> OutcomeSet:
        """Full outcome-set form (handles the non-interval sides)."""
        return self.taken_set if taken else self.nottaken_set


@dataclass
class BranchFacts:
    """Everything the correlation pass needs about one branch."""

    branch: CondBranch
    block_label: str
    check: Optional[CheckInfo]
    inferences: List[InferenceInfo]

    @property
    def pc(self) -> int:
        return self.branch.address


def _solve(op: RelOp, bound: int, sign: int, offset: int) -> Tuple[RelOp, int]:
    """Solve ``sign·r + offset OP bound`` for ``r``."""
    if sign == 1:
        return op, bound - offset
    return op.swap(), offset - bound


def _walk_chain(
    block: BasicBlock, branch: CondBranch
) -> Optional[Tuple[List[Tuple[Reg, int, int]], Optional[Tuple[Load, int, int, int]], RelOp, int]]:
    """Walk the affine defining chain of the branch operand.

    Returns ``(chain_points, terminal, op, bound)``:

    * ``chain_points`` — every register on the chain as
      ``(reg, sign, offset)`` with ``operand = sign·reg + offset``;
    * ``terminal`` — ``(load, index, sign, offset)`` when the chain ends
      at a direct load, else ``None``;
    * ``op, bound`` — the (possibly Cmp-rewritten) branch condition on
      the operand.

    ``None`` when the branch compares two registers (no constant bound).
    """
    if not isinstance(branch.rhs, int):
        return None
    defs_by_reg: Dict[Reg, Tuple[int, object]] = {}
    for index, instruction in enumerate(block.instructions):
        reg = defined_reg(instruction)
        if reg is not None:
            defs_by_reg[reg] = (index, instruction)

    op = branch.op
    bound = branch.rhs
    reg = branch.lhs
    sign, offset = 1, 0
    chain_points: List[Tuple[Reg, int, int]] = []
    for _ in range(len(block.instructions) + 1):
        chain_points.append((reg, sign, offset))
        entry = defs_by_reg.get(reg)
        if entry is None:
            return chain_points, None, op, bound  # chain leaves the block
        index, instruction = entry
        if isinstance(instruction, Load):
            return chain_points, (instruction, index, sign, offset), op, bound
        if isinstance(instruction, BinOp) and instruction.op in ("+", "-"):
            lhs, rhs = instruction.lhs, instruction.rhs
            if isinstance(lhs, Reg) and isinstance(rhs, int):
                offset += sign * (rhs if instruction.op == "+" else -rhs)
                reg = lhs
                continue
            if isinstance(lhs, int) and isinstance(rhs, Reg):
                offset += sign * lhs
                if instruction.op == "-":
                    sign = -sign
                reg = rhs
                continue
            return chain_points, None, op, bound
        if isinstance(instruction, UnOp) and instruction.op == "-":
            if isinstance(instruction.src, Reg):
                sign = -sign
                reg = instruction.src
                continue
            return chain_points, None, op, bound
        if isinstance(instruction, Cmp):
            # Branch over a materialized 0/1 comparison.  Only the exact
            # "cmp != 0" / "cmp == 0" forms are rewritable.
            if sign != 1 or offset != 0:
                return chain_points, None, op, bound
            if not (
                isinstance(instruction.lhs, Reg)
                and isinstance(instruction.rhs, int)
            ):
                return chain_points, None, op, bound
            if op is RelOp.NE and bound == 0:
                op = instruction.op
            elif op is RelOp.EQ and bound == 0:
                op = instruction.op.negate()
            else:
                return chain_points, None, op, bound
            bound = instruction.rhs
            reg = instruction.lhs
            continue
        return chain_points, None, op, bound
    return chain_points, None, op, bound  # pragma: no cover - defensive


def analyze_branch(
    fn: IRFunction, block: BasicBlock, def_map: DefinitionMap
) -> Optional[BranchFacts]:
    """Produce :class:`BranchFacts` for a block's conditional branch,
    or ``None`` when nothing about it is analyzable."""
    if not block.ends_in_cond_branch():
        return None
    branch = block.terminator
    assert isinstance(branch, CondBranch)
    walk = _walk_chain(block, branch)
    if walk is None:
        return None
    chain_points, terminal, op, bound = walk
    terminator_index = len(block.instructions) - 1

    def clean_gap(var: Variable, access_index: int) -> bool:
        return not def_map.defs_between(
            block.label, access_index + 1, terminator_index, var
        )

    check: Optional[CheckInfo] = None
    inferences: List[InferenceInfo] = []

    if terminal is not None:
        load, load_index, sign, offset = terminal
        eff_op, eff_bound = _solve(op, bound, sign, offset)
        check = CheckInfo(
            var=load.var,
            op=eff_op,
            bound=eff_bound,
            taken_set=OutcomeSet.from_relop(eff_op, eff_bound, True),
            nottaken_set=OutcomeSet.from_relop(eff_op, eff_bound, False),
            load_index=load_index,
        )
        if clean_gap(load.var, load_index):
            inferences.append(
                InferenceInfo(
                    load.var,
                    "load",
                    load_index,
                    eff_op,
                    eff_bound,
                    check.taken_set,
                    check.nottaken_set,
                )
            )

    # Store-based inference: a store of any chain register reveals the
    # range of the stored variable's memory copy.
    solutions = {
        reg: _solve(op, bound, sign, offset)
        for reg, sign, offset in chain_points
    }
    for index, instruction in enumerate(block.instructions[:terminator_index]):
        if (
            isinstance(instruction, Store)
            and isinstance(instruction.src, Reg)
            and instruction.src in solutions
        ):
            if clean_gap(instruction.var, index):
                store_op, store_bound = solutions[instruction.src]
                inferences.append(
                    InferenceInfo(
                        instruction.var,
                        "store",
                        index,
                        store_op,
                        store_bound,
                        OutcomeSet.from_relop(store_op, store_bound, True),
                        OutcomeSet.from_relop(store_op, store_bound, False),
                    )
                )

    if check is None and not inferences:
        return None
    return BranchFacts(
        branch=branch,
        block_label=block.label,
        check=check,
        inferences=inferences,
    )


def analyze_branches(
    fn: IRFunction, def_map: DefinitionMap
) -> Dict[int, BranchFacts]:
    """Facts for every analyzable conditional branch, keyed by PC."""
    facts: Dict[int, BranchFacts] = {}
    for block in fn.blocks:
        result = analyze_branch(fn, block, def_map)
        if result is not None:
            facts[result.pc] = result
    return facts
