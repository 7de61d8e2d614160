"""Independent per-block branch-implication facts for the auditor.

This module re-derives, from scratch, the facts the BAT construction
gets from :mod:`repro.analysis.branch_info` — but with a *forward*
symbolic walk over each block instead of the builder's backward chain
walk, so the two implementations share no reasoning code.  For every
block the walk produces a :class:`BlockSummary`:

* ``steps`` — an interval-transfer program (loads snapshot the current
  range of a variable; stores rewrite it; clobbers from indirect stores
  and calls reset it), used by the MFP to push abstract environments
  through the block;
* ``check`` — how the block's conditional branch outcome follows from
  one loaded value (``outcome == op(value, bound)``);
* ``constraints`` — per direction, the ranges the branch outcome
  implies for the *memory copies* of variables at block exit.  A
  constraint exists only when memory provably still mirrors the value
  the branch tested (no potential store in between) — the same "clean
  gap" rule the paper needs for sound inference;
* ``const_outcome`` — set when the branch condition folds to a
  constant (fuel for the dead-branch detector);
* ``edge_values`` — per direction, the check's outcome set and every
  constraint as value sets (:class:`~repro.staticcheck.domain.ValueSet`),
  built once so the MFP's edge rules only intersect.

Symbolic values are affine forms ``sign * t + offset`` over *load
terms* (the value observed by one particular load), plus constants and
materialized 0/1 comparisons, which covers exactly the condition
shapes the mini-C lowering emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.branch_info import OutcomeSet
from ..analysis.defs import DefinitionMap
from ..ir.function import BasicBlock, IRFunction
from ..ir.instructions import (
    BinOp,
    Call,
    CondBranch,
    Const,
    Cmp,
    Jump,
    Load,
    Reg,
    RelOp,
    Return,
    Store,
    UnOp,
    Variable,
)
from .domain import Env, ValueSet, env_get, env_set


@dataclass(frozen=True)
class LoadTerm:
    """The value observed by the load at ``block[index]`` of ``var``.

    A load term keys every snapshot, so, like :class:`Variable`, it
    hashes once when built."""

    var: Variable
    index: int
    block: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.var, self.index, self.block)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"load({self.var})@{self.block}[{self.index}]"


@dataclass(frozen=True)
class RegTerm:
    """An opaque value entering the block through a register defined
    elsewhere.  Its range is unknown (no snapshot), but a branch on it
    still correlates with stores of the same register — the builder's
    "chain leaves the block" case."""

    reg: Reg

    def __str__(self) -> str:
        return f"reg({self.reg})"


Term = Union[LoadTerm, RegTerm]


@dataclass(frozen=True)
class _AffineExpr:
    """``sign * term + offset`` (``term`` None means a plain constant)."""

    term: Optional[Term]
    sign: int
    offset: int

    @property
    def is_const(self) -> bool:
        return self.term is None


@dataclass(frozen=True)
class _CmpExpr:
    """A materialized 0/1 comparison: 1 iff ``sign*t + offset op bound``."""

    term: Term
    sign: int
    offset: int
    op: RelOp
    bound: int


_Expr = Union[_AffineExpr, _CmpExpr]


@dataclass(frozen=True)
class CheckFact:
    """Branch outcome == ``op(value(term), bound)`` for the block's
    conditional branch, where ``term`` is a load of ``var``."""

    var: Variable
    term: LoadTerm
    op: RelOp
    bound: int

    def outcome_set(self, taken: bool) -> OutcomeSet:
        return OutcomeSet.from_relop(self.op, self.bound, taken)


#: One direction of a branch, ready to intersect: the check as
#: ``(term, values)`` (``None`` without a check) and each constraint as
#: ``(var, values)``.
EdgeValues = Tuple[
    Optional[Tuple[LoadTerm, ValueSet]], Tuple[Tuple[Variable, ValueSet], ...]
]


#: Interval-transfer steps: ("load", term) | ("store", var, spec) |
#: ("call", callee, (vars...)) | ("clobber", (vars...)).  Store specs:
#: ("const", c) | ("affine", term, sign, offset) | ("top",).  A call
#: step names the callee so summary-aware transfers can apply its
#: interprocedural image instead of a plain clobber.
Step = Tuple


@dataclass
class BlockSummary:
    """Everything the MFP passes need to know about one block."""

    label: str
    steps: List[Step] = field(default_factory=list)
    check: Optional[CheckFact] = None
    const_outcome: Optional[bool] = None
    #: direction -> ((variable, implied outcome set at block exit), ...)
    constraints: Dict[bool, Tuple[Tuple[Variable, OutcomeSet], ...]] = field(
        default_factory=dict
    )
    #: direction -> the check's outcome set and each constraint's as
    #: value sets, built once for :func:`edge_environment`
    edge_values: Dict[bool, EdgeValues] = field(default_factory=dict)
    branch_pc: Optional[int] = None
    taken_target: Optional[str] = None
    fallthrough_target: Optional[str] = None
    jump_target: Optional[str] = None
    is_return: bool = False


def _solve_affine(op: RelOp, bound: int, sign: int, offset: int) -> Tuple[RelOp, int]:
    """Rewrite ``sign*x + offset OP bound`` as ``x OP' bound'``."""
    if sign == 1:
        return op, bound - offset
    return op.swap(), offset - bound


def outcome_image(outcome: OutcomeSet, sign: int, offset: int) -> OutcomeSet:
    """The set ``{sign*x + offset : x in outcome}`` (sign is ±1)."""
    if outcome.interval is not None:
        interval = outcome.interval
        if sign == -1:
            interval = interval.negate()
        return OutcomeSet(interval=interval.shift(offset))
    return OutcomeSet(hole=sign * outcome.hole + offset)


def _resolve_operand(env: Dict[Reg, _Expr], operand) -> Optional[_Expr]:
    if isinstance(operand, int):
        return _AffineExpr(None, 1, operand)
    expr = env.get(operand)
    if expr is None and isinstance(operand, Reg):
        # Defined in another block: opaque, but correlatable.
        expr = _AffineExpr(RegTerm(operand), 1, 0)
        env[operand] = expr
    return expr


def _add(a: _AffineExpr, b: _AffineExpr) -> Optional[_AffineExpr]:
    if a.term is not None and b.term is not None:
        return None
    term = a.term or b.term
    sign = a.sign if a.term is not None else b.sign
    return _AffineExpr(term, sign if term else 1, a.offset + b.offset)


def _negate(a: _AffineExpr) -> _AffineExpr:
    return _AffineExpr(a.term, -a.sign, -a.offset)


def _fold_binop(op: str, lhs: _Expr, rhs: _Expr) -> Optional[_Expr]:
    if not isinstance(lhs, _AffineExpr) or not isinstance(rhs, _AffineExpr):
        return None
    if op == "+":
        return _add(lhs, rhs)
    if op == "-":
        return _add(lhs, _negate(rhs))
    if lhs.is_const and rhs.is_const:
        a, b = lhs.offset, rhs.offset
        try:
            if op == "*":
                return _AffineExpr(None, 1, a * b)
            if op == "/":
                return _AffineExpr(None, 1, int(a / b)) if b else None
            if op == "%":
                return _AffineExpr(None, 1, a - int(a / b) * b) if b else None
        except (OverflowError, ValueError):  # pragma: no cover - defensive
            return None
    return None


def _branch_relation(
    expr: Optional[_Expr], op: RelOp, rhs
) -> Tuple[Optional[bool], Optional[Tuple[LoadTerm, RelOp, int]]]:
    """Interpret ``expr OP rhs``: a constant outcome, a relation on a
    load term, or nothing."""
    if not isinstance(rhs, int) or expr is None:
        return None, None
    if isinstance(expr, _AffineExpr):
        if expr.is_const:
            return op.evaluate(expr.offset, rhs), None
        eff_op, eff_bound = _solve_affine(op, rhs, expr.sign, expr.offset)
        return None, (expr.term, eff_op, eff_bound)
    # Materialized comparison: the branch tests a 0/1 value.
    truth_if_true = op.evaluate(1, rhs)
    truth_if_false = op.evaluate(0, rhs)
    if truth_if_true and truth_if_false:
        return True, None
    if not truth_if_true and not truth_if_false:
        return False, None
    inner_op = expr.op if truth_if_true else expr.op.negate()
    eff_op, eff_bound = _solve_affine(inner_op, expr.bound, expr.sign, expr.offset)
    return None, (expr.term, eff_op, eff_bound)


def summarize_block(
    fn: IRFunction, block: BasicBlock, def_map: DefinitionMap
) -> BlockSummary:
    """Run the forward symbolic walk over one block."""
    summary = BlockSummary(label=block.label)
    env: Dict[Reg, _Expr] = {}
    mem_expr: Dict[Variable, Optional[_AffineExpr]] = {}

    for index, instruction in enumerate(block.instructions):
        if isinstance(instruction, Const):
            env[instruction.dest] = _AffineExpr(None, 1, instruction.value)
        elif isinstance(instruction, BinOp):
            lhs = _resolve_operand(env, instruction.lhs)
            rhs = _resolve_operand(env, instruction.rhs)
            folded = (
                _fold_binop(instruction.op, lhs, rhs)
                if lhs is not None and rhs is not None
                else None
            )
            if folded is not None:
                env[instruction.dest] = folded
            else:
                env.pop(instruction.dest, None)
        elif isinstance(instruction, UnOp):
            src = _resolve_operand(env, instruction.src)
            result: Optional[_Expr] = None
            if instruction.op == "-" and isinstance(src, _AffineExpr):
                result = _negate(src)
            elif instruction.op == "!":
                if isinstance(src, _AffineExpr) and src.is_const:
                    result = _AffineExpr(None, 1, int(src.offset == 0))
                elif isinstance(src, _AffineExpr):
                    result = _CmpExpr(
                        src.term, src.sign, src.offset, RelOp.EQ, 0
                    )
                elif isinstance(src, _CmpExpr):
                    result = _CmpExpr(
                        src.term, src.sign, src.offset, src.op.negate(), src.bound
                    )
            if result is not None:
                env[instruction.dest] = result
            else:
                env.pop(instruction.dest, None)
        elif isinstance(instruction, Cmp):
            lhs = _resolve_operand(env, instruction.lhs)
            rhs = _resolve_operand(env, instruction.rhs)
            result = None
            if isinstance(lhs, _AffineExpr) and isinstance(rhs, _AffineExpr):
                if lhs.is_const and rhs.is_const:
                    result = _AffineExpr(
                        None,
                        1,
                        int(instruction.op.evaluate(lhs.offset, rhs.offset)),
                    )
                elif rhs.is_const:
                    result = _CmpExpr(
                        lhs.term, lhs.sign, lhs.offset, instruction.op, rhs.offset
                    )
                elif lhs.is_const:
                    result = _CmpExpr(
                        rhs.term,
                        rhs.sign,
                        rhs.offset,
                        instruction.op.swap(),
                        lhs.offset,
                    )
            if result is not None:
                env[instruction.dest] = result
            else:
                env.pop(instruction.dest, None)
        elif isinstance(instruction, Load):
            term = LoadTerm(instruction.var, index, block.label)
            summary.steps.append(("load", term))
            expr = _AffineExpr(term, 1, 0)
            env[instruction.dest] = expr
            # A load re-anchors memory knowledge: the content is, by
            # definition, exactly what the load observed.
            mem_expr[instruction.var] = expr
        elif isinstance(instruction, Store):
            value = _resolve_operand(env, instruction.src)
            if isinstance(value, _AffineExpr) and value.is_const:
                summary.steps.append(
                    ("store", instruction.var, ("const", value.offset))
                )
                mem_expr[instruction.var] = value
            elif isinstance(value, _AffineExpr):
                summary.steps.append(
                    (
                        "store",
                        instruction.var,
                        ("affine", value.term, value.sign, value.offset),
                    )
                )
                mem_expr[instruction.var] = value
            else:
                summary.steps.append(("store", instruction.var, ("top",)))
                mem_expr[instruction.var] = None
        elif isinstance(instruction, (Jump, Return)):
            summary.is_return = isinstance(instruction, Return)
            if isinstance(instruction, Jump):
                summary.jump_target = instruction.target
        elif isinstance(instruction, CondBranch):
            summary.branch_pc = instruction.address
            summary.taken_target = instruction.taken
            summary.fallthrough_target = instruction.fallthrough
            expr = env.get(instruction.lhs)
            const_outcome, relation = _branch_relation(
                expr, instruction.op, instruction.rhs
            )
            summary.const_outcome = const_outcome
            if relation is not None:
                term, eff_op, eff_bound = relation
                if isinstance(term, LoadTerm):
                    summary.check = CheckFact(term.var, term, eff_op, eff_bound)
                for taken in (True, False):
                    implied: List[Tuple[Variable, OutcomeSet]] = []
                    value_set = OutcomeSet.from_relop(eff_op, eff_bound, taken)
                    for var, content in mem_expr.items():
                        if content is None or content.term != term:
                            continue
                        image = outcome_image(
                            value_set, content.sign, content.offset
                        )
                        if not image.is_trivial:
                            implied.append((var, image))
                    summary.constraints[taken] = tuple(implied)
        else:
            # AddrOf, LoadIndirect, Call destinations are untracked.
            dest = getattr(instruction, "dest", None)
            if isinstance(dest, Reg):
                env.pop(dest, None)

        # Potential writes from indirect stores and calls invalidate
        # both the interval state (clobber/call step) and the symbolic
        # memory mirror.  Direct stores were handled exactly above.
        # Calls keep their callee name so a summary-aware transfer can
        # apply the callee's interprocedural image instead of top.
        if isinstance(instruction, Store):
            continue
        sites = def_map.at(block.label, index)
        if sites:
            affected = tuple(
                sorted({s.var for s in sites}, key=lambda v: (v.name, v.uid))
            )
            if isinstance(instruction, Call):
                summary.steps.append(("call", instruction.callee, affected))
            else:
                summary.steps.append(("clobber", affected))
            for var in affected:
                mem_expr[var] = None

    if not summary.constraints and summary.branch_pc is not None:
        summary.constraints = {True: (), False: ()}
    check = summary.check
    for taken, constraints in summary.constraints.items():
        summary.edge_values[taken] = (
            None
            if check is None
            else (check.term, ValueSet.from_outcome(check.outcome_set(taken))),
            tuple(
                (var, ValueSet.from_outcome(outcome))
                for var, outcome in constraints
            ),
        )
    return summary


def summarize_function(
    fn: IRFunction, def_map: DefinitionMap
) -> Dict[str, BlockSummary]:
    return {
        block.label: summarize_block(fn, block, def_map)
        for block in fn.blocks
    }


# ----------------------------------------------------------------------
# Abstract transfer: pushing environments through a summary
# ----------------------------------------------------------------------


def transfer_block(
    summary: BlockSummary, env_in: Env, transfers=None
) -> Tuple[Env, Dict[Term, ValueSet]]:
    """Run the interval-transfer steps over an input environment.

    Returns the exit environment and the *snapshots*: the value set
    each load observed, which is what branch conditions actually test.

    ``transfers`` (an :class:`repro.staticcheck.ipsummaries.IPSummaries`
    or anything with ``call_image(callee, var, values)``) makes call
    steps apply the callee's interprocedural image; without it a call
    clobbers its affected variables to top, exactly the opt-0/1
    behaviour.
    """
    env: Env = dict(env_in)
    snapshots: Dict[Term, ValueSet] = {}
    for step in summary.steps:
        kind = step[0]
        if kind == "load":
            snapshots[step[1]] = env_get(env, step[1].var)
        elif kind == "store":
            _, var, spec = step
            if spec[0] == "const":
                env_set(env, var, ValueSet.point(spec[1]))
            elif spec[0] == "affine":
                _, term, sign, offset = spec
                base = snapshots.get(term, ValueSet.top())
                env_set(env, var, base.affine_image(sign, offset))
            else:
                env_set(env, var, ValueSet.top())
        elif kind == "call":
            _, callee, affected = step
            for var in affected:
                if transfers is None:
                    env_set(env, var, ValueSet.top())
                else:
                    env_set(
                        env,
                        var,
                        transfers.call_image(callee, var, env_get(env, var)),
                    )
        else:  # clobber
            for var in step[1]:
                env_set(env, var, ValueSet.top())
    return env, snapshots


def edge_environment(
    summary: BlockSummary,
    env_out: Env,
    snapshots: Dict[Term, ValueSet],
    taken: bool,
) -> Optional[Env]:
    """The environment that flows along one conditional edge, refined
    by everything the branch direction implies — or ``None`` when the
    direction is statically infeasible from this state.  A missing
    snapshot or binding is top: it never prunes, and takes a stored
    value set as is."""
    if summary.const_outcome is not None and summary.const_outcome != taken:
        return None
    check, constraints = summary.edge_values[taken]
    if check is not None:
        tested = snapshots.get(check[0])
        if tested is not None and tested.intersect(check[1]).is_empty:
            return None
    env: Env = dict(env_out)
    for var, values in constraints:
        current = env.get(var)
        refined = values if current is None else current.intersect(values)
        if refined.is_empty:
            return None
        env_set(env, var, refined)
    return env
