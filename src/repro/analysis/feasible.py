"""Feasible-path value-range analysis — the ``--opt 3`` layer.

The Figure-5 construction correlates branches pairwise: one inference
access in the source block, one checked load in the target block.  That
misses everything the *paths between them* prove — a constant store on
the way, a clamp that pins a range, a re-check whose one direction the
dominating condition already decided.  This module recovers those facts
with the feasible-path MFP construction (Pathade & Khedker): for every
conditional edge ``E`` it seeds a forward range propagation with the
constraints ``E``'s direction implies, pushes abstract environments
through block bodies, and — the feasible-path part — **drops every
conditional edge whose direction contradicts the propagated ranges**
instead of merging over it.  Each dropped edge is recorded; the sorted
list is the *pruned-edge witness* that rides the resulting action's
provenance and is independently re-proved by the ``FP7xx`` audit pass
(:mod:`repro.staticcheck.feasaudit`).

At the fixpoint, any later branch whose checked load is confined to one
outcome set yields a forced outcome: a new ``SET_T``/``SET_NT`` BAT
action for ``E``, or a proof that an existing action survives its
region's stores (the MFP pushed every store on every feasible path, so
no separate kill is needed — the claim holds at *every* execution of
the target after ``E`` commits, not just the first).

The claim deliberately proves more than the auditor's COR205 obligation
demands: no liveness cuts at overwriting edges, and no interprocedural
call images (calls clobber to top).  The auditor — with cuts and call
summaries, i.e. strictly more precision against a strictly weaker
obligation — therefore re-proves every action emitted here.

Builder/auditor separation: this is builder-side code.  It reasons from
:mod:`repro.analysis.branch_info` facts (the backward chain walk) and
its own forward block interpretation below; the auditor re-derives
everything from :mod:`repro.staticcheck.facts` (the forward symbolic
walk).  The shared trust base stays the may-write model
(:class:`~repro.analysis.defs.DefinitionMap`), as everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ir.function import BasicBlock, IRFunction
from ..ir.instructions import (
    BinOp,
    Cmp,
    CondBranch,
    Const,
    Jump,
    Load,
    Reg,
    Return,
    Store,
    UnOp,
    Variable,
)
from .branch_info import BranchFacts, OutcomeSet
from .defs import DefinitionMap
from .ranges import Interval

#: Joins into one block before widening kicks in (matches the auditor's
#: MFP so honest witnesses re-prove under the same loop treatment).
WIDEN_AFTER = 8


# ----------------------------------------------------------------------
# The builder's range lattice: an interval minus at most one interior
# point.  Semantically the twin of the auditor's ValueSet
# (:mod:`repro.staticcheck.domain`), implemented independently so the
# two sides share no reasoning code.
# ----------------------------------------------------------------------


def _canonical(interval: Interval, hole: Optional[int]) -> "FeasRange":
    """Drop holes outside the interval; fold endpoint holes inward."""
    if interval.is_empty or hole is None or not interval.contains(hole):
        return FeasRange(interval, None)
    if interval.lo == interval.hi:
        return FeasRange(Interval.empty(), None)
    if hole == interval.lo:
        return FeasRange(Interval(interval.lo + 1, interval.hi), None)
    if hole == interval.hi:
        return FeasRange(Interval(interval.lo, interval.hi - 1), None)
    return FeasRange(interval, hole)


@dataclass(frozen=True)
class FeasRange:
    """``[lo, hi] \\ {hole}`` — all operations over-approximate."""

    interval: Interval
    hole: Optional[int] = None

    @staticmethod
    def top() -> "FeasRange":
        """No information; one shared instance."""
        return _FEAS_TOP

    @staticmethod
    def point(value: int) -> "FeasRange":
        return FeasRange(Interval.point(value), None)

    @staticmethod
    def from_outcome(outcome: OutcomeSet) -> "FeasRange":
        if outcome.interval is not None:
            return FeasRange(outcome.interval, None)
        return _canonical(Interval.top(), outcome.hole)

    @property
    def is_empty(self) -> bool:
        return self.interval.is_empty

    @property
    def is_top(self) -> bool:
        return self.interval.is_top and self.hole is None

    def within_outcome(self, outcome: OutcomeSet) -> bool:
        """Every value of this set satisfies ``outcome`` — the forced-
        outcome test at a checked branch."""
        if self.is_empty:
            return True
        if outcome.interval is not None:
            return self.interval.subsumes(outcome.interval)
        return not self.interval.contains(outcome.hole) or self.hole == outcome.hole

    def intersect(self, other: "FeasRange") -> "FeasRange":
        interval = self.interval.intersect(other.interval)
        hole = self.hole if self.hole is not None else other.hole
        return _canonical(interval, hole)

    def join(self, other: "FeasRange") -> "FeasRange":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        interval = self.interval.union_hull(other.interval)
        for candidate in (self.hole, other.hole):
            if candidate is None:
                continue
            if not self.contains(candidate) and not other.contains(candidate):
                return _canonical(interval, candidate)
        return FeasRange(interval, None)

    def widen(self, newer: "FeasRange") -> "FeasRange":
        interval = self.interval.widen_against(newer.interval)
        hole = self.hole if self.hole == newer.hole else None
        return _canonical(interval, hole)

    def affine_image(self, sign: int, offset: int) -> "FeasRange":
        interval = self.interval
        if sign == -1:
            interval = interval.negate()
        interval = interval.shift(offset)
        hole = None if self.hole is None else sign * self.hole + offset
        return _canonical(interval, hole)

    def contains(self, value: int) -> bool:
        return self.interval.contains(value) and value != self.hole

    def __str__(self) -> str:
        if self.hole is None:
            return str(self.interval)
        return f"{self.interval}\\{{{self.hole}}}"


_FEAS_TOP = FeasRange(Interval.top(), None)

#: Abstract environment: variable -> range; missing means top.
FeasEnv = Dict[Variable, FeasRange]


def _env_set(env: FeasEnv, var: Variable, value: FeasRange) -> None:
    if value.is_top:
        env.pop(var, None)
    else:
        env[var] = value


def _env_join(a: FeasEnv, b: FeasEnv) -> FeasEnv:
    """Pointwise join in one pass over ``a``.  A range both sides agree
    on (the same object, or an equal canonical one) is its own join and
    ``a``'s is reused; otherwise ``a``'s range joins on the left,
    because the one-hole join keeps the first common hole.  When the
    join equals ``a``, ``a`` itself is returned, so callers test for a
    change with ``is``."""
    joined: FeasEnv = {}
    same = True
    for var, mine in a.items():
        theirs = b.get(var)
        if theirs is None:
            same = False
            continue
        if mine is theirs or mine == theirs:
            value = mine
        else:
            value = mine.join(theirs)
            same = same and value == mine
        if value.is_top:
            same = False
        else:
            joined[var] = value
    return a if same else joined


def _env_widen(old: FeasEnv, new: FeasEnv) -> FeasEnv:
    """Pointwise widening in one pass over ``old`` (a range both sides
    agree on widens to itself)."""
    widened: FeasEnv = {}
    for var, mine in old.items():
        theirs = new.get(var)
        if theirs is None:
            continue
        value = mine if mine is theirs or mine == theirs else mine.widen(theirs)
        if not value.is_top:
            widened[var] = value
    return widened


# ----------------------------------------------------------------------
# Per-block interval-transfer programs
# ----------------------------------------------------------------------

#: Steps: ("load", var, index) | ("store", var, spec) | ("clobber", vars)
#: with store specs ("const", c) | ("affine", load_index, sign, offset) |
#: ("top",).  Calls and indirect stores become plain clobbers — opt 3
#: deliberately claims *less* per transfer than the auditor can prove,
#: so every claim survives re-proof.
_Step = Tuple


@dataclass
class BlockProgram:
    """One block reduced to its effect on variable ranges."""

    label: str
    steps: List[_Step]
    branch_pc: Optional[int] = None
    taken_target: Optional[str] = None
    fallthrough_target: Optional[str] = None
    jump_target: Optional[str] = None
    is_return: bool = False


def _resolve(env: Dict[Reg, Tuple], operand) -> Optional[Tuple]:
    """A tracked value: ("const", c) or ("affine", load_index, sign, off)."""
    if isinstance(operand, int):
        return ("const", operand)
    return env.get(operand)


def _fold(op: str, lhs: Optional[Tuple], rhs: Optional[Tuple]) -> Optional[Tuple]:
    if lhs is None or rhs is None:
        return None
    if lhs[0] == "const" and rhs[0] == "const":
        a, b = lhs[1], rhs[1]
        try:
            if op == "+":
                return ("const", a + b)
            if op == "-":
                return ("const", a - b)
            if op == "*":
                return ("const", a * b)
            if op == "/":
                return ("const", int(a / b)) if b else None
            if op == "%":
                return ("const", a - int(a / b) * b) if b else None
        except (OverflowError, ValueError):  # pragma: no cover - defensive
            return None
        return None
    if op not in ("+", "-"):
        return None
    if lhs[0] == "affine" and rhs[0] == "const":
        _, index, sign, offset = lhs
        delta = rhs[1] if op == "+" else -rhs[1]
        return ("affine", index, sign, offset + delta)
    if lhs[0] == "const" and rhs[0] == "affine":
        _, index, sign, offset = rhs
        if op == "-":
            sign, offset = -sign, -offset
        return ("affine", index, sign, offset + lhs[1])
    return None


def summarize_blocks(
    fn: IRFunction, def_map: DefinitionMap
) -> Dict[str, BlockProgram]:
    """Reduce every block to a :class:`BlockProgram`."""
    return {
        block.label: _block_program(block, def_map) for block in fn.blocks
    }


def _block_program(block: BasicBlock, def_map: DefinitionMap) -> BlockProgram:
    program = BlockProgram(label=block.label, steps=[])
    env: Dict[Reg, Tuple] = {}
    for index, instruction in enumerate(block.instructions):
        if isinstance(instruction, Const):
            env[instruction.dest] = ("const", instruction.value)
        elif isinstance(instruction, BinOp):
            folded = _fold(
                instruction.op,
                _resolve(env, instruction.lhs),
                _resolve(env, instruction.rhs),
            )
            if folded is not None:
                env[instruction.dest] = folded
            else:
                env.pop(instruction.dest, None)
        elif isinstance(instruction, UnOp):
            src = _resolve(env, instruction.src)
            result: Optional[Tuple] = None
            if src is not None and instruction.op == "-":
                if src[0] == "const":
                    result = ("const", -src[1])
                else:
                    _, idx, sign, offset = src
                    result = ("affine", idx, -sign, -offset)
            elif instruction.op == "!" and src is not None and src[0] == "const":
                result = ("const", int(src[1] == 0))
            if result is not None:
                env[instruction.dest] = result
            else:
                env.pop(instruction.dest, None)
        elif isinstance(instruction, Cmp):
            # Materialized comparisons are untracked here (the auditor
            # tracks them; claiming less keeps claims re-provable).
            env.pop(instruction.dest, None)
        elif isinstance(instruction, Load):
            program.steps.append(("load", instruction.var, index))
            env[instruction.dest] = ("affine", index, 1, 0)
        elif isinstance(instruction, Store):
            value = _resolve(env, instruction.src)
            if value is None:
                spec: Tuple = ("top",)
            elif value[0] == "const":
                spec = ("const", value[1])
            else:
                _, idx, sign, offset = value
                spec = ("affine", idx, sign, offset)
            program.steps.append(("store", instruction.var, spec))
            continue  # the store step covers the def site exactly
        elif isinstance(instruction, Jump):
            program.jump_target = instruction.target
        elif isinstance(instruction, Return):
            program.is_return = True
        elif isinstance(instruction, CondBranch):
            program.branch_pc = instruction.address
            program.taken_target = instruction.taken
            program.fallthrough_target = instruction.fallthrough
        else:
            dest = getattr(instruction, "dest", None)
            if isinstance(dest, Reg):
                env.pop(dest, None)
        sites = def_map.at(block.label, index)
        if sites:
            affected = tuple(
                sorted({s.var for s in sites}, key=lambda v: (v.name, v.uid))
            )
            program.steps.append(("clobber", affected))
    return program


def _transfer(
    program: BlockProgram, env_in: FeasEnv
) -> Tuple[FeasEnv, Dict[int, FeasRange]]:
    """Exit environment + per-load snapshots (keyed by load index)."""
    env: FeasEnv = dict(env_in)
    snapshots: Dict[int, FeasRange] = {}
    for step in program.steps:
        kind = step[0]
        if kind == "load":
            snapshots[step[2]] = env.get(step[1], _FEAS_TOP)
        elif kind == "store":
            _, var, spec = step
            if spec[0] == "const":
                _env_set(env, var, FeasRange.point(spec[1]))
            elif spec[0] == "affine":
                _, idx, sign, offset = spec
                base = snapshots.get(idx, FeasRange.top())
                _env_set(env, var, base.affine_image(sign, offset))
            else:
                _env_set(env, var, FeasRange.top())
        else:  # clobber
            for var in step[1]:
                env.pop(var, None)
    return env, snapshots


#: One direction of one branch, ready to intersect: the check as
#: ``(load index, range)`` (``None`` without a check) and each
#: non-trivial inference as ``(var, range)``, in the facts' order.
EdgeRanges = Tuple[
    Optional[Tuple[int, FeasRange]], Tuple[Tuple[Variable, FeasRange], ...]
]

#: A branch block's edge ranges, per direction.
EdgeTable = Dict[bool, EdgeRanges]


def edge_tables(facts_by_pc: Dict[int, BranchFacts]) -> Dict[str, EdgeTable]:
    """Every analyzable branch block's edge table, keyed by block label.

    The ranges are fixed per block and direction, so a function builds
    them once and every visit of the edge only intersects."""
    tables: Dict[str, EdgeTable] = {}
    for facts in facts_by_pc.values():
        check = facts.check
        table: EdgeTable = {}
        for taken in (True, False):
            checked: Optional[Tuple[int, FeasRange]] = None
            if check is not None:
                checked = (
                    check.load_index,
                    FeasRange.from_outcome(check.outcome_set(taken)),
                )
            implied: List[Tuple[Variable, FeasRange]] = []
            for inference in facts.inferences:
                outcome = inference.implied_set(taken)
                if not outcome.is_trivial:
                    implied.append(
                        (inference.var, FeasRange.from_outcome(outcome))
                    )
            table[taken] = (checked, tuple(implied))
        tables[facts.block_label] = table
    return tables


def _edge_env(
    table: Optional[EdgeTable],
    env_out: FeasEnv,
    snapshots: Dict[int, FeasRange],
    taken: bool,
) -> Optional[FeasEnv]:
    """The environment flowing along one conditional edge, refined by
    the direction's ranges — ``None`` when the direction is infeasible
    from this abstract state (a pruned edge).  A missing snapshot or
    binding is top: it never prunes, and takes a stored range as is."""
    if table is None:
        return dict(env_out)
    check, implied = table[taken]
    if check is not None:
        tested = snapshots.get(check[0])
        if tested is not None and tested.intersect(check[1]).is_empty:
            return None
    env = dict(env_out)
    for var, allowed in implied:
        current = env.get(var)
        refined = allowed if current is None else current.intersect(allowed)
        if refined.is_empty:
            return None
        _env_set(env, var, refined)
    return env


# ----------------------------------------------------------------------
# The per-edge feasible-path MFP
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleFinding:
    """One forced branch outcome proved from one conditional edge.

    ``forced`` is the direction the target branch must take on every
    feasible path after the source edge commits; ``implied`` renders the
    propagated value set at the checked load; ``witness`` lists the
    conditional edges (``"label:T"`` / ``"label:NT"``) pruned as
    infeasible at the fixpoint — the feasibility facts the ``FP7xx``
    audit re-proves."""

    source_pc: int
    taken: bool
    target_pc: int
    forced: bool
    implied: str
    witness: Tuple[str, ...]


@dataclass
class FeasibleAnalysis:
    """All findings of one function, keyed for the BAT construction."""

    #: (source_pc, direction) -> target_pc -> finding
    findings: Dict[Tuple[int, bool], Dict[int, FeasibleFinding]]

    def for_edge(self, source_pc: int, taken: bool) -> Dict[int, FeasibleFinding]:
        return self.findings.get((source_pc, taken), {})


def render_edge(label: str, taken: bool) -> str:
    """Canonical pruned-edge witness rendering (shared with the audit
    only as a *format*, not as reasoning)."""
    return f"{label}:{'T' if taken else 'NT'}"


#: A block's last visit in one fixpoint: its load snapshots and the
#: directions its edge ranges refused.
_Visit = Tuple[Dict[int, FeasRange], Tuple[bool, ...]]


def propagate_from_edge(
    programs: Dict[str, BlockProgram],
    tables: Dict[str, EdgeTable],
    source_label: str,
    taken: bool,
    prune: bool = True,
) -> Optional[Tuple[Dict[str, FeasEnv], Set[Tuple[str, bool]]]]:
    """Feasible-path MFP seeded at one conditional edge.

    Returns ``(states, pruned)`` — block-entry environments for every
    reached block and the conditional edges found infeasible at the
    fixpoint — or ``None`` when the source direction itself is
    statically infeasible.  ``prune=False`` propagates infeasible edges
    *unrefined* instead of dropping them (the plain-MFP comparison the
    property tests exercise)."""
    solved = _solve_edge(programs, tables, source_label, taken, prune)
    if solved is None:
        return None
    states, visits = solved
    return states, _pruned(visits)


def _solve_edge(
    programs: Dict[str, BlockProgram],
    tables: Dict[str, EdgeTable],
    source_label: str,
    taken: bool,
    prune: bool,
) -> Optional[Tuple[Dict[str, FeasEnv], Dict[str, _Visit]]]:
    """:func:`propagate_from_edge`, with each block's last visit."""
    source = programs[source_label]
    env_out, snapshots = _transfer(source, {})
    seed = _edge_env(tables.get(source_label), env_out, snapshots, taken)
    if seed is None:
        return None
    start = source.taken_target if taken else source.fallthrough_target
    states: Dict[str, FeasEnv] = {start: seed}
    return states, _iterate_states(programs, tables, states, [start], prune)


def _iterate_states(
    programs: Dict[str, BlockProgram],
    tables: Dict[str, EdgeTable],
    states: Dict[str, FeasEnv],
    worklist: List[str],
    prune: bool,
) -> Dict[str, _Visit]:
    """Run the forward range worklist to a fixpoint, in place.

    Returns every reached block's last visit.  A block is queued again
    whenever its state changes, so its last visit ran on its final
    state: the snapshots are the fixpoint's, and the refused directions
    are the edges infeasible at the fixpoint.  Only those are honest
    witnesses — an edge refused on an earlier visit may have become
    feasible once more state joined in."""
    visits: Dict[str, _Visit] = {}
    join_counts: Dict[str, int] = {}
    while worklist:
        label = worklist.pop()
        program = programs[label]
        env_out, snapshots = _transfer(program, states[label])
        refused: Tuple[bool, ...] = ()
        edges: List[Tuple[str, FeasEnv]] = []
        if program.jump_target is not None:
            edges.append((program.jump_target, env_out))
        elif not program.is_return:
            table = tables.get(label)
            for direction in (True, False):
                edge_env = _edge_env(table, env_out, snapshots, direction)
                if edge_env is None:
                    if prune:
                        refused += (direction,)
                        continue
                    edge_env = dict(env_out)
                target = (
                    program.taken_target
                    if direction
                    else program.fallthrough_target
                )
                edges.append((target, edge_env))
        visits[label] = (snapshots, refused)
        for next_label, env in edges:
            old = states.get(next_label)
            if old is None:
                states[next_label] = env
                worklist.append(next_label)
                continue
            joined = _env_join(old, env)
            if joined is old:
                continue
            count = join_counts.get(next_label, 0) + 1
            join_counts[next_label] = count
            if count > WIDEN_AFTER:
                joined = _env_widen(old, joined)
                if joined == old:
                    continue
            states[next_label] = joined
            worklist.append(next_label)
    return visits


def _pruned(visits: Dict[str, _Visit]) -> Set[Tuple[str, bool]]:
    """The conditional edges infeasible at the fixpoint."""
    return {
        (label, direction)
        for label, (_, refused) in visits.items()
        for direction in refused
    }


def entry_reachability(
    fn: IRFunction,
    def_map: DefinitionMap,
    facts_by_pc: Dict[int, BranchFacts],
) -> Tuple[Set[str], Set[Tuple[str, bool]]]:
    """Entry-seeded feasible propagation: which blocks any feasible
    execution can reach, and which conditional edges are pruned.

    Same machinery as :func:`propagate_from_edge`, but seeded at the
    function entry with everything unknown — the whole-function view.
    Returns ``(reached block labels, pruned conditional edges)``.
    Consumers: the opt-3 dead-branch lint (``DEAD405`` — blocks only
    reachable along pruned edges) and the detectability prover's
    clean-prefix BSV refinement (the must-state at a tamper point only
    needs to hold over *feasible* clean prefixes).
    """
    programs = summarize_blocks(fn, def_map)
    entry = fn.entry.label
    states: Dict[str, FeasEnv] = {entry: {}}
    visits = _iterate_states(
        programs, edge_tables(facts_by_pc), states, [entry], prune=True
    )
    return set(states), _pruned(visits)


def analyze_feasible(
    fn: IRFunction,
    def_map: DefinitionMap,
    facts_by_pc: Dict[int, BranchFacts],
) -> FeasibleAnalysis:
    """Run the feasible-path MFP from every conditional edge."""
    programs = summarize_blocks(fn, def_map)
    tables = edge_tables(facts_by_pc)
    facts_of_label = {
        facts.block_label: facts for facts in facts_by_pc.values()
    }
    findings: Dict[Tuple[int, bool], Dict[int, FeasibleFinding]] = {}
    for block in fn.blocks:
        if not block.ends_in_cond_branch():
            continue
        source_pc = block.terminator.address
        for taken in (True, False):
            solved = _solve_edge(programs, tables, block.label, taken, True)
            if solved is None:
                continue
            states, visits = solved
            witness = tuple(
                sorted(render_edge(label, d) for label, d in _pruned(visits))
            )
            per_target: Dict[int, FeasibleFinding] = {}
            for label in states:
                facts = facts_of_label.get(label)
                if facts is None or facts.check is None:
                    continue
                snapshots, _ = visits[label]
                tested = snapshots.get(
                    facts.check.load_index, FeasRange.top()
                )
                if tested.is_empty:
                    continue
                if tested.within_outcome(facts.check.taken_set):
                    forced = True
                elif tested.within_outcome(facts.check.nottaken_set):
                    forced = False
                else:
                    continue
                per_target[facts.pc] = FeasibleFinding(
                    source_pc=source_pc,
                    taken=taken,
                    target_pc=facts.pc,
                    forced=forced,
                    implied=str(tested),
                    witness=witness,
                )
            if per_target:
                findings[(source_pc, taken)] = per_target
    return FeasibleAnalysis(findings=findings)
