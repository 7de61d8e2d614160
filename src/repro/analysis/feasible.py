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
from .ranges import NEG_INF, POS_INF, Interval

#: Joins into one block before widening kicks in (matches the auditor's
#: MFP so honest witnesses re-prove under the same loop treatment).
WIDEN_AFTER = 8


# ----------------------------------------------------------------------
# The builder's range lattice: an interval minus at most one interior
# point, as a flat ``(lo, hi, hole)`` tuple in canonical form.
# Semantically the twin of the auditor's ranges
# (:mod:`repro.staticcheck.domain`), implemented independently so the
# two sides share no reasoning code.  All operations over-approximate.
# ----------------------------------------------------------------------

#: ``[lo, hi] \ {hole}``; empty when ``lo > hi``; no hole is ``None``.
Range = Tuple[float, float, Optional[int]]

#: No information.
TOP: Range = (NEG_INF, POS_INF, None)


def canonical(lo: float, hi: float, hole: Optional[int]) -> Range:
    """Drop holes outside the interval; fold endpoint holes inward."""
    if hole is None or not lo <= hole <= hi:
        return (lo, hi, None)
    if lo == hi:
        return (1, 0, None)
    if hole == lo:
        return (lo + 1, hi, None)
    if hole == hi:
        return (lo, hi - 1, None)
    return (lo, hi, hole)


def from_outcome(outcome: OutcomeSet) -> Range:
    interval = outcome.interval
    if interval is not None:
        return (interval.lo, interval.hi, None)
    return canonical(NEG_INF, POS_INF, outcome.hole)


def within_outcome(values: Range, outcome: OutcomeSet) -> bool:
    """Every value of ``values`` satisfies ``outcome`` — the forced-
    outcome test at a checked branch."""
    lo, hi, hole = values
    if lo > hi:
        return True
    interval = outcome.interval
    if interval is not None:
        return Interval(lo, hi).subsumes(interval)
    excluded = outcome.hole
    assert excluded is not None  # the punctured side of == / !=
    return not lo <= excluded <= hi or hole == excluded


def intersect(a: Range, b: Range) -> Range:
    hole = a[2] if a[2] is not None else b[2]
    return canonical(max(a[0], b[0]), min(a[1], b[1]), hole)


def affine_image(values: Range, sign: int, offset: int) -> Range:
    """``{sign * v + offset : v in values}`` (``sign`` is ±1)."""
    lo, hi, hole = values
    if lo > hi:
        return (lo, hi, None)
    if sign == -1:
        lo, hi = -hi, -lo
    image = None if hole is None else sign * hole + offset
    return canonical(lo + offset, hi + offset, image)


def render(values: Range) -> str:
    interval = str(Interval(values[0], values[1]))
    return interval if values[2] is None else f"{interval}\\{{{values[2]}}}"


#: Abstract environment: variable slot -> range; missing means top.
FeasEnv = Dict[int, Range]


def _env_join(a: FeasEnv, b: FeasEnv) -> FeasEnv:
    """Pointwise join in one pass over ``a``; top is dropped.  A range
    both sides agree on is its own join and ``a``'s is reused.  The
    one-hole join is the convex hull, keeping the first of ``a``'s and
    ``b``'s holes that neither side contains (a canonical hole is
    interior to its range, so to the hull); ``a``'s range goes on the
    left, so the choice depends on the operand order.  When the join
    equals ``a``, ``a`` itself is returned, so callers test for a
    change with ``is``."""
    joined: FeasEnv = {}
    same = True
    for var, mine in a.items():
        theirs = b.get(var)
        if theirs is None:
            same = False
            continue
        value = mine
        if mine is not theirs and mine != theirs:
            lo, hi, hole = mine
            tlo, thi, thole = theirs
            if lo > hi:
                value = theirs
            elif tlo <= thi:
                jlo = tlo if tlo < lo else lo
                jhi = thi if thi > hi else hi
                if hole is not None and (hole == thole or not tlo <= hole <= thi):
                    value = (jlo, jhi, hole)
                elif thole is not None and not lo <= thole <= hi:
                    value = (jlo, jhi, thole)
                else:
                    value = (jlo, jhi, None)
            if value != mine:
                same = False
        if value == TOP:
            same = False
        else:
            joined[var] = value
    return a if same else joined


def _env_widen(old: FeasEnv, new: FeasEnv) -> FeasEnv:
    """Pointwise widening in one pass over ``old``: bounds that grew
    jump to ±inf, a hole survives only where both sides keep it (a
    range both sides agree on widens to itself)."""
    widened: FeasEnv = {}
    for var, mine in old.items():
        theirs = new.get(var)
        if theirs is None:
            continue
        if mine is not theirs and mine != theirs:
            lo, hi, hole = mine
            nlo, nhi, nhole = theirs
            if lo > hi:
                lo, hi = nlo, nhi
            elif nlo <= nhi:
                lo = lo if nlo >= lo else NEG_INF
                hi = hi if nhi <= hi else POS_INF
            mine = canonical(lo, hi, hole if hole == nhole else None)
        if mine != TOP:
            widened[var] = mine
    return widened


def _env_set(env: FeasEnv, var: int, value: Range) -> None:
    if value == TOP:
        env.pop(var, None)
    else:
        env[var] = value


# ----------------------------------------------------------------------
# Per-block interval-transfer programs
# ----------------------------------------------------------------------

#: A function's variable numbering: each variable's small-int slot,
#: shared by its block programs, edge tables and environments.
Slots = Dict[Variable, int]

#: Steps: ("load", slot, index) | ("store", slot, spec) | ("clobber",
#: slots) with store specs ("const", c) | ("affine", load_index, sign,
#: offset) | ("top",).  Calls and indirect stores become plain clobbers
#: — opt 3 deliberately claims *less* per transfer than the auditor can
#: prove, so every claim survives re-proof.
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


def _slot(slots: Slots, var: Variable) -> int:
    return slots.setdefault(var, len(slots))


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
    fn: IRFunction, def_map: DefinitionMap, slots: Slots
) -> Dict[str, BlockProgram]:
    """Reduce every block to a :class:`BlockProgram`, numbering each
    variable it names in ``slots``."""
    return {
        block.label: _block_program(block, def_map, slots)
        for block in fn.blocks
    }


def _block_program(
    block: BasicBlock, def_map: DefinitionMap, slots: Slots
) -> BlockProgram:
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
            program.steps.append(("load", _slot(slots, instruction.var), index))
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
            program.steps.append(("store", _slot(slots, instruction.var), spec))
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
            affected = sorted({s.var for s in sites}, key=lambda v: (v.name, v.uid))
            program.steps.append(
                ("clobber", tuple(_slot(slots, var) for var in affected))
            )
    return program


def _transfer(
    program: BlockProgram, env_in: FeasEnv
) -> Tuple[FeasEnv, Dict[int, Range]]:
    """Exit environment + per-load snapshots (keyed by load index)."""
    env: FeasEnv = dict(env_in)
    snapshots: Dict[int, Range] = {}
    for step in program.steps:
        kind = step[0]
        if kind == "load":
            snapshots[step[2]] = env.get(step[1], TOP)
        elif kind == "store":
            _, var, spec = step
            if spec[0] == "const":
                value: Range = (spec[1], spec[1], None)
            elif spec[0] == "affine":
                _, idx, sign, offset = spec
                value = affine_image(snapshots.get(idx, TOP), sign, offset)
            else:
                value = TOP
            _env_set(env, var, value)
        else:  # clobber
            for var in step[1]:
                env.pop(var, None)
    return env, snapshots


#: One direction of one branch, ready to intersect: the check as
#: ``(load index, range)`` (``None`` without a check) and each
#: non-trivial inference as ``(slot, range)``, in the facts' order.
EdgeRanges = Tuple[Optional[Tuple[int, Range]], Tuple[Tuple[int, Range], ...]]

#: A branch block's edge ranges, per direction.
EdgeTable = Dict[bool, EdgeRanges]


def edge_tables(
    facts_by_pc: Dict[int, BranchFacts], slots: Slots
) -> Dict[str, EdgeTable]:
    """Every analyzable branch block's edge table, keyed by block label
    (inferred variables numbered in ``slots``).

    The ranges are fixed per block and direction, so a function builds
    them once and every visit of the edge only intersects."""
    tables: Dict[str, EdgeTable] = {}
    for facts in facts_by_pc.values():
        check = facts.check
        table: EdgeTable = {}
        for taken in (True, False):
            checked: Optional[Tuple[int, Range]] = None
            if check is not None:
                checked = (
                    check.load_index,
                    from_outcome(check.outcome_set(taken)),
                )
            implied: List[Tuple[int, Range]] = []
            for inference in facts.inferences:
                outcome = inference.implied_set(taken)
                if not outcome.is_trivial:
                    implied.append(
                        (_slot(slots, inference.var), from_outcome(outcome))
                    )
            table[taken] = (checked, tuple(implied))
        tables[facts.block_label] = table
    return tables


def _edge_env(
    table: Optional[EdgeTable],
    env_out: FeasEnv,
    snapshots: Dict[int, Range],
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
        if tested is not None:
            lo, hi, _ = intersect(tested, check[1])
            if lo > hi:
                return None
    env = dict(env_out)
    for var, allowed in implied:
        current = env.get(var)
        refined = allowed if current is None else intersect(current, allowed)
        if refined[0] > refined[1]:
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
_Visit = Tuple[Dict[int, Range], Tuple[bool, ...]]


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
    slots: Slots = {}
    programs = summarize_blocks(fn, def_map, slots)
    entry = fn.entry.label
    states: Dict[str, FeasEnv] = {entry: {}}
    visits = _iterate_states(
        programs, edge_tables(facts_by_pc, slots), states, [entry], prune=True
    )
    return set(states), _pruned(visits)


def analyze_feasible(
    fn: IRFunction,
    def_map: DefinitionMap,
    facts_by_pc: Dict[int, BranchFacts],
) -> FeasibleAnalysis:
    """Run the feasible-path MFP from every conditional edge."""
    slots: Slots = {}
    programs = summarize_blocks(fn, def_map, slots)
    tables = edge_tables(facts_by_pc, slots)
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
                tested = snapshots.get(facts.check.load_index, TOP)
                if tested[0] > tested[1]:
                    continue
                if within_outcome(tested, facts.check.taken_set):
                    forced = True
                elif within_outcome(tested, facts.check.nottaken_set):
                    forced = False
                else:
                    continue
                per_target[facts.pc] = FeasibleFinding(
                    source_pc=source_pc,
                    taken=taken,
                    target_pc=facts.pc,
                    forced=forced,
                    implied=render(tested),
                    witness=witness,
                )
            if per_target:
                findings[(source_pc, taken)] = per_target
    return FeasibleAnalysis(findings=findings)
