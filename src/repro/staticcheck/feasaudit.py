"""Feasible-path action audit (pass: feasible-audit).

At ``--opt 3`` the builder adds ``SET_T``/``SET_NT`` entries proved by
its feasible-path MFP (:mod:`repro.analysis.feasible`): a forward range
propagation seeded at the source edge in which conditional edges whose
direction contradicts the propagated ranges are *pruned* instead of
merged over.  Every such entry carries a ``feasible-path`` provenance
record whose ``witness`` lists the pruned edges.  This pass re-proves
each record from the auditor's *own* forward facts
(:mod:`repro.staticcheck.facts`) under a **witness-restricted** MFP:

* ``FP701`` — a ``feasible-path`` provenance record does not
  correspond to a live BAT SET entry (tampered or stale sidecar);
* ``FP702`` — a pruned-edge witness is not independently re-provable:
  a witness names an unknown or non-conditional block, or the edge is
  reached at the fixpoint and is *feasible* from the re-derived state;
* ``FP703`` — the claimed outcome does not hold at the target under
  the witness-restricted propagation: the range was laundered through
  a pruned merge the record never declared (or the action was
  flipped).

The laundering guard is the heart of the protocol: during propagation
an infeasible direction is dropped **only when the record's witness
declares it**.  Any other direction propagates — refined by every
constraint that does not empty a binding, so the state stays as tight
as the builder's without ever *emulating* a prune (a propagated
environment is never empty).  Pruning the builder never claimed
therefore cannot silently rescue the proof: deleting a load-bearing
witness entry turns into ``FP703``, fabricating one into ``FP702``.

The shared trust base with the builder stays the may-write model
(alias sets, purity, :class:`~repro.analysis.defs.DefinitionMap`); the
block facts, transfer functions and the range lattice are the
auditor's own (:mod:`repro.staticcheck.facts`,
:mod:`repro.staticcheck.domain`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.alias import analyze_aliases
from ..analysis.defs import DefinitionMap
from ..analysis.purity import PurityResult, analyze_purity
from ..correlation.actions import BranchAction
from ..correlation.provenance import REASON_FEASIBLE, ActionProvenance
from ..correlation.tables import FunctionTables
from ..ir.function import IRFunction, IRModule
from .diagnostics import Diagnostic, DiagnosticSink
from .domain import TOP, Env, ValueRange, env_set, intersect, render, subset_of_outcome
from .facts import BlockSummary, Term, edge_environment, summarize_function, transfer_block
from .mfp import EdgeRule, solve_from_edge

FEASAUDIT_PASS = "feasible-audit"

#: A parsed witness edge: (block label, direction).
Edge = Tuple[str, bool]

#: A witness fixpoint's memo key: (source label, direction, witness).
_FixpointKey = Tuple[str, bool, FrozenSet[Edge]]


def audit_feasible(
    program, purity: Optional[PurityResult] = None
) -> List[Diagnostic]:
    """Audit every function's feasible-path provenance records."""
    sink = DiagnosticSink(FEASAUDIT_PASS)
    module: IRModule = program.module
    if purity is None:
        analyze_aliases(module)
        purity = analyze_purity(module)
    for fn in module.functions:
        tables = program.tables.by_function.get(fn.name)
        if tables is None:
            continue  # correlation-audit reports COR210
        _audit_function(sink, fn, module, tables, purity)
    return sink.diagnostics


def _audit_function(
    sink: DiagnosticSink,
    fn: IRFunction,
    module: IRModule,
    tables: FunctionTables,
    purity: PurityResult,
) -> None:
    # Structural preconditions (hash collisions, PC drift) belong to the
    # correlation audit; without them slot identities are meaningless,
    # so bail rather than report nonsense here.
    ir_pcs = tuple(sorted(b.address for b in fn.cond_branches()))
    if tuple(sorted(tables.branch_pcs)) != ir_pcs:
        return
    slots = {tables.slot_of(pc) for pc in tables.branch_pcs}
    if len(slots) != len(tables.branch_pcs):
        return

    records = [
        record
        for record in tables.provenance
        if record.reason == REASON_FEASIBLE
    ]
    if not records:
        return

    def_map = DefinitionMap(fn, module, purity)
    summaries = summarize_function(fn, def_map)
    label_of_pc: Dict[int, str] = {
        summary.branch_pc: summary.label
        for summary in summaries.values()
        if summary.branch_pc is not None
    }

    fixpoints: Dict[_FixpointKey, Optional[Dict[str, Env]]] = {}
    for record in records:
        # -- FP701: the record must back a live SET entry ------------
        target_slot = tables.slot_of(record.target_pc)
        live = record.action in (
            BranchAction.SET_T.value,
            BranchAction.SET_NT.value,
        ) and any(
            entry_target == target_slot and action.value == record.action
            for entry_target, action in tables.actions_for(
                record.source_pc, record.taken
            )
        )
        if not live:
            sink.emit(
                "FP701",
                f"feasible-path record claims ({record.source_block}, "
                f"{record.direction}) -> {record.action} "
                f"{record.target_block}, but no such BAT entry is live",
                function=fn.name,
                block=record.source_block,
                pc=record.source_pc,
            )
            continue
        _reprove_record(sink, fn, summaries, label_of_pc, record, fixpoints)


def _parse_witness(
    summaries: Dict[str, BlockSummary], record: ActionProvenance
) -> Tuple[Optional[Set[Edge]], Optional[str]]:
    """Parse and structurally validate the pruned-edge witness.

    Returns ``(edges, None)`` on success, ``(None, complaint)`` when a
    witness entry is malformed or names a non-conditional edge."""
    edges: Set[Edge] = set()
    for entry in record.witness or ():
        label, sep, direction = entry.rpartition(":")
        if not sep or direction not in ("T", "NT"):
            return None, f"malformed witness edge {entry!r}"
        summary = summaries.get(label)
        if summary is None:
            return None, f"witness names unknown block {label!r}"
        if summary.branch_pc is None:
            return None, (
                f"witness edge {entry!r} is not a conditional edge "
                f"(block has no conditional branch)"
            )
        edges.add((label, direction == "T"))
    return edges, None


def _reprove_record(
    sink: DiagnosticSink,
    fn: IRFunction,
    summaries: Dict[str, BlockSummary],
    label_of_pc: Dict[int, str],
    record: ActionProvenance,
    fixpoints: Dict[_FixpointKey, Optional[Dict[str, Env]]],
) -> None:
    """Re-prove one record under the witness-restricted MFP.

    The fixpoint depends only on the source edge and the witness, so
    ``fixpoints`` memoizes it per function under exactly that key."""
    where = (
        f"({record.source_block}, {record.direction}) -> "
        f"{record.action} {record.target_block}"
    )

    witness, complaint = _parse_witness(summaries, record)
    if witness is None:
        sink.emit(
            "FP702",
            f"{where}: {complaint}",
            function=fn.name,
            block=record.source_block,
            pc=record.source_pc,
        )
        return

    source_label = label_of_pc.get(record.source_pc)
    target_label = label_of_pc.get(record.target_pc)
    if source_label is None or target_label is None:
        sink.emit(
            "FP702",
            f"{where}: the record's source or target is not a "
            f"conditional branch",
            function=fn.name,
            block=record.source_block,
            pc=record.source_pc,
        )
        return

    key = (source_label, record.taken, frozenset(witness))
    if key not in fixpoints:
        fixpoints[key] = solve_from_edge(
            summaries, summaries[source_label], record.taken, _witness_rule(witness)
        )
    states = fixpoints[key]
    if states is None:
        return  # the source direction never executes: vacuously true

    # -- FP702: every *reached* witness edge must re-prove infeasible
    # at the fixpoint (unreached sources are vacuous — the edge cannot
    # occur after the source direction commits) ----------------------
    for label, direction in sorted(witness):
        if label not in states:
            continue
        summary = summaries[label]
        env_out, snapshots = transfer_block(summary, states[label])
        if edge_environment(summary, env_out, snapshots, direction) is not None:
            sink.emit(
                "FP702",
                f"{where}: witnessed pruned edge "
                f"{label}:{'T' if direction else 'NT'} is feasible "
                f"from the re-derived state — the infeasibility claim "
                f"does not re-prove",
                function=fn.name,
                block=label,
                pc=summary.branch_pc,
            )
            return

    # -- FP703: the forced outcome must hold at the target -----------
    if target_label not in states:
        return  # target unreached after the edge: vacuously safe
    target = summaries[target_label]
    env_out, snapshots = transfer_block(target, states[target_label])
    check = target.check
    if check is None or record.var != check.var.name:
        sink.emit(
            "FP702",
            f"{where}: no matching check predicate is derivable for "
            f"the target branch",
            function=fn.name,
            block=target_label,
            pc=record.target_pc,
        )
        return
    tested = snapshots.get(check.term, TOP)
    claimed = check.outcome_set(record.action == BranchAction.SET_T.value)
    if not subset_of_outcome(tested, claimed):
        sink.emit(
            "FP703",
            f"{where}: under the declared witness the checked value "
            f"reaches {render(tested)}, which does not force outcome set "
            f"{claimed} — the claimed range is laundered through an "
            f"unproven pruned merge",
            function=fn.name,
            block=target_label,
            pc=record.target_pc,
        )


def _witness_rule(witness: Set[Edge]) -> EdgeRule:
    """The edge rule that may prune *only* the declared witness edges.

    Every other edge propagates — an infeasible one with
    :func:`_relaxed_refinement`, which applies each direction-implied
    constraint but never drops the edge — so undeclared pruning can
    never carry the proof."""

    def rule(
        summary: BlockSummary, env_out: Env, snapshots: Dict[Term, ValueRange], direction: bool
    ) -> Optional[Env]:
        if (summary.label, direction) in witness:
            return None  # the record claims this edge never runs
        edge_env = edge_environment(summary, env_out, snapshots, direction)
        if edge_env is None:
            # Infeasible but undeclared: propagate a relaxed refinement
            # instead of pruning.
            return _relaxed_refinement(summary, env_out, direction)
        return edge_env

    return rule


def _relaxed_refinement(summary: BlockSummary, env_out: Env, taken: bool) -> Env:
    """The direction's constraint refinement without the infeasibility
    bail-outs.

    Used for edges the auditor finds infeasible but the record does not
    declare pruned.  Each direction-implied constraint is intersected
    in — *including* ones that empty a binding.  An empty binding is a
    per-variable fact the auditor derives locally (along this edge that
    variable has no possible value) and it dissolves at the next join,
    so a transiently-infeasible edge cannot poison the accumulated
    fixpoint the way an unrefined environment would.  What the function
    never does is drop the edge: every *other* variable's range still
    flows, so an undeclared prune whose purpose was to stop some other
    variable's hostile range cannot be silently re-enacted — deleting
    that witness entry surfaces as ``FP703``."""
    env: Env = dict(env_out)
    for var, values in summary.edge_values[taken][1]:
        current = env.get(var)
        env_set(env, var, values if current is None else intersect(current, values))
    return env
