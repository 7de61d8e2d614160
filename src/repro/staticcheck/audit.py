"""Correlation soundness auditor (pass: correlation-audit) and binary
image auditor (pass: image-audit).

The paper's headline guarantee is **zero false positives**: every
``SET_T``/``SET_NT`` action the compiler placed in the BAT must hold on
*all* feasible paths from the edge that fires it to the branch it
predicts — otherwise IPDS raises an alarm on a legitimate run (§4–5).
This module re-proves that property with machinery deliberately
independent of :mod:`repro.correlation.bat_builder`:

* facts come from the forward symbolic walk in
  :mod:`repro.staticcheck.facts` (the builder uses a backward chain
  walk in ``analysis/branch_info.py``);
* the proof is a path-sensitive maximum-fixpoint range propagation
  seeded at the firing edge, instead of the builder's region-based
  kill placement.

For one BAT entry ``((bs, d) -> bl, SET_x)`` the obligation is: on
every feasible path from edge ``(bs, d)`` on which the prediction is
still *live* (no later crossed edge fires an action into ``bl``'s slot
— the runtime BSV keeps a status until overwritten), any execution of
``bl`` goes in direction ``x``.  The MFP over-approximates the set of
machine states reaching each block while the prediction is live;
cutting propagation at every overwriting edge models liveness exactly,
and directions contradicting the abstract state are pruned as
infeasible.  ``SET_UN`` needs no proof (it only weakens detection).

The shared trust base with the builder is the *may-write* model
(alias sets, purity, :class:`~repro.analysis.defs.DefinitionMap`):
both sides must agree on what a call or indirect store can clobber,
or the audit would flag sound entries.  Everything above that layer —
implication derivation, subsumption, kill/liveness reasoning — is
recomputed here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.alias import analyze_aliases
from ..analysis.branch_info import OutcomeSet
from ..analysis.defs import DefinitionMap
from ..analysis.purity import PurityResult, analyze_purity
from ..correlation.actions import BranchAction
from ..correlation.binary_image import (
    _ACTION_CODES,
    _pack_bat,
    _pack_bcv,
    load_program,
)
from ..correlation.encoding import table_sizes
from ..correlation.hashing import MAX_BITS, MAX_SHIFT
from ..correlation.provenance import sort_records
from ..correlation.tables import EventKey, FunctionTables
from ..ir.function import IRFunction, IRModule
from .diagnostics import Diagnostic, DiagnosticSink
from .domain import TOP, Env, ValueRange, render, subset_of_outcome
from .facts import (
    BlockSummary,
    Term,
    edge_environment,
    summarize_function,
    transfer_block,
)
from .ipsummaries import IPSummaries, derive_ipsummaries
from .mfp import EdgeRule, solve_from_edge

AUDIT_PASS = "correlation-audit"
IMAGE_PASS = "image-audit"

#: A live fixpoint's memo key: (source label, direction, cut set).
_FixpointKey = Tuple[str, bool, FrozenSet[EventKey]]


def audit_program(program, purity: Optional[PurityResult] = None) -> List[Diagnostic]:
    """Audit every function's tables of a
    :class:`~repro.pipeline.ProtectedProgram`."""
    sink = DiagnosticSink(AUDIT_PASS)
    module: IRModule = program.module
    if purity is None:
        analyze_aliases(module)
        purity = analyze_purity(module)
    # Interprocedural transfer summaries, re-derived from the auditor's
    # own facts.  Used unconditionally: at opt 0/1 they only *add*
    # precision over call-clobbers-to-top, so every previously provable
    # entry stays provable; at opt 2 they are what makes the builder's
    # suppressed-kill entries provable at all.
    transfers = derive_ipsummaries(module, purity)
    for fn in module.functions:
        tables = program.tables.by_function.get(fn.name)
        if tables is None:
            sink.emit(
                "COR210",
                "no tables were emitted for this function",
                function=fn.name,
            )
            continue
        audit_function_tables(sink, fn, module, tables, purity, transfers)
    return sink.diagnostics


def audit_function_tables(
    sink: DiagnosticSink,
    fn: IRFunction,
    module: IRModule,
    tables: FunctionTables,
    purity: PurityResult,
    transfers: Optional[IPSummaries] = None,
) -> None:
    params = tables.hash_params
    ir_pcs = tuple(sorted(branch.address for branch in fn.cond_branches()))
    if tuple(sorted(tables.branch_pcs)) != ir_pcs:
        sink.emit(
            "COR210",
            f"tables list branch PCs {[hex(p) for p in tables.branch_pcs]} "
            f"but the IR has {[hex(p) for p in ir_pcs]}",
            function=fn.name,
        )
        return

    if (
        params.bits < 0
        or params.bits > MAX_BITS
        or not (1 <= params.shift1 <= MAX_SHIFT)
        or not (params.shift1 <= params.shift2 <= MAX_SHIFT)
        or params.space < len(tables.branch_pcs)
    ):
        sink.emit(
            "COR207",
            f"{params} cannot host {len(tables.branch_pcs)} branches "
            f"within the compiler's search limits",
            function=fn.name,
        )
        return

    # -- collision freeness (recomputed, not trusted) -------------------
    slot_of_pc: Dict[int, int] = {}
    pcs_of_slot: Dict[int, List[int]] = {}
    for pc in tables.branch_pcs:
        slot = params.slot(pc)
        slot_of_pc[pc] = slot
        pcs_of_slot.setdefault(slot, []).append(pc)
    collided = False
    for slot, pcs in sorted(pcs_of_slot.items()):
        if len(pcs) > 1:
            collided = True
            sink.emit(
                "COR201",
                f"branch PCs {[hex(p) for p in pcs]} all hash to slot "
                f"{slot} — the tagless tables would conflate them",
                function=fn.name,
            )
    if collided:
        return  # slot identities are meaningless from here on

    valid_slots = set(slot_of_pc.values())

    # -- slot validity of BCV and BAT -----------------------------------
    for slot in sorted(tables.bcv_slots):
        if slot not in valid_slots:
            sink.emit(
                "COR202",
                f"BCV marks slot {slot}, which no branch PC hashes to",
                function=fn.name,
            )
    set_targets: Set[int] = set()
    for (source_slot, taken), entries in sorted(tables.bat.items()):
        if source_slot not in valid_slots:
            sink.emit(
                "COR203",
                f"BAT event key (slot {source_slot}, "
                f"{'taken' if taken else 'not-taken'}) is not a branch slot",
                function=fn.name,
            )
            continue
        for target_slot, action in entries:
            if target_slot not in valid_slots:
                sink.emit(
                    "COR204",
                    f"action {action.value} from (slot {source_slot}, "
                    f"{'T' if taken else 'NT'}) targets non-branch slot "
                    f"{target_slot}",
                    function=fn.name,
                )
                continue
            if target_slot not in tables.bcv_slots:
                sink.emit(
                    "COR208",
                    f"action {action.value} targets slot {target_slot}, "
                    f"which the BCV never verifies (dead table weight)",
                    function=fn.name,
                )
            if action in (BranchAction.SET_T, BranchAction.SET_NT):
                set_targets.add(target_slot)
    for slot in sorted(tables.bcv_slots & valid_slots):
        if slot not in set_targets:
            sink.emit(
                "COR209",
                f"slot {slot} is verified by the BCV but no SET action "
                f"ever predicts it (always UNKNOWN at runtime)",
                function=fn.name,
            )

    # -- the soundness proof itself -------------------------------------
    def_map = DefinitionMap(fn, module, purity)
    summaries = summarize_function(fn, def_map)
    label_of_slot: Dict[int, str] = {}
    for summary in summaries.values():
        if summary.branch_pc is not None and summary.branch_pc in slot_of_pc:
            label_of_slot[slot_of_pc[summary.branch_pc]] = summary.label

    unverifiable: Set[int] = set()
    fixpoints: Dict[_FixpointKey, Optional[Dict[str, Env]]] = {}
    for (source_slot, taken), entries in sorted(tables.bat.items()):
        if source_slot not in valid_slots:
            continue
        for target_slot, action in entries:
            if action not in (BranchAction.SET_T, BranchAction.SET_NT):
                continue
            if target_slot not in valid_slots:
                continue
            target = summaries[label_of_slot[target_slot]]
            claimed_taken = action is BranchAction.SET_T
            if target.check is None and target.const_outcome is None:
                if target_slot not in unverifiable:
                    unverifiable.add(target_slot)
                    sink.emit(
                        "COR206",
                        f"slot {target_slot} ({target.label}) receives SET "
                        f"actions but no check predicate is derivable from "
                        f"its branch",
                        function=fn.name,
                        block=target.label,
                        pc=target.branch_pc,
                    )
                continue
            witness = _prove_entry(
                summaries,
                tables,
                source=summaries[label_of_slot[source_slot]],
                taken=taken,
                target=target,
                target_slot=target_slot,
                claimed_taken=claimed_taken,
                transfers=transfers,
                fixpoints=fixpoints,
            )
            if witness is not None:
                sink.emit(
                    "COR205",
                    f"action {action.value} fired on "
                    f"({summaries[label_of_slot[source_slot]].label}, "
                    f"{'T' if taken else 'NT'}) predicts branch "
                    f"{target.label} but is not provable on all feasible "
                    f"paths: {witness}",
                    function=fn.name,
                    block=target.label,
                    pc=target.branch_pc,
                )


def _prove_entry(
    summaries: Dict[str, BlockSummary],
    tables: FunctionTables,
    source: BlockSummary,
    taken: bool,
    target: BlockSummary,
    target_slot: int,
    claimed_taken: bool,
    transfers: Optional[IPSummaries] = None,
    fixpoints: Optional[Dict[_FixpointKey, Optional[Dict[str, Env]]]] = None,
) -> Optional[str]:
    """Prove one SET entry; returns None on success, else a witness
    description of why the proof failed.

    ``transfers`` makes the proof interprocedurally aware: call steps
    apply the callee's re-derived transfer image instead of clobbering
    to top.  Without it the proof is the opt-0/1 one.

    The fixpoint depends only on the firing edge and on the cut set:
    the BAT event keys with an entry that writes the target's slot.
    ``fixpoints`` memoizes it under exactly that key, so entries of one
    function that share both reuse one solve.
    """
    cut = frozenset(
        key
        for key, entries in tables.bat.items()
        if any(entry_target == target_slot for entry_target, _ in entries)
    )
    key = (source.label, taken, cut)
    if fixpoints is None:
        fixpoints = {}
    if key not in fixpoints:
        fixpoints[key] = solve_from_edge(
            summaries, source, taken, _live_rule(tables, cut), transfers
        )
    states = fixpoints[key]
    if states is None or target.label not in states:
        # The edge is statically infeasible, or the target is
        # unreachable while the prediction is live: vacuously sound.
        return None
    _, snapshots = transfer_block(target, states[target.label], transfers)
    if target.check is None:
        # Constant-condition branch: provable iff the constant agrees.
        if target.const_outcome == claimed_taken:
            return None
        return (
            f"branch condition is constant "
            f"{'taken' if target.const_outcome else 'not-taken'}"
        )
    observed = snapshots.get(target.check.term, TOP)
    claimed: OutcomeSet = target.check.outcome_set(claimed_taken)
    if subset_of_outcome(observed, claimed):
        return None
    return (
        f"value of {target.check.var} at the check is {render(observed)}, "
        f"not within the claimed outcome set {claimed}"
    )


def _live_rule(tables: FunctionTables, cut: FrozenSet[EventKey]) -> EdgeRule:
    """The edge rule of a proof while its prediction is live."""

    def rule(
        summary: BlockSummary, env_out: Env, snapshots: Dict[Term, ValueRange], direction: bool
    ) -> Optional[Env]:
        """Liveness cut: crossing an edge whose BAT actions write the
        obligation's slot replaces the prediction — the runtime keeps a
        status until overwritten, so the obligation ends exactly here."""
        if (tables.slot_of(summary.branch_pc), direction) in cut:
            return None
        return edge_environment(summary, env_out, snapshots, direction)

    return rule


# ----------------------------------------------------------------------
# Binary image audit
# ----------------------------------------------------------------------


def audit_image(program) -> List[Diagnostic]:
    """Verify the §5.4 binary image against the in-memory tables."""
    sink = DiagnosticSink(IMAGE_PASS)
    if set(_ACTION_CODES) != set(BranchAction):
        missing = sorted(
            a.value for a in set(BranchAction) - set(_ACTION_CODES)
        )
        sink.emit(
            "IMG303",
            f"wire encoding is missing action(s): {missing}",
        )
        return sink.diagnostics  # round-trip would crash on missing codes

    image = program.to_image()
    loaded, entries = load_program(image)
    for name in sorted(program.tables.by_function):
        tables = program.tables.by_function[name]
        recovered = loaded.by_function.get(name)
        if recovered is None:
            sink.emit(
                "IMG301",
                "function record missing from the packed image",
                function=name,
            )
            continue
        mismatches = []
        if recovered.hash_params != tables.hash_params:
            mismatches.append("hash parameters")
        if tuple(recovered.branch_pcs) != tuple(tables.branch_pcs):
            mismatches.append("branch PCs")
        if recovered.bcv_slots != tables.bcv_slots:
            mismatches.append("BCV")
        if dict(recovered.bat) != {
            k: tuple(v) for k, v in tables.bat.items() if v
        }:
            mismatches.append("BAT")
        if mismatches:
            sink.emit(
                "IMG301",
                f"round-trip through the image changed: "
                f"{', '.join(mismatches)}",
                function=name,
            )
        if sort_records(recovered.provenance) != sort_records(
            tables.provenance
        ):
            sink.emit(
                "IMG304",
                f"provenance sidecar decoded to "
                f"{len(recovered.provenance)} record(s), tables carry "
                f"{len(tables.provenance)}; records must round-trip "
                f"exactly",
                function=name,
            )
        sizes = table_sizes(tables)
        expected_bcv = (sizes.bcv_bits + 7) // 8
        actual_bcv = len(_pack_bcv(tables))
        if actual_bcv != expected_bcv:
            sink.emit(
                "IMG302",
                f"packed BCV is {actual_bcv} bytes but the Fig. 8 "
                f"accounting says {sizes.bcv_bits} bits",
                function=name,
            )
        expected_bat = (sizes.bat_bits + 7) // 8
        actual_bat = len(_pack_bat(tables)[0])
        if actual_bat != expected_bat:
            sink.emit(
                "IMG302",
                f"packed BAT is {actual_bat} bytes but the Fig. 8 "
                f"accounting says {sizes.bat_bits} bits",
                function=name,
            )
    for name, entry in sorted(entries.items()):
        expected_entry = program.module.function_extent(name)[0]
        if entry != expected_entry:
            sink.emit(
                "IMG301",
                f"function info table records entry {entry:#x}, "
                f"code is at {expected_entry:#x}",
                function=name,
            )
    return sink.diagnostics
