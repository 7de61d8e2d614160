"""BAT and BCV construction — the paper's Figure 5 algorithm.

Per function, the compiler:

1. runs alias analysis and identifies memory-resident values (done by
   :mod:`repro.analysis.alias`; every named variable here is memory
   resident by construction);
2. builds reaching definitions over stores, aliased stores, and call
   pseudo-stores (:mod:`repro.analysis.defs`);
3. extracts, for each conditional branch, a *check* predicate (its
   outcome as a function of a loaded value) and *inference* predicates
   (ranges its direction implies for variables), see
   :mod:`repro.analysis.branch_info`;
4. for every (source branch, direction, checked branch) triple decides
   one action — ``SET_T`` / ``SET_NT`` when the implied range subsumes
   one outcome set of the checked branch (Fig. 5 lines 6–15), or
   ``SET_UN`` when the direction's *branch-free region* contains a
   potential store to the checked variable (the kill placement derived
   in DESIGN.md §4, standing in for Fig. 5 lines 19–21);
5. marks every branch that received at least one SET_T/SET_NT in the
   BCV, then finds a collision-free hash for the function's branch PCs
   (§5.2) and renders everything into slot-indexed tables.

Soundness rule: **kills win**.  If a direction's region reaches a store
of the variable, the entry is ``SET_UN`` regardless of any subsumption
— the conservative choice that preserves the zero-false-positive
guarantee at some cost in detection.

At ``--opt 2`` the rule gains one interprocedural exception: a kill
whose *only* cause is call pseudo-stores may be **suppressed** when the
edge's own SET on the same target is provably preserved by every
callee's transfer summary (:mod:`repro.analysis.summaries`).  The
suppression is sound because the edge's own action overwrites the BSV
slot at commit, before the region executes — the edge's claim is the
only live prediction on that slot while the calls run — and the
summaries prove no callee write can move the variable out of the
claimed outcome set.  Surviving entries carry ``interproc`` provenance
with the summary text, independently re-proved by the ``IP5xx`` audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.branch_info import (
    BranchFacts,
    InferenceInfo,
    OutcomeSet,
    analyze_branches,
)
from ..analysis.defs import DefinitionMap, ReachingDefinitions, analyze_definitions
from ..analysis.feasible import FeasibleAnalysis, FeasibleFinding, analyze_feasible
from ..analysis.purity import PurityResult, analyze_purity
from ..analysis.alias import analyze_aliases
from ..analysis.summaries import (
    ProgramSummaries,
    analyze_summaries,
    render_region_summary,
)
from ..ir.cfg import CondEdge, edge_target, reachable_blocks, regions_by_edge
from ..ir.function import IRFunction, IRModule
from ..ir.instructions import Call, VarKind, Variable
from .actions import BranchAction
from .hashing import find_perfect_hash
from .provenance import (
    REASON_CONFLICT,
    REASON_FEASIBLE,
    REASON_INTERPROC,
    REASON_KILL,
    REASON_SUBSUMPTION,
    ActionProvenance,
    sort_records,
)
from .tables import BranchMeta, EventKey, FunctionTables, ProgramTables


@dataclass
class BuildStats:
    """Counters describing one function's construction run."""

    function_name: str
    branches: int
    analyzable: int
    checked: int
    set_entries: int
    kill_entries: int
    conflicts: int
    hash_trials: int
    interproc_kills_suppressed: int = 0
    feasible_sets: int = 0


#: A source branch's inference with its non-trivial directions:
#: ``(bs_pc, facts, inference, ((taken, implied set), ...))``.
_Inference = Tuple[int, BranchFacts, InferenceInfo, Tuple[Tuple[bool, OutcomeSet], ...]]


def build_function_tables(
    fn: IRFunction,
    module: IRModule,
    purity: PurityResult,
    summaries: Optional[ProgramSummaries] = None,
    feasible: bool = False,
) -> Tuple[FunctionTables, BuildStats]:
    """Run the Figure-5 construction for one function."""
    def_map, reaching = analyze_definitions(fn, module, purity)
    facts_by_pc = analyze_branches(fn, def_map)
    feas: Optional[FeasibleAnalysis] = (
        analyze_feasible(fn, def_map, facts_by_pc) if feasible else None
    )
    branches = fn.cond_branches()
    branch_pcs = tuple(sorted(b.address for b in branches))
    block_of_pc = {
        block.terminator.address: block
        for block in fn.blocks
        if block.ends_in_cond_branch()
    }

    # -- step 1: candidate SET actions from subsumption ------------------
    # candidate[(bs_pc, dir)][bl_pc] -> set of proposed actions
    candidates: Dict[Tuple[int, bool], Dict[int, Set[BranchAction]]] = {}
    # evidence[(bs_pc, dir)][bl_pc][action] -> the inference that first
    # proposed it (kept for provenance; iteration order is deterministic).
    evidence: Dict[Tuple[int, bool], Dict[int, Dict[BranchAction, object]]] = {}
    checked_pcs: Set[int] = set()
    conflicts = 0

    # Each inference with its non-trivial directions, indexed by
    # variable in (bs_pc, inference) order, so a check meets only its own
    # variable's and the candidates keep their order.
    inferences_of: Dict[Variable, List[_Inference]] = {}
    for bs_pc, bs_facts in facts_by_pc.items():
        for inference in bs_facts.inferences:
            directions = tuple(
                (taken, implied)
                for taken, implied in (
                    (True, inference.taken_set),
                    (False, inference.nottaken_set),
                )
                if not implied.is_trivial
            )
            if directions:
                inferences_of.setdefault(inference.var, []).append(
                    (bs_pc, bs_facts, inference, directions)
                )
    # Blocks reachable from each edge, walked when a candidate needs it.
    reachable_from_edge: Dict[Tuple[int, bool], Set[str]] = {}

    for bl_pc, bl_facts in facts_by_pc.items():
        check = bl_facts.check
        if check is None:
            continue
        for bs_pc, bs_facts, inference, directions in inferences_of.get(
            check.var, ()
        ):
            if not _source_feeds_check(
                fn, def_map, reaching, bs_facts, inference, bl_facts
            ):
                continue
            for taken, implied in directions:
                reachable = reachable_from_edge.get((bs_pc, taken))
                if reachable is None:
                    target = edge_target(fn, CondEdge(bs_facts.block_label, taken))
                    reachable = reachable_blocks(fn, target)
                    reachable_from_edge[(bs_pc, taken)] = reachable
                if bl_facts.block_label not in reachable:
                    continue
                if check.taken_set.superset_of_outcome(implied):
                    action = BranchAction.SET_T
                elif check.nottaken_set.superset_of_outcome(implied):
                    action = BranchAction.SET_NT
                else:
                    continue
                candidates.setdefault((bs_pc, taken), {}).setdefault(
                    bl_pc, set()
                ).add(action)
                evidence.setdefault((bs_pc, taken), {}).setdefault(
                    bl_pc, {}
                ).setdefault(action, inference)

    # Resolve candidates; contradictions (both SET_T and SET_NT implied)
    # mean the direction is statically infeasible — fall back to UNKNOWN.
    resolved: Dict[Tuple[int, bool], Dict[int, BranchAction]] = {}
    for key, per_target in candidates.items():
        for bl_pc, actions in per_target.items():
            if len(actions) == 1:
                (action,) = actions
            else:
                action = BranchAction.SET_UN
                conflicts += 1
            resolved.setdefault(key, {})[bl_pc] = action
            if action is not BranchAction.SET_UN:
                checked_pcs.add(bl_pc)

    # -- step 1b (opt 3): feasible-path actions ---------------------------
    # The per-edge feasible-path MFP proves forced outcomes the pairwise
    # subsumption test cannot see (constant stores along the way, pruned
    # infeasible merges).  New actions are only *added* where subsumption
    # proposed nothing; existing resolutions — including conflicts — win,
    # keeping opt <= 2 results byte-identical.
    feas_records: Dict[Tuple[EventKey, int], FeasibleFinding] = {}
    if feas is not None:
        for key, per_target in sorted(feas.findings.items()):
            for bl_pc, finding in sorted(per_target.items()):
                if resolved.get(key, {}).get(bl_pc) is not None:
                    continue
                action = (
                    BranchAction.SET_T if finding.forced else BranchAction.SET_NT
                )
                resolved.setdefault(key, {})[bl_pc] = action
                checked_pcs.add(bl_pc)
                feas_records[(key, bl_pc)] = finding

    # Drop entries targeting branches that never became checkable: their
    # BSV slots are never verified, so updates to them are dead weight.
    for key in list(resolved):
        resolved[key] = {
            bl_pc: action
            for bl_pc, action in resolved[key].items()
            if bl_pc in checked_pcs
        }
        if not resolved[key]:
            del resolved[key]

    set_entries = sum(len(v) for v in resolved.values())

    # -- step 2: kill placement ------------------------------------------
    # For every conditional edge whose branch-free region contains a
    # potential store to a checked variable, force SET_UN (kills win).
    # At opt 2 a call-only kill may be suppressed when the edge's own
    # claim is preserved by every callee's transfer summary.
    kill_entries = 0
    suppressed = 0
    killed: Set[Tuple[EventKey, int]] = set()
    saved: Dict[Tuple[EventKey, int], str] = {}
    regions = regions_by_edge(fn)
    for edge, region in regions.items():
        bs_pc = fn.block(edge.block_label).terminator.address
        key: EventKey = (bs_pc, edge.taken)
        for bl_pc in checked_pcs:
            var = facts_by_pc[bl_pc].check.var
            sites = [
                site
                for site in def_map.of_var(var)
                if site.block_label in region
            ]
            if not sites:
                continue
            previous = resolved.get(key, {}).get(bl_pc)
            if summaries is not None:
                summary_text = _suppressible_kill(
                    fn, summaries, facts_by_pc[bl_pc], var, sites, previous
                )
                if summary_text is not None:
                    saved[(key, bl_pc)] = summary_text
                    suppressed += 1
                    continue
            if feas is not None and previous in (
                BranchAction.SET_T,
                BranchAction.SET_NT,
            ):
                # Feasible-path aversion: the MFP already pushed every
                # store on every feasible path from this edge through
                # its transfer, so a claim it re-proves holds at every
                # later execution of the target — no kill needed.  This
                # covers direct stores, which interprocedural summaries
                # (call-only) cannot.
                finding = feas.for_edge(*key).get(bl_pc)
                if finding is not None and finding.forced == (
                    previous is BranchAction.SET_T
                ):
                    feas_records[(key, bl_pc)] = finding
                    continue
            if previous is not BranchAction.SET_UN:
                if previous is not None:
                    set_entries -= 1
                kill_entries += 1
            resolved.setdefault(key, {})[bl_pc] = BranchAction.SET_UN
            killed.add((key, bl_pc))

    # A branch whose every SET was overridden by kills can never be
    # predicted — checking it would only ever compare against UNKNOWN.
    # Recompute the BCV from the surviving SET entries and drop the now
    # dead action entries.
    surviving: Set[int] = set()
    for per_target in resolved.values():
        for bl_pc, action in per_target.items():
            if action is not BranchAction.SET_UN:
                surviving.add(bl_pc)
    if surviving != checked_pcs:
        checked_pcs = surviving
        for key in list(resolved):
            resolved[key] = {
                bl_pc: action
                for bl_pc, action in resolved[key].items()
                if bl_pc in checked_pcs
            }
            if not resolved[key]:
                del resolved[key]

    feas_records = {
        (key, bl_pc): finding
        for (key, bl_pc), finding in feas_records.items()
        if resolved.get(key, {}).get(bl_pc)
        in (BranchAction.SET_T, BranchAction.SET_NT)
    }

    provenance = _render_provenance(
        resolved, facts_by_pc, block_of_pc, evidence, killed, saved, feas_records
    )

    # -- step 3: hash + render --------------------------------------------
    search = find_perfect_hash(branch_pcs)
    params = search.params
    slot_of = {pc: params.slot(pc) for pc in branch_pcs}
    bat: Dict[EventKey, Tuple[Tuple[int, BranchAction], ...]] = {}
    for (bs_pc, taken), per_target in resolved.items():
        entries = tuple(
            sorted(
                (slot_of[bl_pc], action) for bl_pc, action in per_target.items()
            )
        )
        if entries:
            bat[(slot_of[bs_pc], taken)] = entries
    bcv_slots = frozenset(slot_of[pc] for pc in checked_pcs)
    meta = tuple(
        BranchMeta(
            pc=pc,
            slot=slot_of[pc],
            block_label=block_of_pc[pc].label,
            var_name=(
                facts_by_pc[pc].check.var.name
                if pc in facts_by_pc and facts_by_pc[pc].check is not None
                else None
            ),
        )
        for pc in branch_pcs
    )
    tables = FunctionTables(
        function_name=fn.name,
        hash_params=params,
        branch_pcs=branch_pcs,
        bcv_slots=bcv_slots,
        bat=bat,
        branch_meta=meta,
        provenance=provenance,
    )
    stats = BuildStats(
        function_name=fn.name,
        branches=len(branch_pcs),
        analyzable=len(facts_by_pc),
        checked=len(checked_pcs),
        set_entries=set_entries,
        kill_entries=kill_entries,
        conflicts=conflicts,
        hash_trials=search.trials,
        interproc_kills_suppressed=suppressed,
        feasible_sets=len(feas_records),
    )
    return tables, stats


def _suppressible_kill(
    fn: IRFunction,
    summaries: ProgramSummaries,
    bl_facts: BranchFacts,
    var: Variable,
    sites,
    previous: Optional[BranchAction],
) -> Optional[str]:
    """Summary text when this kill may be dropped, else ``None``.

    Requirements (each one load-bearing for soundness):

    * the edge's own pre-kill entry on the target is a ``SET_T`` /
      ``SET_NT`` — it overwrites the BSV slot at commit, so it is the
      only prediction live while the region runs;
    * the variable is a global scalar (call pseudo-stores to frame
      variables mean address-taken locals — out of summary scope);
    * every definition site in the region is a call pseudo-store (any
      direct or indirect store keeps the kill);
    * every callee's transfer summary preserves the claimed outcome set.
    """
    if previous not in (BranchAction.SET_T, BranchAction.SET_NT):
        return None
    if var.kind is not VarKind.GLOBAL or var.is_pointer or var.is_array:
        return None
    if any(site.kind != "call" for site in sites):
        return None
    callees = []
    for site in sites:
        instruction = fn.block(site.block_label).instructions[site.index]
        assert isinstance(instruction, Call)
        callees.append(instruction.callee)
    claimed = bl_facts.check.outcome_set(previous is BranchAction.SET_T)
    for callee in set(callees):
        if not summaries.transfer_for(callee, var).preserves(claimed):
            return None
    return render_region_summary(summaries, tuple(callees), var.name, var)


def _render_provenance(
    resolved: Dict[Tuple[int, bool], Dict[int, BranchAction]],
    facts_by_pc: Dict[int, BranchFacts],
    block_of_pc,
    evidence: Dict[Tuple[int, bool], Dict[int, Dict[BranchAction, object]]],
    killed: Set[Tuple[EventKey, int]],
    saved: Dict[Tuple[EventKey, int], str],
    feasible: Optional[Dict[Tuple[EventKey, int], FeasibleFinding]] = None,
) -> Tuple[ActionProvenance, ...]:
    """One :class:`ActionProvenance` per surviving BAT entry.

    Runs after the final pruning so the records describe exactly the
    entries the runtime will fire — forensics joins against these.
    """
    feasible = feasible or {}
    records: List[ActionProvenance] = []
    for (bs_pc, taken), per_target in resolved.items():
        for bl_pc, action in per_target.items():
            check = facts_by_pc[bl_pc].check
            common = dict(
                source_pc=bs_pc,
                source_block=block_of_pc[bs_pc].label,
                taken=taken,
                target_pc=bl_pc,
                target_block=block_of_pc[bl_pc].label,
                action=action.value,
                var=check.var.name,
                check=f"{check.var.name} {check.op.value} {check.bound}",
            )
            finding = feasible.get(((bs_pc, taken), bl_pc))
            if finding is not None:
                records.append(
                    ActionProvenance(
                        reason=REASON_FEASIBLE,
                        implied=finding.implied,
                        witness=finding.witness,
                        **common,
                    )
                )
            elif action is not BranchAction.SET_UN:
                inference = evidence[(bs_pc, taken)][bl_pc][action]
                summary = saved.get(((bs_pc, taken), bl_pc))
                records.append(
                    ActionProvenance(
                        reason=(
                            REASON_SUBSUMPTION
                            if summary is None
                            else REASON_INTERPROC
                        ),
                        link_kind=inference.kind,
                        link_index=inference.index,
                        implied=str(inference.implied_set(taken)),
                        summary=summary,
                        **common,
                    )
                )
            elif ((bs_pc, taken), bl_pc) in killed:
                records.append(ActionProvenance(reason=REASON_KILL, **common))
            else:
                # Conflict: both SET_T and SET_NT were implied.  Keep the
                # link of the lexically-first action for the record.
                origins = evidence[(bs_pc, taken)][bl_pc]
                first = origins[min(origins, key=lambda a: a.value)]
                records.append(
                    ActionProvenance(
                        reason=REASON_CONFLICT,
                        link_kind=first.kind,
                        link_index=first.index,
                        **common,
                    )
                )
    return sort_records(tuple(records))


def _source_feeds_check(
    fn: IRFunction,
    def_map: DefinitionMap,
    reaching: ReachingDefinitions,
    bs_facts: BranchFacts,
    inference,
    bl_facts: BranchFacts,
) -> bool:
    """Does the inference access plausibly constrain the checked load?

    * store source (Fig. 5 lines 6–9): the store's definition must
      reach the checked load;
    * load source (lines 11–15): the paper asks for consecutive uses of
      the variable; redefinitions in between are handled dynamically by
      kill edges, so static reachability of the checked block (verified
      by the caller via ``reachable_from_edge``) suffices here.
    """
    if inference.kind != "store":
        return True
    check = bl_facts.check
    assert check is not None
    for site in def_map.at(bs_facts.block_label, inference.index):
        if site.var == inference.var:
            if reaching.reaches_load(
                site, bl_facts.block_label, check.load_index
            ):
                return True
    return False


def build_program_tables(
    module: IRModule,
    interproc: bool = False,
    feasible: bool = False,
) -> Tuple[ProgramTables, List[BuildStats]]:
    """Run the whole compiler side: alias → purity → per-function BATs.

    ``interproc=True`` (the ``--opt 2`` configuration) additionally
    computes bottom-up transfer summaries and lets the per-function
    construction suppress call-only kills they prove harmless.

    ``feasible=True`` (the ``--opt 3`` configuration) additionally runs
    the per-function feasible-path MFP (:mod:`repro.analysis.feasible`),
    adding SET entries for branch outcomes forced on every feasible
    path from an edge and averting kills those proofs cover.

    This is the main compiler entry point; the result is what gets
    "attached to the program binary" (§5.4).
    """
    analyze_aliases(module)
    purity = analyze_purity(module)
    summaries = analyze_summaries(module) if interproc else None
    program = ProgramTables()
    stats: List[BuildStats] = []
    for fn in module.functions:
        tables, fn_stats = build_function_tables(
            fn, module, purity, summaries, feasible=feasible
        )
        program.by_function[fn.name] = tables
        stats.append(fn_stats)
    return program, stats
