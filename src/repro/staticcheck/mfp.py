"""Range MFP solver over block summaries: the auditor's one worklist
engine.  Callers differ only in what flows along a conditional edge,
which each supplies as an edge rule.  The dead-branch detector (seeded
at the function entry) keeps the default, which refines an edge by
everything its direction implies and drops it when the direction
contradicts the abstract state.  The correlation auditor also drops
edges that overwrite its prediction; the feasible-path auditor drops
only witnessed edges and relaxes the other infeasible ones.  Both seed
at one edge through :func:`solve_from_edge`.  States are abstract
environments (variable -> value range, :mod:`repro.staticcheck.domain`);
widening after a bounded number of joins guarantees termination on
loops that keep growing a value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .domain import Env, ValueRange, env_join, env_widen
from .facts import BlockSummary, Term, edge_environment, transfer_block
from .ipsummaries import IPSummaries

#: Joins into one block before widening kicks in.
WIDEN_AFTER = 8

#: What flows along one conditional edge: ``(summary, exit environment,
#: load snapshots, direction)`` -> the edge's environment, or ``None``
#: to drop the edge.
EdgeRule = Callable[[BlockSummary, Env, Dict[Term, ValueRange], bool], Optional[Env]]


def solve_range_mfp(
    summaries: Dict[str, BlockSummary],
    seeds: Dict[str, Env],
    edge_rule: EdgeRule = edge_environment,
    transfers: Optional[IPSummaries] = None,
) -> Dict[str, Env]:
    """Propagate seed environments to a fixpoint; returns the state at
    each reached block's entry (unreached blocks are absent).

    ``transfers`` is forwarded to :func:`transfer_block`: with it, call
    steps apply interprocedural summary images instead of clobbering to
    top."""
    states: Dict[str, Env] = dict(seeds)
    join_counts: Dict[str, int] = {}
    worklist: List[str] = list(seeds)
    while worklist:
        label = worklist.pop()
        summary = summaries[label]
        env_out, snapshots = transfer_block(summary, states[label], transfers)
        if summary.is_return:
            continue
        edges: List[Tuple[str, Env]] = []
        if summary.jump_target is not None:
            edges.append((summary.jump_target, env_out))
        else:
            for direction in (True, False):
                edge_env = edge_rule(summary, env_out, snapshots, direction)
                if edge_env is None:
                    continue
                next_label = (
                    summary.taken_target
                    if direction
                    else summary.fallthrough_target
                )
                edges.append((next_label, edge_env))
        for next_label, env in edges:
            old = states.get(next_label)
            if old is None:
                states[next_label] = env
                worklist.append(next_label)
                continue
            joined = env_join(old, env)
            if joined is old:
                continue
            count = join_counts.get(next_label, 0) + 1
            join_counts[next_label] = count
            if count > WIDEN_AFTER:
                joined = env_widen(old, joined)
                if joined == old:
                    continue
            states[next_label] = joined
            worklist.append(next_label)
    return states


def solve_from_edge(
    summaries: Dict[str, BlockSummary],
    source: BlockSummary,
    taken: bool,
    edge_rule: EdgeRule,
    transfers: Optional[IPSummaries] = None,
) -> Optional[Dict[str, Env]]:
    """The MFP seeded at one conditional edge — nothing assumed at the
    source block's entry, only its stores and direction — or None when
    the edge is statically infeasible (claims after it hold vacuously)."""
    env_out, snapshots = transfer_block(source, {}, transfers)
    seed = edge_environment(source, env_out, snapshots, taken)
    if seed is None:
        return None
    start = source.taken_target if taken else source.fallthrough_target
    return solve_range_mfp(summaries, {start: seed}, edge_rule, transfers)
