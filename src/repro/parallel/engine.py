"""Sharded campaign execution over a process pool.

The Figure-7 methodology runs ``attacks`` independent attacks per
workload; every attack already derives its RNG from a pure function of
``(seed_prefix, workload name, attack index)`` (see
:func:`repro.attacks.campaign.attack_rng`), so attacks can execute in
any order, on any process, and still reproduce the serial campaign
bit-for-bit.  This engine exploits that: it slices each workload's
index range into contiguous shards, runs shards on a
:class:`~concurrent.futures.ProcessPoolExecutor`, and merges outcomes
back into index order.  :func:`_run_shard` is the one attack loop:
``jobs=1`` runs a single in-process shard over every index through the
same loop and the same merge, so the merged result is identical at any
job count.

Workers receive only a picklable :class:`ShardTask` (workload *name*,
indices, and the frozen :class:`~repro.attacks.campaign.CampaignConfig`)
— each worker resolves the workload from the registry and compiles it
through the in-process compile cache, so a workload's
:class:`ProtectedProgram` is built at most once per process regardless
of how many shards land there.  The parent compiles every workload
before it starts the pool, so fork-based workers inherit the compiled
programs and compile nothing.

Zero false positives stays a *global* assertion: any clean-run alarm
raises :class:`~repro.attacks.campaign.CampaignError` inside the
worker, which propagates out of :func:`run_campaign` after cancelling
the remaining shards.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..attacks.campaign import (
    DEFAULT_CONFIG,
    AttackOutcome,
    CampaignConfig,
    CampaignError,
    CampaignSummary,
    WorkloadResult,
    run_attack,
)
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import TraceContext, Tracer, maybe_span
from ..pipeline import ProtectedProgram
from ..workloads.registry import Workload, get_workload, resolve_workloads
from .cache import cached_compile

#: Hard ceiling on worker processes, mirroring how many shards a
#: campaign meaningfully splits into.
MAX_JOBS = 64


@dataclass(frozen=True)
class ShardTask:
    """One worker's slice of a workload campaign (picklable)."""

    workload: str
    indices: Tuple[int, ...]
    seed_prefix: str
    config: CampaignConfig
    collect_metrics: bool = False
    #: Trace linkage for the worker's spans (two short strings — the
    #: only tracing state that crosses the pickle boundary).  None means
    #: tracing is off and the worker returns no spans.
    trace_context: Optional[TraceContext] = None


@dataclass
class ShardResult:
    """One shard's outcomes plus its worker-side metrics snapshot.

    The snapshot crosses the process boundary as plain primitives; the
    parent folds it into its own registry at the merge point.
    """

    outcomes: List[AttackOutcome] = field(default_factory=list)
    metrics: Optional[Dict[str, Any]] = None
    #: Worker-side span records (plain dicts), parented under the
    #: campaign root via the task's ``trace_context``; the parent tracer
    #: adopts them at the merge point.
    spans: List[Dict[str, Any]] = field(default_factory=list)


def shard_indices(count: int, shards: int) -> List[Tuple[int, ...]]:
    """Slice ``range(count)`` into at most ``shards`` contiguous blocks.

    Deterministic, order-preserving, and never emits an empty block;
    concatenating the blocks always reproduces ``range(count)``.
    """
    if count <= 0:
        return []
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def _normalize_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, MAX_JOBS)


def _run_shard(
    task: ShardTask,
    workload: Optional[Workload] = None,
    program: Optional[ProtectedProgram] = None,
) -> ShardResult:
    """The attack loop: one shard of one workload's campaign.

    Pool workers get only the task and resolve the workload and its
    program themselves; the in-process shard of a ``jobs=1`` campaign
    passes them in, so ad-hoc workloads and pre-compiled programs work
    there.  A metered or traced shard records its ``shard`` and
    ``shard.compile`` spans, whose timers ride in the metrics snapshot;
    an unmetered, untraced one builds no tracer.
    """
    if workload is None:
        workload = get_workload(task.workload)
    config = task.config
    registry = MetricsRegistry() if task.collect_metrics else None
    tracer = (
        Tracer(context=task.trace_context, metrics=registry)
        if registry is not None or task.trace_context is not None
        else None
    )
    with maybe_span(
        tracer,
        "shard",
        workload=task.workload,
        attacks=len(task.indices),
        first_index=task.indices[0] if task.indices else -1,
    ):
        if program is None:
            with maybe_span(tracer, "shard.compile", workload=task.workload):
                program = cached_compile(
                    workload.source, workload.name, config.opt_level
                )
        outcomes = [
            run_attack(
                program,
                workload,
                index,
                seed_prefix=task.seed_prefix,
                config=config,
                metrics=registry,
            )
            for index in task.indices
        ]
    return ShardResult(
        outcomes=outcomes,
        metrics=registry.snapshot() if registry is not None else None,
        spans=tracer.span_dicts() if task.trace_context is not None else [],
    )


def merge_shard_results(
    workload: Workload, attacks: int, shards: Sequence[ShardResult]
) -> WorkloadResult:
    """Merge shard outcomes back into the serial campaign's order.

    Validates completeness — the merged list must cover exactly
    ``range(attacks)``: a shard that silently dropped work is a
    campaign-integrity failure, not a statistic.
    """
    merged = sorted(
        (outcome for shard in shards for outcome in shard.outcomes),
        key=lambda outcome: outcome.index,
    )
    indices = [outcome.index for outcome in merged]
    if indices != list(range(attacks)):
        raise CampaignError(
            f"sharded campaign for {workload.name} lost outcomes: "
            f"expected {attacks} indices, merged {indices[:10]}..."
        )
    return WorkloadResult(
        workload=workload.name,
        vuln_kind=workload.vuln_kind,
        attacks=merged,
    )


def _run_pooled(
    tasks: Dict[str, List[ShardTask]], jobs: int
) -> Dict[str, List[ShardResult]]:
    """Every workload's shards on a process pool, results in task order."""
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        try:
            futures = {
                name: [executor.submit(_run_shard, task) for task in shard_tasks]
                for name, shard_tasks in tasks.items()
            }
            return {
                name: [future.result() for future in pending]
                for name, pending in futures.items()
            }
        except BaseException:
            # Ctrl-C (KeyboardInterrupt) and shard failures alike:
            # cancel queued shards and return immediately rather than
            # draining the pool; the CLI maps the interrupt to exit 130.
            executor.shutdown(wait=False, cancel_futures=True)
            raise


def run_campaign(
    workloads: Optional[Sequence[Union[Workload, str]]] = None,
    attacks: int = 100,
    *,
    seed_prefix: str = "",
    config: CampaignConfig = DEFAULT_CONFIG,
    jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    program: Optional[ProtectedProgram] = None,
) -> CampaignSummary:
    """The Figure-7 experiment, optionally sharded across processes.

    The canonical campaign entry point.  Identical merged outcomes (and
    therefore byte-identical reports) at any ``jobs`` value: ``jobs=1``
    runs one in-process shard per workload, ``jobs=N`` fans shards out
    over a process pool, and both go through :func:`_run_shard` and the
    same merge.  Either way the zero-FP invariant is asserted globally
    (any clean-run alarm raises :class:`CampaignError`).

    ``metrics`` accumulates telemetry: the counters every attack
    records, plus the ``shard`` / ``shard.compile`` span timers.  Each
    shard collects them locally and returns a picklable snapshot that
    is folded back into ``metrics`` at the merge point, so counters
    and timer names are job-count-independent.

    ``tracer`` (optional) records a hierarchical span tree: one
    ``campaign`` root with one ``shard`` span per shard, linked back
    under the root via the :class:`TraceContext` shipped in each
    :class:`ShardTask`.

    ``program`` (one-workload campaigns only) is a pre-compiled program
    for the in-process shard; pool shards compile through the cache.
    """
    jobs = _normalize_jobs(jobs)
    chosen = resolve_workloads(workloads)
    if program is not None and len(chosen) != 1:
        raise ValueError("a pre-compiled program needs exactly one workload")
    if metrics is not None:
        metrics.increment("campaign.workloads", len(chosen))
        metrics.increment("campaign.jobs", jobs)
    with maybe_span(
        tracer,
        "campaign",
        workloads=len(chosen),
        attacks=attacks,
        jobs=jobs,
        attack_model=config.attack_model,
        opt_level=config.opt_level,
    ):
        trace_context = (
            tracer.current_context() if tracer is not None else None
        )

        def task(workload: Workload, indices: Tuple[int, ...]) -> ShardTask:
            return ShardTask(
                workload=workload.name,
                indices=indices,
                seed_prefix=seed_prefix,
                config=config,
                collect_metrics=metrics is not None,
                trace_context=trace_context,
            )

        if jobs == 1 or attacks <= 0 or not chosen:
            shards: Dict[str, List[ShardResult]] = {
                workload.name: [
                    _run_shard(
                        task(workload, tuple(range(attacks))), workload, program
                    )
                ]
                for workload in chosen
            }
        else:
            for workload in chosen:
                # Shards resolve workloads by name: fail fast here on an
                # unregistered one.  Warming the in-process cache before
                # forking lets fork-based workers inherit compiled
                # programs; spawn-based ones compile once per process.
                get_workload(workload.name)
                cached_compile(workload.source, workload.name, config.opt_level)
            shards = _run_pooled(
                {
                    workload.name: [
                        task(workload, block)
                        for block in shard_indices(attacks, jobs)
                    ]
                    for workload in chosen
                },
                jobs,
            )
        results = []
        for workload in chosen:
            workload_shards = shards[workload.name]
            results.append(
                merge_shard_results(workload, attacks, workload_shards)
            )
            for shard in workload_shards:
                if metrics is not None:
                    metrics.merge_snapshot(shard.metrics)
                if tracer is not None:
                    tracer.adopt(shard.spans)
            if metrics is not None:
                metrics.increment("campaign.shards", len(workload_shards))
    return CampaignSummary(results)

