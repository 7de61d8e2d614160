"""Observer-bus dispatch overhead.

Measures what attaching observers costs one interpreter execution:

* ``bare``        — no observers at all (the bus short-circuits);
* ``noop_events`` — one control-flow-only no-op observer (call /
  return / branch dispatch, no per-instruction hook);
* ``noop_instr``  — a no-op observer that also subscribes to the
  instruction stream, in batches (the expensive hot path);
* ``ipds_only`` / ``timing_only`` / ``syscall_only`` /
  ``recorder_only`` — each real consumer attached alone, so the cost
  of the full stack can be attributed per consumer;
* ``full_stack``  — the real four-consumer configuration: IPDS +
  baseline timing model + n-gram syscall capture + trace recorder on
  one pass.  It is timed in interleaved pairs with ``bare``
  (``test_full_stack_pairs``): its overhead is the median per-pair
  time ratio and its throughput comes from its median run time;
* ``full_stack_traced`` — the full stack plus the opt-in tracing /
  histogram instrumentation a traced session adds at run boundaries
  (one hierarchical span, two histogram observations per run), so the
  bench-diff gate pins both that tracing-off stays free and that
  tracing-on overhead stays bounded.  It is timed in interleaved pairs
  with ``full_stack`` (``test_tracing_overhead_pairs``): the overhead
  is the median of the per-pair time ratios, so host speed drifting
  between two separately timed configs cannot read as overhead, and
  its throughput comes from its median run time in those pairs.

The two gated noop overheads are measured the same way, each in
interleaved pairs with ``bare`` (``test_noop_overhead_pairs``): their
runs take one or two milliseconds, so two best-of-N times taken
apart swing far wider than the overhead they are meant to show.

Run with ``pytest benchmarks/bench_observer_overhead.py --benchmark-only``.
Writes ``BENCH_observer_overhead.json`` at the repo root with per-config
steps/sec, the overhead of each config relative to ``bare`` — the
number the bus's pre-filtering (control-flow-only observers never pay
per-instruction dispatch) is meant to keep small — a ``breakdown``
section attributing the full stack's cost to individual consumers
(shares can exceed 100% of ``full_stack``: a lone consumer pays the
whole dispatch fan-out cost that the stack amortizes), and a
``summary`` block with the headline full-stack throughput numbers the
bench-diff gate watches direction-aware.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.baselines.compare import SyscallTraceObserver
from repro.cpu.params import ProcessorParams
from repro.cpu.pipeline import TimingModel
from repro.cpu.simulator import TimingObserver
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.pipeline import observed_run
from repro.runtime.ipds import IPDS
from repro.runtime.observer import ExecutionObserver
from repro.runtime.replay import TraceRecorder

WORKLOAD = "telnetd"
SCALE = 12
ROUNDS = 7
CONSUMER_CONFIGS = [
    "ipds_only", "timing_only", "syscall_only", "recorder_only",
]
CONFIGS = ["bare", "noop_events", "noop_instr"] + CONSUMER_CONFIGS
#: Interleaved (bare, full_stack) pairs behind the full stack's
#: overhead and throughput, and (full_stack, full_stack_traced) pairs
#: behind the tracing overhead: one ratio per pair, the median reported.
PAIRS = 31
#: The noop configs whose overhead over ``bare`` is gated, and the
#: interleaved (bare, config) pairs behind each (runs of 1-2 ms).
NOOP_CONFIGS = ["noop_events", "noop_instr"]
NOOP_PAIRS = 101

BENCH_OUT = (
    Path(__file__).resolve().parent.parent / "BENCH_observer_overhead.json"
)

_TIMINGS = {}
_FULL_STACK_PAIRS = {}
_TRACING_PAIRS = {}
_NOOP_PAIRS = {}


class _NoopInstructionObserver(ExecutionObserver):
    """Subscribes to every instruction batch, does nothing with it."""

    def on_instruction_batch(self, instructions, touched, count):
        pass


def _observers(config):
    if config == "bare":
        return []
    if config == "noop_events":
        return [ExecutionObserver()]
    if config == "noop_instr":
        return [_NoopInstructionObserver()]
    if config == "ipds_only":
        return [None]  # placeholder: fresh IPDS built per run
    if config == "timing_only":
        return [TimingObserver(TimingModel(ProcessorParams(), None))]
    if config == "syscall_only":
        return [SyscallTraceObserver()]
    if config == "recorder_only":
        return [TraceRecorder()]
    if config == "full_stack":
        return [
            None,  # placeholder: fresh IPDS built per run
            TimingObserver(TimingModel(ProcessorParams(), None)),
            SyscallTraceObserver(),
            TraceRecorder(),
        ]
    if config == "full_stack_traced":
        # The exact full_stack observer set; the tracing cost is added
        # around the run in the benchmark body, where a traced session
        # adds it (span + wall/throughput histogram observations).
        return [
            None,  # placeholder: fresh IPDS built per run
            TimingObserver(TimingModel(ProcessorParams(), None)),
            SyscallTraceObserver(),
            TraceRecorder(),
        ]
    raise ValueError(config)


def _executor(config, program, inputs):
    """One fresh execution of ``config`` per call."""
    # Long-lived across rounds like a campaign's tracer/registry: the
    # per-run cost measured is span recording + histogram observation,
    # not object construction.
    tracer = Tracer() if config == "full_stack_traced" else None
    registry = MetricsRegistry() if config == "full_stack_traced" else None

    def execute():
        observers = _observers(config)
        if config in ("full_stack", "full_stack_traced", "ipds_only"):
            observers[0] = IPDS(program.tables)
        if tracer is None:
            return observed_run(program, observers=observers, inputs=inputs)
        started = time.perf_counter()
        with tracer.span("run", workload=WORKLOAD, scale=SCALE):
            result = observed_run(
                program, observers=observers, inputs=inputs
            )
        elapsed = time.perf_counter() - started
        registry.observe_histogram("run.wall_seconds", elapsed)
        if elapsed > 0:
            registry.observe_histogram(
                "run.steps_per_sec", result.steps / elapsed
            )
        return result

    return execute


def _record(config, seconds, steps):
    _TIMINGS[config] = {
        "seconds_per_run": round(seconds, 6),
        "steps": steps,
        "steps_per_sec": round(steps / seconds) if seconds else 0,
    }


@pytest.mark.parametrize("config", CONFIGS)
def test_observer_overhead(benchmark, compiled_workloads, workload_inputs,
                           config):
    workload, program = compiled_workloads[WORKLOAD]
    execute = _executor(config, program, workload_inputs(WORKLOAD, SCALE))

    # Warm outside the timed region (allocator, caches, CPU frequency).
    reference = execute()
    result = benchmark.pedantic(
        execute, rounds=ROUNDS, iterations=1, warmup_rounds=2
    )
    assert result.steps == reference.steps
    # The harness's own best-of-rounds measurement, not wall clock
    # around it — minimum is the standard low-noise micro number.
    _record(config, benchmark.stats.stats.min, result.steps)
    benchmark.extra_info["steps_per_sec"] = _TIMINGS[config]["steps_per_sec"]


def _paired(benchmark, base, other, pairs):
    """Time ``pairs`` interleaved (base, other) runs.

    Each pair times one run of each back to back (alternating which
    goes first), so the pair's ratio sees one host speed; the median
    ratio ignores the pairs a noisy neighbour hit.  Two best-of-N times
    taken in separate tests could not tell unchanged code from a
    regression on a shared host.  Returns the summary block, the
    median ``other`` run time and ``other``'s last result.
    """

    def timed(execute):
        started = time.perf_counter()
        result = execute()
        return time.perf_counter() - started, result

    def run_pairs():
        rows = []
        for index in range(pairs):
            if index % 2:
                other_s, result = timed(other)
                base_s, _ = timed(base)
            else:
                base_s, _ = timed(base)
                other_s, result = timed(other)
            rows.append((base_s, other_s))
        return rows, result

    base()  # warm both paths outside the pairs
    reference = other()
    rows, result = benchmark.pedantic(run_pairs, rounds=1, iterations=1)
    assert result.steps == reference.steps
    ratios = [other_s / base_s for base_s, other_s in rows]
    summary = {
        "pairs": pairs,
        "median_ratio": round(statistics.median(ratios), 4),
        "quartile_ratios": [
            round(q, 4) for q in statistics.quantiles(ratios, n=4)[::2]
        ],
    }
    benchmark.extra_info["median_ratio"] = summary["median_ratio"]
    return summary, statistics.median(other_s for _, other_s in rows), result


@pytest.mark.parametrize("config", NOOP_CONFIGS)
def test_noop_overhead_pairs(benchmark, compiled_workloads, workload_inputs,
                             config):
    """A gated noop config's cost over ``bare``, from interleaved
    pairs."""
    workload, program = compiled_workloads[WORKLOAD]
    inputs = workload_inputs(WORKLOAD, SCALE)
    summary, _, _ = _paired(
        benchmark,
        _executor("bare", program, inputs),
        _executor(config, program, inputs),
        NOOP_PAIRS,
    )
    _NOOP_PAIRS[config] = summary


def test_full_stack_pairs(benchmark, compiled_workloads, workload_inputs):
    """The full stack's throughput and cost over ``bare``, from
    interleaved pairs."""
    workload, program = compiled_workloads[WORKLOAD]
    inputs = workload_inputs(WORKLOAD, SCALE)
    summary, median, result = _paired(
        benchmark,
        _executor("bare", program, inputs),
        _executor("full_stack", program, inputs),
        PAIRS,
    )
    _record("full_stack", median, result.steps)
    _FULL_STACK_PAIRS.update(summary)


def test_tracing_overhead_pairs(benchmark, compiled_workloads,
                                workload_inputs):
    """Tracing's cost over the untraced full stack, from interleaved
    pairs."""
    workload, program = compiled_workloads[WORKLOAD]
    inputs = workload_inputs(WORKLOAD, SCALE)
    summary, median, result = _paired(
        benchmark,
        _executor("full_stack", program, inputs),
        _executor("full_stack_traced", program, inputs),
        PAIRS,
    )
    _record("full_stack_traced", median, result.steps)
    _TRACING_PAIRS.update(summary)
    _write_report()


def _write_report():
    assert set(CONFIGS) <= set(_TIMINGS), "all overhead cases must run"
    assert set(NOOP_CONFIGS) <= set(_NOOP_PAIRS), "all noop pairs must run"
    assert _FULL_STACK_PAIRS, "the full-stack pairs must run"
    bare = _TIMINGS["bare"]["seconds_per_run"]
    for timing in _TIMINGS.values():
        timing["overhead_vs_bare_pct"] = (
            round(100.0 * (timing["seconds_per_run"] / bare - 1.0), 2)
            if bare else 0.0
        )
    # The gated overheads come from their interleaved pairs.
    for config, pairs in {**_NOOP_PAIRS, "full_stack": _FULL_STACK_PAIRS}.items():
        _TIMINGS[config]["overhead_vs_bare_pct"] = round(
            100.0 * (pairs["median_ratio"] - 1.0), 2
        )
    # Attribute the full stack's cost to individual consumers: each
    # consumer's lone marginal cost over bare, as absolute seconds and
    # as a share of the full-stack marginal cost.
    full_cost = _TIMINGS["full_stack"]["seconds_per_run"] - bare
    breakdown = {}
    for config in CONSUMER_CONFIGS:
        lone_cost = _TIMINGS[config]["seconds_per_run"] - bare
        breakdown[config] = {
            "marginal_seconds_per_run": round(lone_cost, 6),
            "share_of_full_stack_pct": (
                round(100.0 * lone_cost / full_cost, 2) if full_cost else 0.0
            ),
        }
    # Headline block for the direction-aware bench-diff rules: the
    # full-stack throughput (higher is better) and overhead vs bare
    # (lower is better).
    full = _TIMINGS["full_stack"]
    traced = _TIMINGS["full_stack_traced"]
    summary = {
        "full_stack_steps_per_sec": full["steps_per_sec"],
        "full_stack_overhead_vs_bare_pct": full["overhead_vs_bare_pct"],
        "full_stack_traced_steps_per_sec": traced["steps_per_sec"],
        "tracing_overhead_vs_full_stack_pct": round(
            100.0 * (_TRACING_PAIRS["median_ratio"] - 1.0), 2
        ),
    }
    BENCH_OUT.write_text(
        json.dumps(
            {
                "bench": "observer_overhead",
                "workload": WORKLOAD,
                "scale": SCALE,
                "rounds": ROUNDS,
                "configs": _TIMINGS,
                "breakdown": breakdown,
                "full_stack_pairs": _FULL_STACK_PAIRS,
                "noop_pairs": _NOOP_PAIRS,
                "tracing_pairs": _TRACING_PAIRS,
                "summary": summary,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"\nwrote {BENCH_OUT}")
