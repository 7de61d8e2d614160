#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig7-campaign --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--seconds`` sizes the fixed operation list (the number of rounds);
it never cuts a run short.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs every section twice, untraced and then
traced, and prints the per-layer ledger.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"

#: Iterations of the host-speed reference loop (about 10 ms each).
REFERENCE_ITERATIONS = 100_000
REFERENCE_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("set_actions", "count"),
)


def reference_loop_ms() -> float:
    """Median milliseconds of a fixed pure-Python loop that runs no
    program code: a host-speed diagnostic, never used to scale."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


@dataclass
class Report:
    workload: str
    seed: int
    rounds: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: name -> (value, unit), the metrics the JSON line carries.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Workload-specific readings printed beside them.
    readings: List[Tuple[str, float, str]] = field(default_factory=list)
    host_ms: Tuple[float, float] = (0.0, 0.0)
    ledger: object = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )

    def show(self) -> None:
        mode = "traced" if self.trace else "untraced"
        print(
            f"perfbench {self.workload} seed={self.seed} rounds={self.rounds} "
            f"{mode}: attempted={self.attempted} failed={self.failed}"
        )
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:40s} {value:16.6g} {unit}")
        for name, value, unit in self.readings:
            print(f"  {name:40s} {value:16.6g} {unit}   (workload reading)")
        print(
            f"  host.ref_loop_ms start={self.host_ms[0]:.3f} end={self.host_ms[1]:.3f}"
            "   (host-speed diagnostic)"
        )
        for problem in self.problems:
            print(f"  problem: {problem}")
        print(self.result_line())


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(
    name: str,
    seed: int,
    seconds: int,
    trace: bool,
    programs: Optional[Sequence[str]] = None,
    rounds: Optional[int] = None,
) -> Report:
    """Set up and run one workload; ``programs`` and ``rounds`` shrink
    the operation list for the self-test."""
    from repro.parallel.cache import compile_cache_stats, reset_compile_cache
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(
        seed=seed,
        rounds=rounds if rounds is not None else cls.rounds_for(seconds),
        programs=programs,
        expected=load_expected().get(name, {}),
    )
    report = Report(name, seed, workload.rounds, trace)
    start_ms = reference_loop_ms()

    def timed_setup() -> Tuple[float, object]:
        reset_compile_cache()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        stats = compile_cache_stats()
        if stats.misses != len(workload.programs):
            report.problems.append(f"set-up compiled {stats.misses} programs, not all cold")
        workload.check_setup()
        return elapsed, stats

    def timed_round(index: int, programs=None):
        before = compile_cache_stats()
        start = time.perf_counter()
        result = workload.run_round(index, programs)
        elapsed = time.perf_counter() - start
        stats = compile_cache_stats().since(before)
        if stats.misses:
            report.problems.append(
                f"round {index}: {stats.misses} compile-cache misses in a timed section"
            )
            result.failed = result.ops
        return result, elapsed, stats

    if not trace:
        setups, results, seconds_per_round = [], [], []
        for index in range(workload.rounds):
            # A cold set-up before every round spreads the set-up samples
            # over the whole run, as the rounds are spread.
            setups.append(timed_setup()[0])
            result, elapsed, _stats = timed_round(index)
            results.append(result)
            seconds_per_round.append(elapsed)
        report.attempted = sum(r.ops for r in results)
        report.failed = sum(r.failed for r in results)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": workload.ops_per_s(results, seconds_per_round),
            "peak_rss_mb": peak_mb,
            "set_actions": sum(sum(c.values()) for c in workload.set_actions.values()),
        }
        report.metrics = {n: (values[n], unit) for n, unit in END_TO_END}
        report.readings = workload.metrics(results, seconds_per_round)
    else:
        _traced(report, workload, timed_setup, timed_round)
    report.host_ms = (start_ms, reference_loop_ms())
    return report


def _traced(report: Report, workload, timed_setup, timed_round) -> None:
    """Every section (the set-up, then each program's operations in each
    round) runs untraced, then traced: the adjacent pair gives the
    tracing overhead, and the traced copy must reproduce its twin's
    outputs."""
    import layers
    from ledger import Ledger
    from repro.observability.metrics import MetricsRegistry

    ledger = Ledger()
    report.ledger = ledger
    untraced_s = 0.0

    def traced(section):
        layers.install(ledger)
        ledger.begin()
        try:
            return section()
        finally:
            ledger.end()
            ledger.uninstall()

    untraced_s += timed_setup()[0]
    ledger.start_operation("setup")
    _elapsed, setup_stats = traced(timed_setup)

    results = []
    timed_hits = timed_misses = steps_counted = 0
    sections = [(i, [p]) for i in range(workload.rounds) for p in workload.programs]
    for index, programs in sections:
        twin, elapsed, _stats = timed_round(index, programs)
        untraced_s += elapsed
        registry = MetricsRegistry()
        workload.metrics_registry = registry
        workload.on_operation = ledger.start_operation
        result, _elapsed, stats = traced(lambda: timed_round(index, programs))
        workload.metrics_registry = workload.on_operation = None
        steps_counted += registry.value("interp.steps")
        timed_hits += stats.hits
        timed_misses += stats.misses
        if result.outputs != twin.outputs:
            report.problems.append(
                f"round {index} {programs[0].name}: traced outputs differ from untraced"
            )
            result.failed = result.ops
        report.attempted += twin.ops + result.ops
        report.failed += twin.failed + result.failed
        results.append(result)

    reasons: Counter = Counter()
    for counts in workload.set_actions.values():
        reasons.update(counts)
    extra = {
        f"correlation.set_actions.{reason}": reasons.get(reason, 0)
        for reason in ("subsumption", "feasible-path", "interproc")
    }
    extra.update(workload.layer_values(results))
    extra["interp.steps_counted"] = steps_counted
    execution_s = sum(
        ledger.self_s.get(key, 0.0)
        for key in (
            "attacks.clean",
            "attacks.probe",
            "attacks.attack",
            "interp.other",
            "cpu.batch",
            "cpu.branch",
            "cpu.ipds_hw",
        )
    )
    steps = ledger.counts.get("interp.steps", 0)
    extra["interp.steps_per_s"] = steps / execution_s if execution_s else 0.0
    extra["parallel.setup_cache_hits"] = setup_stats.hits
    extra["parallel.setup_cache_misses"] = setup_stats.misses
    extra["parallel.timed_cache_hits"] = timed_hits
    extra["parallel.timed_cache_misses"] = timed_misses
    extra["trace.overhead_pct"] = (
        100.0 * (ledger.wall_s / untraced_s - 1.0) if untraced_s else 0.0
    )
    values = layers.layer_metrics(ledger, extra)
    report.metrics = {name: (values[name], unit) for name, unit in layers.per_layer_names()}
    # Also catches a wrapper charging a key the report leaves out.
    ledger_sum = sum(values[f"{key}_s"] for key in layers.LEDGER_KEYS)
    gap = abs(ledger_sum + values["trace.unattributed_s"] - values["trace.wall_s"])
    if gap > 1e-6 * max(1.0, values["trace.wall_s"]):
        report.problems.append(f"ledger does not sum to the traced wall time (gap {gap:.3g} s)")
    for missing in ledger.missing:
        print(f"  wrapper target missing: {missing}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    ledger.dump(
        str(OUT_DIR / f"{report.workload}-seed{report.seed}.trace.json"),
        {"workload": report.workload, "seed": report.seed, "rounds": report.rounds},
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set-up must be a cold compile on every run: no disk cache.
    os.environ["REPRO_COMPILE_CACHE"] = "off"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report.show()
    return 0


if __name__ == "__main__":
    sys.exit(main())
