"""Benchmark regression comparison: current ``BENCH_*.json`` vs baseline.

The benchmark scripts under ``benchmarks/`` each emit one
``BENCH_<name>.json`` document of plain numbers.  This module compares
such documents against committed baselines (``benchmarks/baselines/``)
under per-metric :class:`MetricRule` thresholds, renders a table, and
returns audit-convention exit codes — the engine behind
``repro bench-diff`` and the CI regression gate.

Thresholding is relative with an absolute floor: a metric regresses
when it worsens by more than ``max_change_pct`` percent of the baseline
*and* by more than ``min_delta`` in absolute units.  The floor keeps
near-zero baselines (for example a 1.07% observer overhead measured on
a shared CI box) from tripping the relative test on timing noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Exit codes, matching the ``audit`` convention.
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_TOOL_ERROR = 2


@dataclass(frozen=True)
class MetricRule:
    """Threshold for one metric inside one ``BENCH_<bench>.json``."""

    bench: str  # file stem: BENCH_<bench>.json
    path: Tuple[str, ...]  # key path into the document
    max_change_pct: float = 15.0  # worsening allowed, % of baseline
    min_delta: float = 0.0  # absolute worsening floor (noise guard)
    direction: str = "lower"  # "lower" or "higher" is better

    @property
    def label(self) -> str:
        return f"{self.bench}:{'.'.join(self.path)}"


#: Default gate: the observer-overhead noop configs (the hot-path cost
#: this repo actively optimizes), the full stack as advisory, the
#: whole-set compile times (opt 0, opt 2 which adds the interprocedural
#: summary fixpoint, and opt 3 which adds the per-edge feasible-path
#: MFP), the whole-set opt-3 ``repro audit`` and ``repro predict``
#: times, and the Figure-7 detection rates at the default and opt-3
#: tables (direction "higher": the seeded campaigns are deterministic,
#: so a drop means the tables really got weaker, not noise).
DEFAULT_RULES: Tuple[MetricRule, ...] = (
    MetricRule(
        "observer_overhead",
        ("configs", "noop_events", "overhead_vs_bare_pct"),
        min_delta=2.0,
    ),
    MetricRule(
        "observer_overhead",
        ("configs", "noop_instr", "overhead_vs_bare_pct"),
        min_delta=2.5,
    ),
    MetricRule(
        "observer_overhead",
        ("configs", "full_stack", "overhead_vs_bare_pct"),
        max_change_pct=30.0,
        min_delta=40.0,
    ),
    # Throughput metrics are direction "higher": the batched delivery /
    # ring-buffer work exists to push these up, and the gate must catch
    # a refactor that quietly gives the win back.  The absolute floors
    # sit above same-box timing noise (~10%).
    MetricRule(
        "observer_overhead",
        ("summary", "full_stack_steps_per_sec"),
        max_change_pct=25.0,
        min_delta=20_000.0,
        direction="higher",
    ),
    # The tracing-enabled full stack: throughput must stay up
    # (direction "higher") and the marginal cost of the per-run span +
    # histogram observations over the untraced full stack must stay a
    # few percent — if tracing ever leaks into the interpreter hot
    # loop, this pair trips long before users notice.
    MetricRule(
        "observer_overhead",
        ("summary", "full_stack_traced_steps_per_sec"),
        max_change_pct=25.0,
        min_delta=20_000.0,
        direction="higher",
    ),
    MetricRule(
        "observer_overhead",
        ("summary", "tracing_overhead_vs_full_stack_pct"),
        max_change_pct=100.0,
        min_delta=5.0,
    ),
    MetricRule(
        "fig7_detection",
        ("total", "steps_per_sec"),
        max_change_pct=25.0,
        min_delta=30_000.0,
        direction="higher",
    ),
    MetricRule(
        "compile_time",
        ("total", "opt0_seconds"),
        max_change_pct=50.0,
        min_delta=1.0,
    ),
    MetricRule(
        "compile_time",
        ("total", "opt2_seconds"),
        max_change_pct=50.0,
        min_delta=1.0,
    ),
    MetricRule(
        "compile_time",
        ("total", "opt3_seconds"),
        max_change_pct=50.0,
        min_delta=1.0,
    ),
    MetricRule(
        "static_checks",
        ("total", "audit_seconds"),
        max_change_pct=50.0,
        min_delta=1.0,
    ),
    MetricRule(
        "static_checks",
        ("total", "predict_seconds"),
        max_change_pct=50.0,
        min_delta=1.0,
    ),
    MetricRule(
        "fig7_detection",
        ("detection", "avg_pct_detected_of_changed"),
        max_change_pct=10.0,
        min_delta=2.0,
        direction="higher",
    ),
    MetricRule(
        "fig7_detection",
        ("detection_opt3", "avg_pct_detected_of_changed"),
        max_change_pct=10.0,
        min_delta=2.0,
        direction="higher",
    ),
    # The static detection-rate lower bound (repro predict joined
    # against the seeded campaigns).  Fully deterministic — seeds,
    # layouts, and the prover are all fixed — so ANY drop means the
    # prover proves strictly less than it used to: zero tolerance.
    MetricRule(
        "fig7_detection",
        ("predicted_lower_bound", "opt0"),
        max_change_pct=0.0,
        min_delta=0.0,
        direction="higher",
    ),
    MetricRule(
        "fig7_detection",
        ("predicted_lower_bound", "opt3"),
        max_change_pct=0.0,
        min_delta=0.0,
        direction="higher",
    ),
)


@dataclass(frozen=True)
class MetricDelta:
    """Outcome of one rule evaluation."""

    rule: MetricRule
    baseline: Optional[float]
    current: Optional[float]
    missing: Optional[str] = None  # which side is absent, if any

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def pct_change(self) -> Optional[float]:
        if self.delta is None:
            return None
        if self.baseline == 0:
            return 0.0 if self.delta == 0 else float("inf")
        return 100.0 * self.delta / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        if self.delta is None:
            return False
        worsening = (
            self.delta if self.rule.direction == "lower" else -self.delta
        )
        if worsening <= self.rule.min_delta:
            return False
        allowed = abs(self.baseline) * self.rule.max_change_pct / 100.0
        return worsening > allowed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.rule.label,
            "direction": self.rule.direction,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "pct_change": self.pct_change,
            "max_change_pct": self.rule.max_change_pct,
            "min_delta": self.rule.min_delta,
            "missing": self.missing,
            "regressed": self.regressed,
        }


def _load_bench(directory: str, bench: str) -> Optional[Dict[str, Any]]:
    path = os.path.join(directory, f"BENCH_{bench}.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _lookup(document: Dict[str, Any], path: Tuple[str, ...]) -> Optional[float]:
    node: Any = document
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def compare_dirs(
    baseline_dir: str,
    current_dir: str,
    rules: Sequence[MetricRule] = DEFAULT_RULES,
) -> List[MetricDelta]:
    """Evaluate every rule; one :class:`MetricDelta` per rule."""
    deltas: List[MetricDelta] = []
    documents: Dict[Tuple[str, str], Optional[Dict[str, Any]]] = {}
    for rule in rules:
        for side, directory in (
            ("baseline", baseline_dir),
            ("current", current_dir),
        ):
            key = (side, rule.bench)
            if key not in documents:
                documents[key] = _load_bench(directory, rule.bench)
        base_doc = documents[("baseline", rule.bench)]
        cur_doc = documents[("current", rule.bench)]
        missing = None
        baseline = current = None
        if base_doc is None:
            missing = "baseline file"
        elif cur_doc is None:
            missing = "current file"
        else:
            baseline = _lookup(base_doc, rule.path)
            current = _lookup(cur_doc, rule.path)
            if baseline is None:
                missing = "baseline metric"
            elif current is None:
                missing = "current metric"
        deltas.append(
            MetricDelta(
                rule=rule, baseline=baseline, current=current, missing=missing
            )
        )
    return deltas


def render_table(deltas: Sequence[MetricDelta]) -> str:
    """Aligned text table, one row per rule."""
    rows = [("metric", "baseline", "current", "delta", "verdict")]
    for delta in deltas:
        if delta.missing is not None:
            rows.append(
                (delta.rule.label, "-", "-", "-", f"missing {delta.missing}")
            )
            continue
        verdict = "REGRESSED" if delta.regressed else "ok"
        rows.append(
            (
                delta.rule.label,
                f"{delta.baseline:.2f}",
                f"{delta.current:.2f}",
                f"{delta.delta:+.2f} ({delta.pct_change:+.1f}%)",
                verdict,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    regressions = sum(1 for d in deltas if d.regressed)
    lines.append(f"{len(deltas)} metric(s), {regressions} regression(s)")
    return "\n".join(lines)


def evaluate(
    deltas: Sequence[MetricDelta], required: Sequence[str] = ()
) -> int:
    """Exit code for a comparison: missing *required* benches are tool
    errors; any regression fails; otherwise clean."""
    for name in required:
        covering = [d for d in deltas if d.rule.bench == name]
        if not covering:
            return EXIT_TOOL_ERROR
        if any(d.missing is not None for d in covering):
            return EXIT_TOOL_ERROR
    if any(d.regressed for d in deltas):
        return EXIT_REGRESSION
    return EXIT_OK


def build_arg_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="bench_compare",
            description="Compare BENCH_*.json against committed baselines.",
        )
    parser.add_argument(
        "--baseline", default="benchmarks/baselines",
        help="directory holding baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--current", default=".",
        help="directory holding freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the comparison as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--require", action="append", default=[], metavar="BENCH",
        help="fail with exit 2 unless this bench is present on both "
             "sides (repeatable); e.g. --require observer_overhead",
    )
    return parser


def run_diff(args: argparse.Namespace) -> int:
    deltas = compare_dirs(args.baseline, args.current)
    print(render_table(deltas))
    if args.json:
        payload = json.dumps(
            {
                "version": 1,
                "tool": "repro-bench-diff",
                "metrics": [d.to_dict() for d in deltas],
            },
            indent=2,
            sort_keys=True,
        )
        if args.json == "-":
            sys.stdout.write(payload + "\n")
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    return evaluate(deltas, args.require)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_diff(build_arg_parser().parse_args(argv))
