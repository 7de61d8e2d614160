"""Figure 7: detection rate for simulated attacks.

Regenerates the paper's headline experiment: every server is attacked
``ATTACKS`` times independently; we report the share of tamperings that
change control flow and the share the IPDS detects.  Shape targets
(paper): roughly half of control-flow-changing tamperings are detected,
detection varies per benchmark, and false positives are zero by
construction (the campaign raises on any clean-run alarm).

Run with ``pytest benchmarks/bench_fig7_detection.py --benchmark-only``.
Set ``REPRO_FIG7_ATTACKS`` to change the per-benchmark attack count
(default 30 to keep the harness quick; the paper used 100 — use
``python -m repro.reporting fig7`` for the full run) and
``REPRO_FIG7_JOBS`` to shard each campaign across processes (results
are identical at any job count).

Each campaign runs with a :class:`MetricsRegistry` attached, and the
summary test writes ``BENCH_fig7_detection.json`` at the repo root:
per-workload and aggregate events/sec and steps/sec, the seed numbers
of the bench trajectory.  A second campaign sweep at ``--opt 3``
(feasible-path-sensitive tables) records its detection rates under
``detection_opt3`` — the gated proof that the extra SET entries never
weaken detection.  The summary also joins every attack against the
static detectability prover (``repro predict``) and records the
across-workload ``predicted_lower_bound`` on the detected-of-changed
rate per opt level, asserting zero soundness violations in passing.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.attacks import CampaignConfig, CampaignSummary, run_workload_campaign
from repro.observability import MetricsRegistry
from repro.parallel import compile_cache_stats
from repro.reporting import render_figure7
from repro.staticcheck.detectvalidate import validate_workload
from repro.workloads import workload_names

ATTACKS = int(os.environ.get("REPRO_FIG7_ATTACKS", "30"))
JOBS = int(os.environ.get("REPRO_FIG7_JOBS", "1"))
OPT3 = CampaignConfig(opt_level=3)

BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_fig7_detection.json"

_RESULTS = {}
_METRICS = {}
_OPT3_RESULTS = {}


@pytest.mark.parametrize("name", workload_names())
def test_fig7_campaign(benchmark, compiled_workloads, name):
    workload, _ = compiled_workloads[name]
    registry = MetricsRegistry()

    def campaign():
        return run_workload_campaign(
            workload, attacks=ATTACKS, jobs=JOBS, metrics=registry
        )

    before = compile_cache_stats()
    start = time.perf_counter()
    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    _RESULTS[name] = result
    events = registry.value("ipds.events")
    steps = registry.value("interp.steps")
    _METRICS[name] = {
        "attacks": ATTACKS,
        "jobs": JOBS,
        "seconds": round(elapsed, 6),
        "ipds_events": events,
        "interp_steps": steps,
        "events_per_sec": round(events / elapsed) if elapsed else 0,
        "steps_per_sec": round(steps / elapsed) if elapsed else 0,
        "pct_changed": round(result.pct_changed, 3),
        "pct_detected": round(result.pct_detected, 3),
    }
    # Soundness: detection only on control-flow-changing tamperings.
    assert result.detected <= result.changed <= result.total == ATTACKS
    assert registry.value("campaign.attacks") == ATTACKS
    benchmark.extra_info["pct_changed"] = result.pct_changed
    benchmark.extra_info["pct_detected"] = result.pct_detected
    benchmark.extra_info["events_per_sec"] = _METRICS[name]["events_per_sec"]
    # The campaign must reuse the fixture's build, never recompile:
    # every lookup it makes is a cache hit.  Only its own lookups count,
    # so benches that compile other opt levels first change nothing.
    stats = compile_cache_stats().since(before)
    assert stats.misses == 0
    assert stats.hits >= 1
    benchmark.extra_info["compile_cache"] = (
        f"{stats.hits} hits / {stats.misses} misses"
    )


@pytest.mark.parametrize("name", workload_names())
def test_fig7_campaign_opt3(benchmark, compiled_workloads, name):
    """The same seeded campaigns against the opt-3 tables, reusing each
    workload's opt-3 build through the content-addressed cache."""
    workload, _ = compiled_workloads[name]

    def campaign():
        return run_workload_campaign(
            workload, attacks=ATTACKS, config=OPT3, jobs=JOBS
        )

    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    _OPT3_RESULTS[name] = result
    assert result.detected <= result.changed <= result.total == ATTACKS
    # The feasible-path entries only *add* predictions: the opt-3
    # tables must never detect less than the baseline tables did.
    if name in _RESULTS:
        assert result.detected >= _RESULTS[name].detected, name
        assert result.changed == _RESULTS[name].changed, name
    benchmark.extra_info["pct_changed"] = result.pct_changed
    benchmark.extra_info["pct_detected"] = result.pct_detected


def test_fig7_summary_shape(benchmark, compiled_workloads):
    """Aggregate shape assertions + the rendered figure."""

    def summarize():
        for name in workload_names():
            if name not in _RESULTS:
                workload, _ = compiled_workloads[name]
                _RESULTS[name] = run_workload_campaign(
                    workload, attacks=ATTACKS
                )
        return CampaignSummary([_RESULTS[n] for n in workload_names()])

    summary = benchmark.pedantic(summarize, rounds=1, iterations=1)
    for name in workload_names():
        if name not in _OPT3_RESULTS:
            workload, _ = compiled_workloads[name]
            _OPT3_RESULTS[name] = run_workload_campaign(
                workload, attacks=ATTACKS, config=OPT3
            )
    opt3_summary = CampaignSummary(
        [_OPT3_RESULTS[n] for n in workload_names()]
    )
    # Static lower bound: join the campaigns just run (same outcomes,
    # no re-execution) against the detectability prover at each exact
    # tamper point.  The prover's claims are hard — a DET801 attack
    # that escaped or a DET803 attack that alarmed is a soundness bug,
    # and the bound can never exceed the measured rate.
    predicted_lower_bound = {}
    for opt_level, results in ((0, _RESULTS), (3, _OPT3_RESULTS)):
        rows = []
        for name in workload_names():
            workload, _ = compiled_workloads[name]
            rows.append(
                validate_workload(
                    workload, opt_level=opt_level, result=results[name]
                )
            )
        for row in rows:
            assert not row.violations, (row.workload, opt_level)
            assert (
                row.predicted_lower_bound_pct
                <= row.measured_pct_detected_of_changed + 1e-9
            ), (row.workload, opt_level)
        predicted_lower_bound[f"opt{opt_level}"] = round(
            sum(r.predicted_lower_bound_pct for r in rows) / len(rows), 3
        )
    # Richer opt-3 tables can only prove more attacks detected.
    assert (
        predicted_lower_bound["opt3"] >= predicted_lower_bound["opt0"]
    ), predicted_lower_bound
    print()
    print(render_figure7(summary))
    if _METRICS:
        total_events = sum(m["ipds_events"] for m in _METRICS.values())
        total_steps = sum(m["interp_steps"] for m in _METRICS.values())
        total_seconds = sum(m["seconds"] for m in _METRICS.values())
        BENCH_OUT.write_text(
            json.dumps(
                {
                    "bench": "fig7_detection",
                    "attacks_per_workload": ATTACKS,
                    "jobs": JOBS,
                    "detection": {
                        "avg_pct_changed": round(summary.avg_pct_changed, 3),
                        "avg_pct_detected": round(summary.avg_pct_detected, 3),
                        "avg_pct_detected_of_changed": round(
                            summary.avg_pct_detected_of_changed, 3
                        ),
                    },
                    "detection_opt3": {
                        "avg_pct_changed": round(
                            opt3_summary.avg_pct_changed, 3
                        ),
                        "avg_pct_detected": round(
                            opt3_summary.avg_pct_detected, 3
                        ),
                        "avg_pct_detected_of_changed": round(
                            opt3_summary.avg_pct_detected_of_changed, 3
                        ),
                    },
                    "predicted_lower_bound": predicted_lower_bound,
                    "workloads": _METRICS,
                    "total": {
                        "seconds": round(total_seconds, 6),
                        "ipds_events": total_events,
                        "interp_steps": total_steps,
                        "events_per_sec": (
                            round(total_events / total_seconds)
                            if total_seconds else 0
                        ),
                        "steps_per_sec": (
                            round(total_steps / total_seconds)
                            if total_seconds else 0
                        ),
                    },
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {BENCH_OUT}")
    # Shape: a nontrivial fraction of tamperings change control flow,
    # and the IPDS catches a sizable share of those.
    assert summary.avg_pct_changed > 5.0
    assert summary.avg_pct_detected > 0.0
    assert summary.avg_pct_detected_of_changed > 20.0
    # Some detections must exist in several benchmarks, not just one.
    detecting = [r for r in summary.results if r.detected > 0]
    assert len(detecting) >= 4
    # The opt-3 tables strictly add predictions over the same seeded
    # attacks: the detection rate must not drop below the baseline.
    assert opt3_summary.avg_pct_changed == summary.avg_pct_changed
    assert (
        opt3_summary.avg_pct_detected_of_changed
        >= summary.avg_pct_detected_of_changed
    )
