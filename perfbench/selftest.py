#!/usr/bin/env python3
"""Self-test of the benchmark on a small operation list.

    python3 perfbench/selftest.py

On one traced round of each workload (two programs for static-opt3) it
checks that:

* ``BENCHMARK.json`` declares exactly the metrics the runs print;
* every operation passes its output checks;
* the ledger's layers plus ``trace.unattributed_s`` equal
  ``trace.wall_s``, and no wrapper target is missing;
* the program's ``interp.steps`` counter misses exactly the probe runs'
  steps, which the benchmark's own count includes;
* round 0 of the default seed reproduces the Fig-7 bench's 48.333 %.

It then runs the campaign-to-prover soundness join
(``detectvalidate.validate_workload``) on round 0's attacks at opt 0 and
opt 3: zero DET801 escapes and zero DET803 alarms.  The join stays out
of the timed runs because it costs several times the campaign.  Exits 1
if any check fails.
"""

from __future__ import annotations

import json
import os
import sys

from run import END_TO_END, ROOT, run_workload

FIG7_BENCH_PCT = 48.333
SMALL_STATIC = ("sysklogd", "telnetd")
LEDGER_TOLERANCE_S = 1e-6


def check(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    os.environ["REPRO_COMPILE_CACHE"] = "off"
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from repro.staticcheck.detectvalidate import validate_workload
    from repro.workloads.registry import all_workloads

    failures: list = []
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    check(
        [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
        and [(m["name"], m["unit"]) for m in declared["per_layer"]]
        == layers.per_layer_names(),
        "BENCHMARK.json declares the metrics run.py prints",
        failures,
    )
    for name, programs in (
        ("fig7-campaign", None),
        ("fig9-timing", None),
        ("static-opt3", SMALL_STATIC),
    ):
        report = run_workload(name, 0, 1, True, programs=programs, rounds=1)
        metrics = {key: value for key, (value, _unit) in report.metrics.items()}
        check(
            report.correct and report.attempted > 0,
            f"{name}: {report.attempted} operations, {report.failed} failed, "
            f"problems {report.problems}",
            failures,
        )
        total = sum(metrics[f"{key}_s"] for key in layers.LEDGER_KEYS)
        gap = abs(total + metrics["trace.unattributed_s"] - metrics["trace.wall_s"])
        check(
            gap < LEDGER_TOLERANCE_S and metrics["trace.unattributed_s"] >= 0,
            f"{name}: ledger {total:.4f} s + unattributed "
            f"{metrics['trace.unattributed_s']:.4f} s = wall {metrics['trace.wall_s']:.4f} s",
            failures,
        )
        check(
            metrics["trace.missing_wrappers"] == 0,
            f"{name}: missing wrappers {report.ledger.missing}",
            failures,
        )
        if name == "fig7-campaign":
            probe = report.ledger.counts["interp.probe_steps"]
            check(
                metrics["interp.steps"] - metrics["interp.steps_counted"] == probe,
                f"{name}: interp.steps {metrics['interp.steps']:.0f} = counted "
                f"{metrics['interp.steps_counted']:.0f} + probe {probe:.0f}",
                failures,
            )
            pct = metrics["attacks.detected_of_changed_pct"]
            check(
                round(pct, 3) == FIG7_BENCH_PCT,
                f"{name}: round 0 detected-of-changed {pct:.3f} % (bench {FIG7_BENCH_PCT} %)",
                failures,
            )

    for opt_level in (0, 3):
        escapes = alarms = joined = 0
        for workload in all_workloads():
            soundness = validate_workload(workload, opt_level=opt_level, attacks=30)
            escapes += len(soundness.det801_escapes)
            alarms += len(soundness.det803_alarms)
            joined += soundness.total
        check(
            escapes == 0 and alarms == 0,
            f"soundness join at opt {opt_level}: {joined} attacks, "
            f"{escapes} DET801 escapes, {alarms} DET803 alarms",
            failures,
        )
    print(f"self-test: {len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
