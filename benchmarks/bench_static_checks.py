"""Whole-set ``repro audit`` and ``repro predict`` time at opt 3.

Compiles the ten workloads at opt 3 before timing starts, then runs the
five audit passes and the detectability prover over the whole set once,
as ``repro audit all --opt 3`` and ``repro predict all --opt 3`` do.
Each pass is timed by its ``staticcheck.<pass>`` trace span, read back
as the ``sum`` of the tracer registry's histogram of the same name.
The whole-set seconds per pass, plus the audit and predict totals, go
to ``BENCH_static_checks.json`` at the repo root.  The regression gate
(``repro bench-diff``) compares the two totals against
``benchmarks/baselines/BENCH_static_checks.json``.
"""

import json
from pathlib import Path

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.pipeline import compile_program_cached
from repro.staticcheck import AUDIT_PASSES, PREDICT_PASSES, errors_in, run_passes
from repro.workloads import all_workloads

BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_static_checks.json"
OPT_LEVEL = 3


@pytest.fixture(scope="module")
def programs():
    return [
        compile_program_cached(w.source, w.name, OPT_LEVEL) for w in all_workloads()
    ]


def test_audit_and_predict_whole_set(benchmark, programs):
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)

    def check_all():
        return [
            run_passes(program, names=AUDIT_PASSES + PREDICT_PASSES, tracer=tracer)
            for program in programs
        ]

    found = benchmark.pedantic(check_all, rounds=1, iterations=1)
    assert not any(errors_in(diagnostics) for diagnostics in found)
    if benchmark.stats is None:  # --benchmark-disable: nothing to record
        return
    seconds = {
        name: metrics.histograms[f"staticcheck.{name}"].sum
        for name in AUDIT_PASSES + PREDICT_PASSES
    }
    totals = {
        "audit_seconds": sum(seconds[name] for name in AUDIT_PASSES),
        "predict_seconds": sum(seconds[name] for name in PREDICT_PASSES),
    }
    BENCH_OUT.write_text(
        json.dumps(
            {
                "bench": "static_checks",
                "opt_level": OPT_LEVEL,
                "passes": {name: round(s, 6) for name, s in seconds.items()},
                "total": {name: round(s, 6) for name, s in totals.items()},
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"\nwrote {BENCH_OUT}")
