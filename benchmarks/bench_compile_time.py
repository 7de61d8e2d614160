"""§6: "the compilation time for all benchmarks is up to a few seconds".

Times the full compiler path (parse → lower → verify → alias → purity →
Fig. 5 construction → hashing) per workload and for the whole set, at
opt 0, at opt 2 (which adds the summary-based interprocedural analysis)
and at opt 3 (which adds the per-edge feasible-path MFP), and writes
``BENCH_compile_time.json`` at the repo root.  Each whole-set total
is the median of :data:`ROUNDS` compiles: one compile of the opt-0 or
opt-2 set takes a few tenths of a second, and a single sample of that
swings by a quarter from run to run on a shared host.
The regression gate (``repro bench-diff``) compares the whole-set
numbers against ``benchmarks/baselines/BENCH_compile_time.json`` so an
accidentally quadratic pass shows up in CI, not in user reports.
"""

import json
from pathlib import Path

import pytest

from repro.pipeline import compile_program
from repro.workloads import all_workloads, workload_names

BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_compile_time.json"

_PER_WORKLOAD = {}

#: Whole-set compiles timed per opt level; the report records their median.
ROUNDS = 5


@pytest.mark.parametrize("name", workload_names())
def test_compile_time_per_workload(benchmark, name):
    workload = next(w for w in all_workloads() if w.name == name)
    program = benchmark(compile_program, workload.source, name)
    assert program.tables.total_branches > 0
    if benchmark.stats is not None:  # absent under --benchmark-disable
        _PER_WORKLOAD[name] = round(benchmark.stats.stats.min, 6)


@pytest.mark.parametrize("opt_level", [0, 2, 3], ids=["opt0", "opt2", "opt3"])
def test_compile_all_benchmarks_within_seconds(benchmark, opt_level):
    def compile_all():
        return [
            compile_program(w.source, w.name, opt_level).tables.total_checked
            for w in all_workloads()
        ]

    checked = benchmark.pedantic(compile_all, rounds=ROUNDS, iterations=1)
    assert sum(checked) > 0
    if benchmark.stats is None:  # --benchmark-disable: nothing to record
        return
    # The paper's bound, generously interpreted for Python: the whole
    # ten-benchmark set compiles in seconds, not minutes — even with
    # the opt-2 summary fixpoint and the opt-3 per-edge feasible-path
    # propagation on top.  The bound holds for the slowest round.
    assert benchmark.stats.stats.max < 30.0
    _PER_WORKLOAD[f"__all_opt{opt_level}"] = benchmark.stats.stats.median
    if opt_level == 3:
        _write_report()


def _write_report():
    opt0 = _PER_WORKLOAD.pop("__all_opt0", None)
    opt2 = _PER_WORKLOAD.pop("__all_opt2", None)
    opt3 = _PER_WORKLOAD.pop("__all_opt3", None)
    totals = {"opt3_seconds": round(opt3, 6)}
    if opt2 is not None:  # absent under -k filtering
        totals["opt2_seconds"] = round(opt2, 6)
        totals["feasible_overhead_pct"] = (
            round(100.0 * (opt3 / opt2 - 1.0), 2) if opt2 else 0.0
        )
    if opt0 is not None and opt2 is not None:
        totals["opt0_seconds"] = round(opt0, 6)
        totals["interproc_overhead_pct"] = (
            round(100.0 * (opt2 / opt0 - 1.0), 2) if opt0 else 0.0
        )
    BENCH_OUT.write_text(
        json.dumps(
            {
                "bench": "compile_time",
                "workloads": dict(sorted(_PER_WORKLOAD.items())),
                "total": totals,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"\nwrote {BENCH_OUT}")
