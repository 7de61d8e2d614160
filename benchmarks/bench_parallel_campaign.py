"""Serial vs. sharded campaign throughput (the parallel engine).

Runs the full-registry Figure-7 campaign once serially and once with
``REPRO_PAR_JOBS`` worker processes, asserts the merged outcomes are
identical (the engine's core guarantee), and reports the speedup.  The
speedup assertion only arms on multi-core hosts — on a single core the
sharded run can't beat serial, but the equality check still must hold.

Knobs: ``REPRO_PAR_ATTACKS`` (default 20 attacks/workload),
``REPRO_PAR_JOBS`` (default 4).
"""

import os
import time

from repro.parallel import compile_cache_stats, run_campaign

ATTACKS = int(os.environ.get("REPRO_PAR_ATTACKS", "20"))
JOBS = int(os.environ.get("REPRO_PAR_JOBS", "4"))


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_parallel_campaign_speedup(benchmark):
    # Count only this bench's lookups: benches run before it in the
    # same process fill the cache at other opt levels.
    before = compile_cache_stats()
    t0 = time.perf_counter()
    serial = run_campaign(attacks=ATTACKS, seed_prefix="par:", jobs=1)
    serial_secs = time.perf_counter() - t0

    t0 = time.perf_counter()
    sharded = benchmark.pedantic(
        lambda: run_campaign(attacks=ATTACKS, seed_prefix="par:", jobs=JOBS),
        rounds=1,
        iterations=1,
    )
    sharded_secs = time.perf_counter() - t0

    # Identity first: sharding must never change a single outcome.
    assert [r.workload for r in serial.results] == [
        r.workload for r in sharded.results
    ]
    for left, right in zip(serial.results, sharded.results):
        assert left.attacks == right.attacks, left.workload

    stats = compile_cache_stats().since(before)
    speedup = serial_secs / sharded_secs if sharded_secs else float("inf")
    benchmark.extra_info["serial_secs"] = round(serial_secs, 3)
    benchmark.extra_info["sharded_secs"] = round(sharded_secs, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cores"] = _cores()
    benchmark.extra_info["compile_cache"] = (
        f"{stats.hits} hits / {stats.misses} misses"
    )
    print(
        f"\nserial {serial_secs:.2f}s vs jobs={JOBS} {sharded_secs:.2f}s "
        f"-> speedup {speedup:.2f}x on {_cores()} core(s)"
    )
    # Each workload compiles at most once per process in the parent;
    # attacks after the first are cache hits.
    assert stats.misses <= 2 * len(serial.results)
    if _cores() >= 2 and JOBS >= 2:
        assert speedup > 1.1, (
            f"sharded campaign not faster: {serial_secs:.2f}s serial vs "
            f"{sharded_secs:.2f}s with jobs={JOBS}"
        )
