"""Parallel campaign engine: compile cache + sharded execution.

Public surface:

* :func:`run_campaign` — deterministic sharded campaigns (same merged
  outcomes at any ``jobs``);
* :func:`cached_compile` and friends — the in-process compile cache
  every campaign shard goes through.
"""

from .cache import (
    CacheStats,
    cached_compile,
    compile_cache_stats,
    reset_compile_cache,
)
from .engine import (
    MAX_JOBS,
    ShardResult,
    ShardTask,
    run_campaign,
    shard_indices,
)

__all__ = [
    "CacheStats",
    "MAX_JOBS",
    "ShardResult",
    "ShardTask",
    "cached_compile",
    "compile_cache_stats",
    "reset_compile_cache",
    "run_campaign",
    "shard_indices",
]
