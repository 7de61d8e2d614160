"""Parallel campaign engine: compile cache + sharded execution.

Public surface:

* :func:`run_campaign` — deterministic sharded campaigns (same merged
  outcomes at any ``jobs``);
* :func:`cached_compile` and friends — the content-addressed compile
  cache every campaign shard goes through.
"""

from .cache import (
    CACHE_ENV,
    CacheStats,
    cache_dir,
    cached_compile,
    compile_cache_stats,
    compile_fingerprint,
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
    "CACHE_ENV",
    "CacheStats",
    "MAX_JOBS",
    "ShardResult",
    "ShardTask",
    "cache_dir",
    "cached_compile",
    "compile_cache_stats",
    "compile_fingerprint",
    "reset_compile_cache",
    "run_campaign",
    "shard_indices",
]
