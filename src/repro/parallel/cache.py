"""In-process compile cache for :class:`ProtectedProgram`.

Campaigns and benchmark drivers compile the same ten workload sources
over and over; parsing, lowering and table building dominate their
startup cost.  This module memoizes the whole ``parse -> lower ->
verify -> optimize -> build tables`` pipeline in one per-process dict
keyed by ``(source name, opt_level, source text)``, so each workload's
:class:`ProtectedProgram` is built at most once per process, no matter
how many attacks or benchmark fixtures ask for it.

Concurrent lookups of the same key are *single-flight*: the first
thread compiles while the rest block on a per-key latch and then read
the published program — this is what lets the detection daemon
(:mod:`repro.service`) run many sessions of one workload while
compiling its tables exactly once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pipeline import ProtectedProgram


@dataclass
class CacheStats:
    """Hit/miss counters for the compile cache (per process)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1] (0.0 before any lookup)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses)

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """The delta relative to an earlier snapshot (daemon uptime view)."""
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }


_Key = Tuple[str, int, str]

_memory: Dict[_Key, "ProtectedProgram"] = {}
_stats = CacheStats()
_lock = threading.Lock()
#: Per-key latches for compiles currently in flight; waiters block on
#: the latch instead of duplicating the compile (single-flight).
_inflight: Dict[_Key, threading.Event] = {}


def cached_compile(
    source: str, name: str = "<source>", opt_level: int = 0
) -> "ProtectedProgram":
    """Compile via the cache.

    Thread-safe and single-flight: when several threads request the
    same key at once (concurrent daemon sessions on one workload), one
    compiles and the others wait for the published result — counted as
    hits, because they never ran the compiler.
    """
    key = (name, opt_level, source)
    while True:
        with _lock:
            program = _memory.get(key)
            if program is not None:
                _stats.hits += 1
                return program
            latch = _inflight.get(key)
            if latch is None:
                _inflight[key] = threading.Event()
                break
        # Someone else is compiling this key: wait for the latch, then
        # retry the lookup (it re-compiles only if the leader failed).
        latch.wait()
    try:
        from ..pipeline import compile_program

        program = compile_program(source, name, opt_level)
        with _lock:
            _stats.misses += 1
            _memory[key] = program
        return program
    finally:
        with _lock:
            latch = _inflight.pop(key, None)
        if latch is not None:
            latch.set()


def compile_cache_stats() -> CacheStats:
    """A snapshot of this process's cache counters."""
    with _lock:
        return _stats.snapshot()


def reset_compile_cache() -> None:
    """Drop every cached program and zero the counters."""
    with _lock:
        _memory.clear()
        _stats.hits = 0
        _stats.misses = 0
