"""Content-addressed compile cache for :class:`ProtectedProgram`.

Campaigns and benchmark drivers compile the same ten workload sources
over and over; parsing, lowering and table building dominate their
startup cost.  This module memoizes the whole ``parse -> lower ->
verify -> optimize -> build tables`` pipeline behind a content address:

    key = sha256(schema version, source name, opt_level, source text)

Two layers:

* **memory** — a per-process dict.  Always on.  Guarantees each
  workload's :class:`ProtectedProgram` is built at most once per
  process, no matter how many attacks or benchmark fixtures ask for it.
  Concurrent lookups of the same key are *single-flight*: the first
  thread compiles while the rest block on a per-key latch and then read
  the published program — this is what lets the detection daemon
  (:mod:`repro.service`) run many sessions of one workload while
  compiling its tables exactly once.
* **disk** — optional, enabled by pointing ``REPRO_COMPILE_CACHE`` at a
  directory.  Entries are pickled programs named ``<key>.pkl`` and
  written atomically, so concurrent shard workers can share one cache
  directory.  Because the key covers the full source text and the
  compiler options, invalidation is automatic: editing a source or
  changing ``opt_level`` produces a new key, and stale entries are
  simply never read again.  Bump :data:`CACHE_SCHEMA` when the compiled
  representation itself changes shape.

The disk layer loads pickles, so only point ``REPRO_COMPILE_CACHE`` at
a directory you trust (the same caveat as any pickle-based cache).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pipeline import ProtectedProgram

#: Version salt for the cache key; bump when ``ProtectedProgram``'s
#: pickled shape or the compilation pipeline changes incompatibly.
CACHE_SCHEMA = 4

#: Environment variable naming the disk cache directory.  Unset (or set
#: to ``""``, ``"0"`` or ``"off"``) leaves only the in-memory layer on.
CACHE_ENV = "REPRO_COMPILE_CACHE"

_DISABLED_VALUES = ("", "0", "off", "none")


@dataclass
class CacheStats:
    """Hit/miss counters for the compile cache (per process)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1] (0.0 before any lookup)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.memory_hits, self.disk_hits, self.misses)

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """The delta relative to an earlier snapshot (daemon uptime view)."""
        return CacheStats(
            memory_hits=self.memory_hits - baseline.memory_hits,
            disk_hits=self.disk_hits - baseline.disk_hits,
            misses=self.misses - baseline.misses,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }


_memory: Dict[str, "ProtectedProgram"] = {}
_stats = CacheStats()
_lock = threading.Lock()
#: Per-key latches for compiles currently in flight; waiters block on
#: the latch instead of duplicating the compile (single-flight).
_inflight: Dict[str, threading.Event] = {}


def compile_fingerprint(
    source: str, name: str = "<source>", opt_level: int = 0
) -> str:
    """The content address of one compilation request."""
    digest = hashlib.sha256()
    digest.update(f"repro-compile:v{CACHE_SCHEMA}\n".encode("utf-8"))
    digest.update(f"{name}\n{opt_level}\n".encode("utf-8"))
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


def cache_dir() -> Optional[Path]:
    """The disk-cache directory, or ``None`` when the layer is off."""
    raw = os.environ.get(CACHE_ENV)
    if raw is None or raw.strip().lower() in _DISABLED_VALUES:
        return None
    return Path(raw).expanduser()


def _disk_load(key: str) -> Optional["ProtectedProgram"]:
    root = cache_dir()
    if root is None:
        return None
    path = root / f"{key}.pkl"
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except Exception:
        # Missing, corrupt, stale or foreign entry: whatever unpickling
        # raises, recompile (the caller counts a miss and overwrites it).
        return None


def _disk_store(key: str, program: "ProtectedProgram") -> None:
    root = cache_dir()
    if root is None:
        return
    try:
        root.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent writers race benignly, the last
        # rename wins and every reader sees a complete pickle.
        fd, tmp_name = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(program, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, root / f"{key}.pkl")
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        # A read-only or full cache directory silently degrades to the
        # in-memory layer; caching must never break compilation.
        pass


def cached_compile(
    source: str, name: str = "<source>", opt_level: int = 0
) -> "ProtectedProgram":
    """Compile via the cache (memory first, then disk, then for real).

    Thread-safe and single-flight: when several threads request the
    same key at once (concurrent daemon sessions on one workload), one
    compiles and the others wait for the published result — counted as
    memory hits, because they never ran the compiler.
    """
    key = compile_fingerprint(source, name, opt_level)
    while True:
        with _lock:
            program = _memory.get(key)
            if program is not None:
                _stats.memory_hits += 1
                return program
            latch = _inflight.get(key)
            if latch is None:
                _inflight[key] = threading.Event()
                break
        # Someone else is compiling this key: wait for the latch, then
        # retry the lookup (it re-compiles only if the leader failed).
        latch.wait()
    try:
        program = _disk_load(key)
        if program is not None:
            with _lock:
                _stats.disk_hits += 1
                _memory.setdefault(key, program)
            return program
        from ..pipeline import compile_program

        program = compile_program(source, name, opt_level)
        with _lock:
            _stats.misses += 1
            _memory[key] = program
        _disk_store(key, program)
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


def reset_compile_cache(disk: bool = False) -> None:
    """Drop the in-memory layer (and optionally the disk entries)."""
    with _lock:
        _memory.clear()
        _stats.memory_hits = 0
        _stats.disk_hits = 0
        _stats.misses = 0
    if disk:
        root = cache_dir()
        if root is None or not root.is_dir():
            return
        for path in root.glob("*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
