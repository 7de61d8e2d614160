"""Structured run manifests.

A :class:`RunManifest` is the machine-readable record of one command or
experiment invocation: what ran (command + arguments), when and for how
long, what it produced (command-specific results), and the metrics
accumulated along the way.  The CLI's ``--metrics-out`` writes one of
these per invocation; campaigns embed per-workload sub-records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from .metrics import MetricsRegistry
from .tracing import Tracer

#: Manifest schema version — bump on breaking layout changes.
MANIFEST_VERSION = 2


def _utc_iso(epoch_seconds: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch_seconds))


@dataclass
class RunManifest:
    """One invocation's structured record."""

    command: str
    arguments: Dict[str, Any] = field(default_factory=dict)
    started_epoch: float = field(default_factory=time.time)
    finished_epoch: Optional[float] = None
    results: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    _clock_start: float = field(default_factory=time.perf_counter)
    _duration: Optional[float] = None

    @classmethod
    def begin(cls, command: str, **arguments: Any) -> "RunManifest":
        """Start a manifest for one command invocation."""
        return cls(command=command, arguments=dict(arguments))

    def record(self, **results: Any) -> "RunManifest":
        """Attach command-specific result fields (merged, not replaced)."""
        self.results.update(results)
        return self

    def finish(
        self,
        metrics: Optional[Union[MetricsRegistry, Tracer]] = None,
        **results: Any,
    ) -> "RunManifest":
        """Close the manifest: stamp the end time and freeze the
        duration, fold in metrics (a tracer's snapshot adds its flat
        ``spans`` list to its registry's)."""
        self.finished_epoch = time.time()
        self._duration = time.perf_counter() - self._clock_start
        self.results.update(results)
        if metrics is not None:
            self.metrics = metrics.snapshot()
        return self

    @property
    def duration_seconds(self) -> float:
        return self._duration if self._duration is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        duration = (
            round(self._duration, 6) if self._duration is not None else None
        )
        return {
            "manifest_version": MANIFEST_VERSION,
            "command": self.command,
            "arguments": self.arguments,
            "started_at": _utc_iso(self.started_epoch),
            "finished_at": (
                _utc_iso(self.finished_epoch)
                if self.finished_epoch is not None
                else None
            ),
            "duration_seconds": duration,
            "results": self.results,
            "metrics": self.metrics,
        }
