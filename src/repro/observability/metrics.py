"""Metrics registry: counters, gauges and histograms.

Deliberately dependency-free and cheap: a counter bump is a dict lookup
plus an integer add, so metrics can ride inside campaign hot loops.
Registries merge, which is how per-process numbers from the sharded
campaign engine roll up into one parent registry (the shard boundary is
crossed as a plain ``snapshot()`` dict — picklable primitives only).

Histograms turn the daemon's single gauges into distributions: fixed
exponential buckets whose snapshots merge associatively, so shard- and
session-local observations fold into campaign- and daemon-level
distributions without ever shipping raw samples.  The Prometheus text
renderer lives in :mod:`repro.observability.prometheus`.

Nothing here reads a clock.  Every histogram is a duration in
seconds: the :class:`~repro.observability.tracing.Tracer` a registry is
attached to feeds one sample per closed span into the histogram of the
span's name (the daemon's ``serve.queue_wait`` is the one duration that
is not a span).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> int:
        self.value += amount
        return self.value


#: Default exponential bucket ladder: 1 µs · 4^i for 24 buckets spans
#: ~1e-6 .. ~7e7 s — from a microsecond span to any run this system
#: makes, so one fixed ladder serves every duration and every
#: histogram merges with every other of its name.
DEFAULT_BUCKET_START = 1e-6
DEFAULT_BUCKET_FACTOR = 4.0
DEFAULT_BUCKET_COUNT = 24


def exponential_bounds(
    start: float = DEFAULT_BUCKET_START,
    factor: float = DEFAULT_BUCKET_FACTOR,
    count: int = DEFAULT_BUCKET_COUNT,
) -> Tuple[float, ...]:
    """Ascending upper bucket bounds ``start * factor**i``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"need start > 0, factor > 1, count >= 1; got "
            f"({start}, {factor}, {count})"
        )
    return tuple(start * factor**i for i in range(count))


@dataclass
class Histogram:
    """A mergeable fixed-bucket distribution.

    ``counts`` has one slot per bound plus a final overflow slot
    (everything above the last bound — the ``+Inf`` bucket in
    Prometheus terms).  Counts are *per-bucket*, not cumulative; the
    Prometheus renderer accumulates at exposition time.  Two snapshots
    merge iff their bounds match exactly, which the registry guarantees
    by always building a name's histogram from the same ladder.
    """

    name: str
    bounds: Tuple[float, ...] = field(default_factory=exponential_bounds)
    counts: List[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram {self.name!r}: {len(self.counts)} counts for "
                f"{len(self.bounds)} bounds (need bounds + 1)"
            )

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, data: Dict[str, Any]) -> None:
        """Fold another histogram's snapshot into this one."""
        bounds = tuple(data.get("bounds", ()))
        if bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge differing bucket "
                f"bounds ({len(bounds)} vs {len(self.bounds)} buckets)"
            )
        counts = data.get("counts", [])
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram {self.name!r}: malformed snapshot counts"
            )
        for index, value in enumerate(counts):
            self.counts[index] += value
        self.sum += data.get("sum", 0.0)
        self.count += data.get("count", 0)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs, ending with
        the ``+Inf`` bucket equal to ``count``."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((float("inf"), running + self.counts[-1]))
        return pairs


@dataclass
class MetricsRegistry:
    """Named counters and duration histograms for one run.

    Long-lived deployments (the detection daemon) additionally use
    *gauges* — point-in-time values like "sessions active" that are set,
    not accumulated.
    """

    counters: Dict[str, Counter] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    # -- counters ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def increment(self, name: str, amount: int = 1) -> int:
        return self.counter(name).increment(amount)

    def value(self, name: str) -> int:
        counter = self.counters.get(name)
        return counter.value if counter else 0

    # -- gauges -----------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (overwrites any previous reading)."""
        self.gauges[name] = value

    # -- histograms -------------------------------------------------------

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            if bounds is not None:
                histogram = Histogram(name, bounds=tuple(bounds))
            else:
                histogram = Histogram(name)
            self.histograms[name] = histogram
        return histogram

    def observe_histogram(self, name: str, value: float) -> None:
        """Record one sample into a named distribution."""
        self.histogram(name).observe(value)

    # -- aggregation ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view (picklable, JSON-ready) of everything."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: value for name, value in sorted(self.gauges.items())
            },
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold a child registry's ``snapshot()`` into this one.

        Used at the sharded campaign engine's merge point: workers
        return their snapshot alongside shard outcomes and the parent
        accumulates them here.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.increment(name, value)
        # Gauges are point-in-time readings: the child's latest value
        # wins (there is nothing meaningful to accumulate).
        for name, value in snapshot.get("gauges", {}).items():
            self.gauges[name] = value
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name, bounds=data.get("bounds")).merge(data)
