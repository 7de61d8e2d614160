"""Hierarchical span tracing with cross-process context propagation.

The tracer is the only way a phase is timed.  A :class:`Tracer` records
a tree of :class:`SpanRecord` objects — ``trace_id`` / ``span_id`` /
``parent_id`` with attributes and timestamped events — exactly the
vocabulary of distributed tracing, scaled down to one dependency-free
module.  A tracer built with a
:class:`~repro.observability.metrics.MetricsRegistry` records each span
it closes as one sample of that registry's histogram of the same
name, so the duration histograms of ``--metrics-out`` and
``--prom-out`` are the trace's span durations by construction.

Two propagation boundaries matter in this codebase:

* **process pools** — the sharded campaign engine ships a picklable
  :class:`TraceContext` to each worker; the worker opens its shard and
  per-attack spans under that context and returns them as plain dicts
  in its :class:`~repro.parallel.engine.ShardResult`, which the parent
  adopts back into one connected tree;
* **daemon sessions** — ``repro serve`` parents every
  :class:`~repro.service.engine.DetectionSession` span under one
  long-lived daemon root span via an explicit parent context.

Export formats:

* **Chrome trace-event JSON** (:func:`chrome_trace`) — complete
  ("ph": "X") events with microsecond timestamps, loadable directly in
  Perfetto / ``chrome://tracing``; span identity and parentage ride in
  ``args`` so tooling can rebuild the tree exactly;
* **JSONL** — one span record per line through the existing
  :class:`~repro.observability.telemetry.JsonlWriter` path (paths
  ending in ``.jsonl``).

The tree is recorded wherever metrics are, and exported on request:
every front end that keeps metrics (each CLI verb, ``repro.reporting``,
each detection session, each metered campaign shard) records one, and
``--chrome-trace-out`` / ``serve --trace-out`` only decide whether it
is written.  Library entry points take ``Optional[Tracer]`` and the
:func:`maybe_span` helper degrades to a ``nullcontext`` when none is
attached, so a run without metrics builds no tracer and opens no span;
no span is ever opened per attack or per interpreter step.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from .metrics import MetricsRegistry

#: Span-record schema version (carried in exported documents).
TRACE_VERSION = 1


def new_id() -> str:
    """A 16-hex-char id, unique across processes (urandom-backed)."""
    return uuid.uuid4().hex[:16]


def _clean_attributes(attributes: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars."""
    return {
        key: value if isinstance(value, (str, int, float, bool)) else str(value)
        for key, value in attributes.items()
        if value is not None
    }


@dataclass(frozen=True)
class TraceContext:
    """The picklable cross-boundary handle: which trace, which parent.

    This is what crosses process-pool and socket boundaries — two short
    strings, never live objects.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "TraceContext":
        return cls(trace_id=data["trace_id"], span_id=data["span_id"])


@dataclass
class SpanRecord:
    """One span: a named, attributed interval in the trace tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_us: int
    duration_us: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    pid: int = field(default_factory=os.getpid)
    tid: int = 0

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(_clean_attributes(attributes))

    def add_event(self, name: str, **attributes: Any) -> None:
        """A timestamped point annotation inside this span."""
        self.events.append(
            {
                "name": name,
                "ts_us": int(time.time() * 1e6),
                **_clean_attributes(attributes),
            }
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "attributes": dict(self.attributes),
            "events": list(self.events),
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=data["name"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_us=data.get("start_us", 0),
            duration_us=data.get("duration_us", 0),
            attributes=dict(data.get("attributes", {})),
            events=list(data.get("events", [])),
            pid=data.get("pid", 0),
            tid=data.get("tid", 0),
        )


class Tracer:
    """Records a tree of spans for one trace.

    Thread-safe in the way the daemon needs: the *active span stack* is
    thread-local (each worker thread nests its own spans), while the
    finished-span list is shared (list.append is atomic).  A tracer
    seeded with a :class:`TraceContext` parents its top-level spans
    under that context — that is how a shard worker's spans connect to
    the campaign root recorded in another process.

    A tracer seeded with a ``metrics`` registry records every span it
    closes as one sample of the registry's histogram of the same name.
    Adopted spans (:meth:`adopt`) are not recorded again: their samples
    arrive with the metrics snapshot of the tracer that closed them.
    """

    def __init__(
        self,
        service: str = "repro",
        context: Optional[TraceContext] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.trace_id = context.trace_id if context is not None else new_id()
        #: Parent for top-of-stack spans (cross-boundary linkage).
        self.root_parent_id = context.span_id if context is not None else None
        self.metrics = metrics
        self.finished: List[SpanRecord] = []
        self._local = threading.local()

    # -- span lifecycle ---------------------------------------------------

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_span(self) -> Optional[SpanRecord]:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> TraceContext:
        """The context to hand across a boundary *right now*: the active
        span if any, else the tracer's own root linkage."""
        current = self.current_span
        if current is not None:
            return current.context
        return TraceContext(
            trace_id=self.trace_id,
            span_id=self.root_parent_id or self.trace_id,
        )

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> Iterator[SpanRecord]:
        """Open one span; yields the live record for attribute updates.

        ``parent`` overrides the implicit parent (this thread's active
        span, else the tracer's root context) — the daemon uses it to
        hang concurrently-running session spans under its root span.
        """
        stack = self._stack()
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
        elif stack:
            parent_id = stack[-1].span_id
        else:
            parent_id = self.root_parent_id
        record = SpanRecord(
            name=name,
            trace_id=self.trace_id,
            span_id=new_id(),
            parent_id=parent_id,
            start_us=int(time.time() * 1e6),
            attributes=_clean_attributes(attributes),
            tid=threading.get_ident() & 0x7FFFFFFF,
        )
        started = time.perf_counter()
        stack.append(record)
        try:
            yield record
        finally:
            record.duration_us = int((time.perf_counter() - started) * 1e6)
            stack.pop()
            self.finished.append(record)
            if self.metrics is not None:
                self.metrics.observe_histogram(name, record.duration_us / 1e6)

    def event(self, name: str, **attributes: Any) -> None:
        """Annotate the current span (no-op outside any span)."""
        current = self.current_span
        if current is not None:
            current.add_event(name, **attributes)

    # -- cross-boundary merge ---------------------------------------------

    def span_dicts(self) -> List[Dict[str, Any]]:
        """Finished spans as picklable plain dicts (shard results)."""
        return [record.to_dict() for record in self.finished]

    def snapshot(self) -> Dict[str, Any]:
        """The registry's snapshot plus the flat ``spans`` list (name and
        seconds of every finished span, adopted ones included) — the
        ``metrics`` block of a run manifest."""
        payload = self.metrics.snapshot() if self.metrics is not None else {}
        payload["spans"] = [
            {"name": record.name, "seconds": record.duration_us / 1e6}
            for record in self.finished
        ]
        return payload

    def adopt(self, span_dicts: Optional[Sequence[Dict[str, Any]]]) -> int:
        """Fold spans recorded elsewhere (a worker process, a session)
        into this tracer; returns how many were adopted."""
        if not span_dicts:
            return 0
        for data in span_dicts:
            self.finished.append(SpanRecord.from_dict(data))
        return len(span_dicts)


def maybe_span(
    tracer: Optional[Tracer],
    name: str,
    parent: Optional[TraceContext] = None,
    **attributes: Any,
):
    """``tracer.span(...)`` when tracing is on, ``nullcontext`` when off.

    The one helper every integration point calls, so disabled tracing
    costs a single ``None`` check at run boundaries.
    """
    if tracer is None:
        return nullcontext()
    return tracer.span(name, parent=parent, **attributes)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


SpanLike = Union[SpanRecord, Dict[str, Any]]


def _as_dict(span: SpanLike) -> Dict[str, Any]:
    return span.to_dict() if isinstance(span, SpanRecord) else span


def chrome_trace(
    spans: Sequence[SpanLike], service: str = "repro"
) -> Dict[str, Any]:
    """Spans as a Chrome trace-event JSON document (Perfetto-loadable).

    Each span becomes one complete ("X") event; ``args`` carries the
    span identity (``trace_id`` / ``span_id`` / ``parent_id``) plus the
    span attributes, so the exact tree — not just the visual nesting —
    survives the export.
    """
    events: List[Dict[str, Any]] = []
    for span in spans:
        data = _as_dict(span)
        events.append(
            {
                "name": data["name"],
                "cat": service,
                "ph": "X",
                "ts": data["start_us"],
                "dur": max(int(data["duration_us"]), 1),
                "pid": data["pid"],
                "tid": data["tid"],
                "args": {
                    "trace_id": data["trace_id"],
                    "span_id": data["span_id"],
                    "parent_id": data["parent_id"],
                    **data.get("attributes", {}),
                },
            }
        )
        for event in data.get("events", []):
            events.append(
                {
                    "name": event.get("name", "event"),
                    "cat": service,
                    "ph": "i",
                    "ts": event.get("ts_us", data["start_us"]),
                    "pid": data["pid"],
                    "tid": data["tid"],
                    "s": "t",
                    "args": {"span_id": data["span_id"]},
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro-tracing", "version": TRACE_VERSION},
    }


def write_spans(
    spans: Sequence[SpanLike], path: str, service: str = "repro"
) -> int:
    """Export spans to ``path``; returns the span count.

    Paths ending in ``.jsonl`` get one span record per line, appended
    (the accumulating-log convention shared with ``--metrics-out``);
    any other path gets one Chrome trace-event JSON document,
    overwritten.
    """
    records = [_as_dict(span) for span in spans]
    if path.endswith(".jsonl"):
        from .telemetry import JsonlWriter

        return JsonlWriter(path).write_all(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(records, service), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return len(records)


# ----------------------------------------------------------------------
# Validation (the CI artifact gate and the well-formedness tests)
# ----------------------------------------------------------------------


def validate_chrome_trace(document: Any) -> List[str]:
    """Structural errors in a Chrome trace-event document (empty = valid).

    Checks the trace-event grammar (required fields, integer
    timestamps) and the span-tree invariants this repo promises: unique
    span ids, every non-root parent resolvable, and one connected tree
    per trace.
    """
    errors: List[str] = []
    if not isinstance(document, dict):
        return [f"document must be a JSON object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document needs a 'traceEvents' list"]
    span_ids: Dict[str, Optional[str]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event #{index} is not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                errors.append(f"event #{index} missing {key!r}")
        if event.get("ph") not in ("X", "i"):
            errors.append(
                f"event #{index} has unexpected phase {event.get('ph')!r}"
            )
        for key in ("ts", "pid", "tid"):
            if key in event and not isinstance(event[key], int):
                errors.append(f"event #{index} {key!r} is not an integer")
        if event.get("ph") == "X":
            if not isinstance(event.get("dur"), int) or event["dur"] < 1:
                errors.append(f"event #{index} needs a positive integer 'dur'")
            args = event.get("args", {})
            span_id = args.get("span_id") if isinstance(args, dict) else None
            if not span_id:
                errors.append(f"event #{index} args missing 'span_id'")
                continue
            if span_id in span_ids:
                errors.append(f"duplicate span_id {span_id!r}")
            span_ids[span_id] = args.get("parent_id")
    if errors:
        return errors
    # Tree invariants: parents exist, and the graph is one tree.
    roots = [sid for sid, parent in span_ids.items() if parent is None]
    for span_id, parent in span_ids.items():
        if parent is not None and parent not in span_ids:
            errors.append(
                f"span {span_id!r} has unknown parent {parent!r}"
            )
    if span_ids and not errors:
        if len(roots) != 1:
            errors.append(
                f"expected exactly one root span, found {len(roots)}"
            )
        else:
            # Connectivity: walk up from every span to the root.
            root = roots[0]
            for span_id in span_ids:
                seen = set()
                node: Optional[str] = span_id
                while node is not None and node not in seen:
                    seen.add(node)
                    node = span_ids.get(node)
                if root not in seen:
                    errors.append(
                        f"span {span_id!r} is not connected to root {root!r}"
                    )
    return errors
