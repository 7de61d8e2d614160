"""Observability layer: metrics, trace spans, run manifests, telemetry.

The production-deployment counterpart of the paper's measurement
sections: every CLI command and campaign can account what it did
(counters), how long each stage took (one :class:`Tracer` span tree,
each closed span one sample of the registry histogram of its name),
and emit a structured, machine-readable :class:`RunManifest` for
dashboards and audit trails — without perturbing the deterministic
experiment results themselves (metrics ride alongside, never inside,
campaign outcomes).
"""

from .benchdiff import (
    DEFAULT_RULES,
    MetricDelta,
    MetricRule,
    compare_dirs,
    render_table,
)
from .manifest import RunManifest
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    exponential_bounds,
)
from .prometheus import (
    render_prometheus,
    validate_exposition,
    write_prometheus,
)
from .telemetry import (
    JsonlWriter,
    write_manifest,
)
from .tracing import (
    SpanRecord,
    TraceContext,
    Tracer,
    chrome_trace,
    maybe_span,
    validate_chrome_trace,
    write_spans,
)

__all__ = [
    "Counter",
    "DEFAULT_RULES",
    "Histogram",
    "JsonlWriter",
    "MetricDelta",
    "MetricRule",
    "MetricsRegistry",
    "RunManifest",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "compare_dirs",
    "exponential_bounds",
    "maybe_span",
    "render_prometheus",
    "render_table",
    "validate_chrome_trace",
    "validate_exposition",
    "write_manifest",
    "write_prometheus",
    "write_spans",
]
