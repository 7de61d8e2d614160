"""Prometheus text-exposition rendering for a :class:`MetricsRegistry`.

Implements the subset of the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ this
repo's metric vocabulary needs:

* counters  → ``<prefix>_<name>_total`` (``# TYPE ... counter``);
* gauges    → ``<prefix>_<name>`` (``# TYPE ... gauge``);
* histograms→ ``<prefix>_<name>_seconds`` (every histogram is a
  duration): full ``_bucket{le="..."}`` / ``_sum`` / ``_count``
  families with cumulative bucket counts and the mandatory ``+Inf``
  bucket.

Everything renders from a plain ``snapshot()`` dict, so the daemon's
``metrics`` op and the CLI's ``--prom-out`` share one code path and a
scrape of either is identical for identical registries.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Set, Union

from .metrics import MetricsRegistry

#: Default metric-name prefix (the Prometheus "namespace").
DEFAULT_PREFIX = "repro"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """A legal Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    cleaned = _INVALID.sub("_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = f"_{cleaned}"
    return cleaned


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    return repr(round(value, 9))


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return repr(round(bound, 12))


def render_prometheus(
    registry_or_snapshot: Union[MetricsRegistry, Dict[str, Any]],
    prefix: str = DEFAULT_PREFIX,
) -> str:
    """The registry as one Prometheus text-exposition document."""
    snapshot = (
        registry_or_snapshot.snapshot()
        if isinstance(registry_or_snapshot, MetricsRegistry)
        else registry_or_snapshot
    )
    lines: List[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = f"{prefix}_{sanitize_metric_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name, data in sorted(snapshot.get("histograms", {}).items()):
        metric = f"{prefix}_{sanitize_metric_name(name)}_seconds"
        lines.append(f"# TYPE {metric} histogram")
        running = 0
        counts = data.get("counts", [])
        bounds = data.get("bounds", [])
        for bound, bucket in zip(bounds, counts):
            running += bucket
            lines.append(
                f'{metric}_bucket{{le="{_format_bound(bound)}"}} {running}'
            )
        total = running + (counts[-1] if counts else 0)
        lines.append(f'{metric}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{metric}_sum {_format_value(float(data.get('sum', 0.0)))}")
        lines.append(f"{metric}_count {_format_value(data.get('count', 0))}")

    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(
    registry_or_snapshot: Union[MetricsRegistry, Dict[str, Any]],
    path: str,
    prefix: str = DEFAULT_PREFIX,
) -> str:
    """Render and write; returns the rendered text."""
    text = render_prometheus(registry_or_snapshot, prefix)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


#: Sample-line grammar for validation (metric name, optional labels,
#: value) — used by the CI artifact validator.
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"(\+Inf|-Inf|NaN|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$"
)
TYPE_LINE = re.compile(r"^# TYPE (\S+)")


def validate_exposition(text: str) -> List[str]:
    """Structural errors in a Prometheus text document (empty = valid).

    Checks line grammar, that no family is declared twice (``# TYPE``)
    and no series (name plus labels) repeats, plus histogram-family
    consistency: cumulative bucket counts are non-decreasing and the
    ``+Inf`` bucket equals the family's ``_count`` sample.
    """
    errors: List[str] = []
    buckets: Dict[str, List[int]] = {}
    counts: Dict[str, int] = {}
    declared: Set[str] = set()
    seen: Set[str] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        type_line = TYPE_LINE.match(line)
        if type_line is not None:
            family = type_line.group(1)
            if family in declared:
                errors.append(f"line {number}: family {family} declared twice")
            declared.add(family)
            continue
        if not line or line.startswith("#"):
            continue
        match = SAMPLE_LINE.match(line)
        if match is None:
            errors.append(f"line {number}: bad sample line {line!r}")
            continue
        key, value = line.rsplit(" ", 1)
        if key in seen:
            errors.append(f"line {number}: series {key} repeated")
        seen.add(key)
        name = key.split("{")[0]
        if name.endswith("_bucket"):
            buckets.setdefault(name[: -len("_bucket")], []).append(
                int(float(value))
            )
        elif name.endswith("_count"):
            counts[name[: -len("_count")]] = int(float(value))
    for family, series in buckets.items():
        if any(b > a for a, b in zip(series[1:], series)):
            errors.append(f"histogram {family}: buckets not cumulative")
        if family in counts and series and series[-1] != counts[family]:
            errors.append(
                f"histogram {family}: +Inf bucket {series[-1]} != "
                f"_count {counts[family]}"
            )
    return errors
