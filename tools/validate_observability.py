#!/usr/bin/env python
"""CI validator for observability artifacts.

Checks the files a traced campaign emits, using the same validators
the library exposes:

* ``--chrome-trace PATH``  — Chrome trace-event JSON: grammar, unique
  span ids, every parent exists, exactly one root, fully connected
  (:func:`repro.observability.validate_chrome_trace`);
* ``--prometheus PATH``    — Prometheus text exposition: line grammar,
  cumulative histogram buckets, ``+Inf`` bucket equals ``_count``
  (:func:`repro.observability.validate_exposition`);
* ``--obs-json PATH``      — ``repro obs --json`` report: schema
  fields plus the attribution invariant that per-reason catch counts
  sum exactly to the detected total, campaign-wide and per workload;
* ``--manifest PATH``      — a ``--metrics-out`` JSON manifest of the
  same run as ``--chrome-trace``: its histogram names equal the trace's
  span names, every histogram's ``count`` equals the number of
  same-named spans and its ``sum`` their summed durations (within 1 µs
  per span), and the manifest's ``spans`` names equal the trace's as a
  multiset.

Exit codes follow the audit convention: 0 clean, 1 validation errors,
2 unreadable/missing input.  At least one artifact must be given.
"""

import argparse
import json
import sys
from collections import Counter

from repro.observability import validate_chrome_trace, validate_exposition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TOOL_ERROR = 2


def check_obs_report(document):
    """Errors in a ``repro obs`` JSON report; empty list when clean."""
    errors = []
    for field in ("version", "tool", "attacks", "detected", "by_reason",
                  "workloads"):
        if field not in document:
            errors.append(f"obs report missing field {field!r}")
    if errors:
        return errors
    if document["tool"] != "repro-obs":
        errors.append(f"unexpected tool {document['tool']!r}")
    total = sum(document["by_reason"].values())
    if total != document["detected"]:
        errors.append(
            f"by_reason sums to {total}, detected is "
            f"{document['detected']} — attribution must be exact"
        )
    for workload in document["workloads"]:
        per = sum(workload["by_reason"].values())
        if per != workload["detected"]:
            errors.append(
                f"workload {workload['workload']!r}: by_reason sums to "
                f"{per}, detected is {workload['detected']}"
            )
        if workload["detected"] > workload["attacks"]:
            errors.append(
                f"workload {workload['workload']!r}: detected "
                f"{workload['detected']} exceeds attacks "
                f"{workload['attacks']}"
            )
    return errors


def check_manifest_against_trace(manifest, trace):
    """Errors where a run manifest's telemetry disagrees with the Chrome
    trace of the same run; empty list when they agree."""
    metrics = manifest.get("metrics", {})
    durations = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "X":
            durations.setdefault(event.get("name"), []).append(event.get("dur", 0))
    histograms = metrics.get("histograms", {})
    errors = []
    if set(histograms) != set(durations):
        errors.append(
            f"histograms {sorted(histograms)} != trace spans {sorted(durations)}"
        )
    for name, histogram in sorted(histograms.items()):
        spans = durations.get(name, [])
        count, total = histogram.get("count"), histogram.get("sum", 0.0)
        if count != len(spans):
            errors.append(
                f"histogram {name!r}: count {count}, {len(spans)} span(s) "
                "in the trace"
            )
            continue
        # 1 µs per span covers microsecond truncation and the
        # exporter's 1 µs floor.
        if abs(total - sum(spans) / 1e6) > 1e-6 * len(spans) + 1e-9:
            errors.append(
                f"histogram {name!r}: sum {total} s, spans sum to "
                f"{sum(spans) / 1e6} s"
            )
    listed = Counter(span.get("name") for span in metrics.get("spans", []))
    traced = Counter({name: len(spans) for name, spans in durations.items()})
    if listed != traced:
        errors.append(
            f"manifest spans {dict(sorted(listed.items()))} != trace "
            f"spans {dict(sorted(traced.items()))}"
        )
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="validate_observability",
        description="Validate traced-campaign observability artifacts.",
    )
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="Chrome trace-event JSON to validate")
    parser.add_argument("--prometheus", metavar="PATH",
                        help="Prometheus text exposition to validate")
    parser.add_argument("--obs-json", metavar="PATH",
                        help="repro obs --json report to validate")
    parser.add_argument("--manifest", metavar="PATH",
                        help="--metrics-out JSON manifest of the same run "
                             "as --chrome-trace, checked against it")
    args = parser.parse_args(argv)
    if not (args.chrome_trace or args.prometheus or args.obs_json):
        parser.error("give at least one artifact to validate")
    if args.manifest and not args.chrome_trace:
        parser.error("--manifest needs --chrome-trace")

    failures = 0

    def report(label, errors):
        nonlocal failures
        if errors:
            failures += 1
            print(f"{label}: {len(errors)} error(s)")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"{label}: ok")

    try:
        if args.chrome_trace:
            with open(args.chrome_trace, "r", encoding="utf-8") as handle:
                trace = json.load(handle)
            report(args.chrome_trace, validate_chrome_trace(trace))
        if args.manifest:
            with open(args.manifest, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            report(args.manifest, check_manifest_against_trace(manifest, trace))
        if args.prometheus:
            with open(args.prometheus, "r", encoding="utf-8") as handle:
                text = handle.read()
            report(args.prometheus, validate_exposition(text))
        if args.obs_json:
            with open(args.obs_json, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            report(args.obs_json, check_obs_report(document))
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_TOOL_ERROR
    return EXIT_INVALID if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
