"""Unit tests for the observability layer: metrics, manifests, telemetry."""

import io
import json
import time

from repro.observability import (
    Counter,
    JsonlWriter,
    MetricsRegistry,
    RunManifest,
    Tracer,
    write_manifest,
)
from repro.observability.manifest import MANIFEST_VERSION


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def test_counter_increment():
    counter = Counter("x")
    assert counter.increment() == 1
    assert counter.increment(4) == 5
    assert counter.value == 5


def test_registry_counters_and_values():
    registry = MetricsRegistry()
    assert registry.value("missing") == 0
    registry.increment("a")
    registry.increment("a", 2)
    assert registry.value("a") == 3


def test_tracer_span_records_registry_timer():
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    with tracer.span("stage") as span:
        pass
    histogram = registry.histograms["stage"]
    assert histogram.count == 1
    assert histogram.sum == span.duration_us / 1e6
    assert [record.name for record in tracer.finished] == ["stage"]
    assert set(registry.snapshot()["histograms"]) == {"stage"}


def test_span_recorded_even_when_body_raises():
    registry = MetricsRegistry()
    try:
        with Tracer(metrics=registry).span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    assert registry.histograms["boom"].count == 1


def test_adopted_spans_do_not_feed_the_registry_again():
    worker_registry = MetricsRegistry()
    worker = Tracer(metrics=worker_registry)
    with worker.span("shard"):
        pass
    registry = MetricsRegistry()
    parent = Tracer(metrics=registry)
    parent.adopt(worker.span_dicts())
    registry.merge_snapshot(worker_registry.snapshot())
    # One histogram sample per closed span: the adopted copy adds none.
    assert registry.histograms["shard"].count == 1
    assert [span["name"] for span in parent.snapshot()["spans"]] == ["shard"]


def test_snapshot_is_plain_and_sorted():
    registry = MetricsRegistry()
    registry.increment("zebra")
    registry.increment("alpha", 2)
    registry.observe_histogram("t", 0.5)
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["alpha", "zebra"]
    assert snapshot["counters"]["alpha"] == 2
    assert snapshot["histograms"]["t"]["count"] == 1
    # picklable/JSON-ready: round-trips through json untouched
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_merge_snapshot_folds_counters_and_timers():
    child = MetricsRegistry()
    child.increment("n", 5)
    child.observe_histogram("t", 0.1)
    child.observe_histogram("t", 0.3)

    parent = MetricsRegistry()
    parent.increment("n", 1)
    parent.observe_histogram("t", 0.2)
    parent.merge_snapshot(child.snapshot())

    assert parent.value("n") == 6
    histogram = parent.histograms["t"]
    assert histogram.count == 3
    assert abs(histogram.sum - 0.6) < 1e-6
    assert sum(histogram.counts) == 3


def test_merge_snapshot_tolerates_none_and_empty():
    registry = MetricsRegistry()
    registry.merge_snapshot(None)
    registry.merge_snapshot({})
    assert registry.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}
    }


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------


def test_manifest_lifecycle_and_payload():
    manifest = RunManifest.begin("demo", file="a.c", opt=1)
    manifest.record(phase="early")
    registry = MetricsRegistry()
    registry.increment("events", 7)
    manifest.finish(registry, status="ok")

    payload = manifest.to_dict()
    assert payload["manifest_version"] == MANIFEST_VERSION
    assert payload["command"] == "demo"
    assert payload["arguments"] == {"file": "a.c", "opt": 1}
    assert payload["results"] == {"phase": "early", "status": "ok"}
    assert payload["metrics"]["counters"]["events"] == 7
    assert payload["started_at"].endswith("Z")
    assert payload["finished_at"].endswith("Z")
    assert payload["duration_seconds"] >= 0.0
    # JSON-serializable end to end
    json.dumps(payload)


def test_unfinished_manifest_has_null_timing():
    payload = RunManifest.begin("demo").to_dict()
    assert payload["finished_at"] is None
    assert payload["duration_seconds"] is None


def test_finished_manifest_duration_is_frozen():
    manifest = RunManifest.begin("demo").finish()
    first, seconds = manifest.to_dict()["duration_seconds"], manifest.duration_seconds
    time.sleep(0.02)
    assert manifest.to_dict()["duration_seconds"] == first
    assert manifest.duration_seconds == seconds


def test_manifest_from_a_tracer_lists_its_spans():
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    with tracer.span("outer"):
        with tracer.span("inner"):
            registry.increment("events")
    metrics = RunManifest.begin("demo").finish(tracer).to_dict()["metrics"]
    assert set(metrics) == {"counters", "gauges", "histograms", "spans"}
    assert [span["name"] for span in metrics["spans"]] == ["inner", "outer"]
    assert set(metrics["histograms"]) == {"inner", "outer"}


# ----------------------------------------------------------------------
# Telemetry writers
# ----------------------------------------------------------------------


def test_jsonl_writer_appends(tmp_path):
    path = tmp_path / "log.jsonl"
    writer = JsonlWriter(str(path))
    writer.write({"a": 1})
    writer.write_all([{"b": 2}, {"c": 3}])
    assert writer.records_written == 3
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"a": 1}, {"b": 2}, {"c": 3}
    ]


def test_write_manifest_json_overwrites(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = RunManifest.begin("demo").finish()
    write_manifest(manifest, str(path))
    write_manifest(manifest, str(path))
    payload = json.loads(path.read_text())
    assert payload["command"] == "demo"


def test_write_manifest_jsonl_appends(tmp_path):
    path = tmp_path / "manifests.jsonl"
    manifest = RunManifest.begin("demo").finish()
    write_manifest(manifest, str(path))
    write_manifest(manifest, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["command"] == "demo" for line in lines)


def test_export_trace_round_trips_through_replay(tmp_path):
    from repro.pipeline import compile_program, observed_run
    from repro.runtime.ipds import IPDS
    from repro.runtime.replay import TraceRecorder, dump_trace, load_trace

    source = """
    int g;
    void main() {
      g = read_int();
      if (g == 0) { emit(1); } else { emit(2); }
    }
    """
    program = compile_program(source, "t.c")
    recorder = TraceRecorder()
    observed_run(program, observers=[recorder], inputs=[4])

    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        count = dump_trace(recorder.events, handle)
    assert count == len(recorder.events)
    with open(path, "r", encoding="utf-8") as handle:
        events = list(load_trace(handle))
    assert events == recorder.events
    assert IPDS(program.tables).run(events) == []

    stream = io.StringIO()
    assert dump_trace(recorder.events, stream) == count
    assert stream.getvalue() == path.read_text()
