"""Hierarchical span tracing: trees, propagation, Chrome export."""

import importlib.util
import json
import pathlib
import pickle
import re
import threading
from collections import Counter

from repro.observability import (
    TraceContext,
    Tracer,
    chrome_trace,
    maybe_span,
    validate_chrome_trace,
    validate_exposition,
    write_spans,
)
from repro.observability.prometheus import sanitize_metric_name


# ----------------------------------------------------------------------
# Span trees and context propagation
# ----------------------------------------------------------------------


def test_nested_spans_build_a_tree():
    tracer = Tracer()
    with tracer.span("outer", kind="campaign") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.trace_id == inner.trace_id == tracer.trace_id
    # finished in completion order: inner closes first
    assert [span.name for span in tracer.finished] == ["inner", "outer"]
    assert outer.attributes == {"kind": "campaign"}
    assert outer.duration_us >= inner.duration_us >= 0


def test_explicit_parent_overrides_the_stack():
    tracer = Tracer()
    elsewhere = TraceContext(trace_id=tracer.trace_id, span_id="beef" * 4)
    with tracer.span("top"):
        with tracer.span("detached", parent=elsewhere) as span:
            pass
    assert span.parent_id == elsewhere.span_id


def test_current_context_tracks_the_active_span():
    tracer = Tracer()
    root_context = tracer.current_context()
    assert root_context.trace_id == tracer.trace_id
    with tracer.span("s") as span:
        assert tracer.current_context() == span.context
    assert tracer.current_context() == root_context


def test_seeded_tracer_parents_under_the_remote_context():
    parent = Tracer()
    with parent.span("campaign") as root:
        handoff = parent.current_context()
    # ... the handoff crosses a process boundary as a pickle ...
    handoff = pickle.loads(pickle.dumps(handoff))
    worker = Tracer(context=handoff)
    assert worker.trace_id == parent.trace_id
    with worker.span("shard") as shard:
        pass
    assert shard.parent_id == root.span_id


def test_adopt_folds_worker_spans_into_one_valid_tree():
    parent = Tracer()
    with parent.span("campaign"):
        context = parent.current_context()
        worker = Tracer(context=context)
        with worker.span("shard"):
            with worker.span("shard.compile"):
                pass
        # shard results carry spans as plain dicts (picklable)
        shipped = json.loads(json.dumps(worker.span_dicts()))
    assert parent.adopt(shipped) == 2
    assert parent.adopt(None) == 0
    assert validate_chrome_trace(chrome_trace(parent.finished)) == []


def test_thread_local_stacks_do_not_cross_nest():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def worker(name):
        with tracer.span(name):
            barrier.wait()  # both spans provably open at once

    threads = [
        threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Concurrent siblings: neither adopted the other as parent.
    assert {span.parent_id for span in tracer.finished} == {None}


def test_events_and_maybe_span():
    tracer = Tracer()
    tracer.event("ignored-outside-any-span")
    with maybe_span(tracer, "stage", workload="telnetd") as span:
        tracer.event("checkpoint", index=3)
    assert span.events[0]["name"] == "checkpoint"
    assert span.events[0]["index"] == 3
    # Disabled tracing degrades to a nullcontext
    with maybe_span(None, "stage") as nothing:
        assert nothing is None


# ----------------------------------------------------------------------
# Chrome export and validation
# ----------------------------------------------------------------------


def _sample_tracer():
    tracer = Tracer()
    with tracer.span("root", jobs=2):
        with tracer.span("child"):
            tracer.event("mark")
    return tracer


def test_chrome_trace_document_shape():
    tracer = _sample_tracer()
    document = chrome_trace(tracer.finished)
    assert document["otherData"]["tool"] == "repro-tracing"
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    assert len(complete) == 2 and len(instants) == 1
    for event in complete:
        assert event["dur"] >= 1
        assert event["args"]["trace_id"] == tracer.trace_id
    assert validate_chrome_trace(document) == []


def test_validate_chrome_trace_rejects_broken_documents():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["document needs a 'traceEvents' list"]

    def doc(span_parents):
        return chrome_trace(
            [
                {
                    "name": "s", "trace_id": "t", "span_id": sid,
                    "parent_id": parent, "start_us": 0, "duration_us": 1,
                    "pid": 1, "tid": 1,
                }
                for sid, parent in span_parents
            ]
        )

    # duplicate ids, unknown parent, two roots, parent cycle
    assert any("duplicate" in e
               for e in validate_chrome_trace(doc([("a", None), ("a", None)])))
    assert any("unknown parent" in e
               for e in validate_chrome_trace(doc([("a", None), ("b", "zz")])))
    assert any("one root" in e
               for e in validate_chrome_trace(doc([("a", None), ("b", None)])))
    assert any("not connected" in e
               for e in validate_chrome_trace(
                   doc([("r", None), ("a", "b"), ("b", "a")])))


def test_write_spans_jsonl_appends_and_json_overwrites(tmp_path):
    tracer = _sample_tracer()

    jsonl = tmp_path / "spans.jsonl"
    assert write_spans(tracer.finished, str(jsonl)) == 2
    assert write_spans(tracer.finished, str(jsonl)) == 2  # appends
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(lines) == 4
    assert {line["name"] for line in lines} == {"root", "child"}

    chrome = tmp_path / "trace.json"
    write_spans(tracer.finished, str(chrome))
    write_spans(tracer.finished, str(chrome))  # overwrites
    document = json.loads(chrome.read_text())
    assert validate_chrome_trace(document) == []
    assert len(document["traceEvents"]) == 3


# ----------------------------------------------------------------------
# The real propagation boundary: a sharded campaign
# ----------------------------------------------------------------------


def test_sharded_campaign_produces_one_connected_trace():
    from repro.parallel.engine import run_campaign

    tracer = Tracer()
    summary = run_campaign(
        workloads=["telnetd"], attacks=4, jobs=2, tracer=tracer
    )
    assert summary.results[0].attacks
    document = chrome_trace(tracer.finished)
    assert validate_chrome_trace(document) == []

    by_name = {}
    for span in tracer.finished:
        by_name.setdefault(span.name, []).append(span)
    campaign_root = by_name["campaign"][0]
    assert campaign_root.parent_id is None
    # Worker-process shard spans hang directly under the campaign root,
    # and were recorded in other processes.
    shards = by_name["shard"]
    assert len(shards) == 2
    for shard in shards:
        assert shard.parent_id == campaign_root.span_id
        assert shard.trace_id == campaign_root.trace_id
    compile_parents = {span.parent_id for span in by_name["shard.compile"]}
    assert compile_parents <= {span.span_id for span in shards}


# ----------------------------------------------------------------------
# Telemetry agrees with the trace
# ----------------------------------------------------------------------

VALIDATOR = (
    pathlib.Path(__file__).parent.parent / "tools" / "validate_observability.py"
)


def _load_validator():
    spec = importlib.util.spec_from_file_location("validate_observability", VALIDATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_manifest_timers_and_spans_agree_with_the_chrome_trace(tmp_path, capsys):
    from repro.cli import main
    from repro.workloads.registry import get_workload

    source = tmp_path / "telnetd.c"
    source.write_text(get_workload("telnetd").source)
    runs = {
        "jobs1": ["campaign", "telnetd", "--attacks", "4", "--jobs", "1"],
        "jobs2": ["campaign", "telnetd", "--attacks", "4", "--jobs", "2"],
        "run": ["run", str(source), "--inputs", "1 2 3"],
    }
    validator = _load_validator()
    histograms = {}
    for name, argv in runs.items():
        manifest_path = tmp_path / f"{name}.json"
        trace_path = tmp_path / f"{name}-trace.json"
        assert main(
            argv + ["--metrics-out", str(manifest_path),
                    "--chrome-trace-out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        # Every histogram's count and sum match its same-named spans.
        assert validator.main(
            ["--chrome-trace", str(trace_path), "--manifest", str(manifest_path)]
        ) == 0
        metrics = json.loads(manifest_path.read_text())["metrics"]
        trace = json.loads(trace_path.read_text())
        assert Counter(span["name"] for span in metrics["spans"]) == Counter(
            event["name"] for event in trace["traceEvents"] if event["ph"] == "X"
        )
        histograms[name] = set(metrics["histograms"])
    assert histograms["jobs1"] == histograms["jobs2"] == {
        "campaign", "shard", "shard.compile"
    }
    assert histograms["run"] == {"session", "session.compile", "session.execute"}


FIGURE1 = """
int user;
void main() {
  user = read_int();
  if (user == 0) { emit(100); } else { emit(200); }
  int someinput = read_int();
  if (user == 0) { emit(111); } else { emit(222); }
}
"""


def test_attack_manifest_holds_one_histogram_per_span(tmp_path, capsys):
    from repro.cli import main
    from repro.interp import GLOBAL_BASE

    source = tmp_path / "figure1.c"
    source.write_text(FIGURE1)
    manifest_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.json"
    prom_path = tmp_path / "m.prom"
    assert main(
        ["attack", str(source), "--inputs", "5 1", "--trigger", "2",
         "--address", hex(GLOBAL_BASE), "--value", "0",
         "--metrics-out", str(manifest_path),
         "--chrome-trace-out", str(trace_path),
         "--prom-out", str(prom_path)]
    ) == 2
    capsys.readouterr()
    durations = {}
    for event in json.loads(trace_path.read_text())["traceEvents"]:
        if event["ph"] == "X":
            durations.setdefault(event["name"], []).append(event["dur"])
    histograms = json.loads(manifest_path.read_text())["metrics"]["histograms"]
    # One histogram per span name: no duration is recorded twice, and
    # none is recorded outside a span.
    assert set(histograms) == set(durations) == {
        "session", "session.attack", "session.compile"
    }
    for name, spans in durations.items():
        assert histograms[name]["count"] == len(spans)
        assert abs(histograms[name]["sum"] - sum(spans) / 1e6) <= 1e-6 * len(spans)
    text = prom_path.read_text()
    assert validate_exposition(text) == []
    families = re.findall(r"^# TYPE (\S+) histogram$", text, re.MULTILINE)
    assert sorted(families) == sorted(
        f"repro_{sanitize_metric_name(name)}_seconds" for name in durations
    )
    assert " summary" not in text


def test_validator_flags_a_manifest_that_disagrees_with_its_trace():
    validator = _load_validator()
    tracer = _sample_tracer()
    trace = chrome_trace(tracer.finished)
    manifest = {
        "metrics": {
            "histograms": {"root": {"count": 2, "sum": 0.0}},
            "spans": [{"name": "root", "seconds": 0.0}],
        }
    }
    errors = validator.check_manifest_against_trace(manifest, trace)
    assert any("histogram 'root': count 2" in error for error in errors)
    assert any("!= trace spans" in error for error in errors)
    assert any("manifest spans" in error for error in errors)
