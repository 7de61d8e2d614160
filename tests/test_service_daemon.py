"""End-to-end tests for the ``repro serve`` daemon.

A real daemon on a real unix socket, driven by the blocking client:
concurrent mixed-workload sessions must produce alarms, outcome records
and forensics byte-identical to the serial campaign path, with the
compiled-table cache shared across sessions.
"""

import json
import threading

import pytest

from repro.attacks.campaign import CampaignConfig, run_attack, run_attack_detailed
from repro.forensics import reports_to_json
from repro.pipeline import compile_program_cached
from repro.service import DetectionDaemon, ServeClient
from repro.service.protocol import ProtocolError, spec_from_payload
from repro.workloads.registry import get_workload

FIGURE1 = """
int user;
void main() {
  user = read_int();
  if (user == 0) { emit(100); } else { emit(200); }
  int someinput = read_int();
  if (user == 0) { emit(111); } else { emit(222); }
}
"""

#: 4 workloads x 3 indices = 12 concurrent sessions; includes the
#: pinned detected attacks telnetd#1, wu-ftpd#7 and atftpd#3.
MIXED_WORKLOADS = {
    "telnetd": [0, 1, 2],
    "wu-ftpd": [5, 6, 7],
    "atftpd": [2, 3, 4],
    "httpd": [0, 1, 2],
}


@pytest.fixture()
def daemon(tmp_path):
    instance = DetectionDaemon(
        socket_path=str(tmp_path / "repro.sock"),
        max_workers=8,
        quarantine_dir=str(tmp_path / "quarantine"),
    )
    thread = threading.Thread(target=instance.run, daemon=True)
    thread.start()
    assert instance.wait_ready(10)
    yield instance
    if not instance._stop.is_set():
        with ServeClient(socket_path=instance.socket_path) as client:
            client.shutdown()
    thread.join(10)
    assert not thread.is_alive()


def _serial_expectations():
    expected = {}
    for name, indices in MIXED_WORKLOADS.items():
        workload = get_workload(name)
        program = compile_program_cached(workload.source, name, 0)
        for index in indices:
            execution = run_attack_detailed(
                program, workload, index, config=CampaignConfig(forensics=True)
            )
            expected[(name, index)] = execution
    return expected


def test_concurrent_sessions_byte_identical_to_serial(daemon):
    expected = _serial_expectations()
    with ServeClient(socket_path=daemon.socket_path) as client:
        submitted = {}
        for name, indices in MIXED_WORKLOADS.items():
            for index in indices:
                sid = client.submit(
                    {
                        "mode": "attack",
                        "workload": name,
                        "attack_index": index,
                        "forensics": True,
                    }
                )
                submitted[sid] = (name, index)
        assert len(submitted) == 12

        results = client.results(list(submitted))
        detected = 0
        for sid, key in submitted.items():
            name, _index = key
            serial = expected[key]
            result = results[sid]
            assert result["outcome"] == serial.outcome.to_record(name), key
            assert result["alarms"] == list(serial.outcome.alarms), key
            if serial.outcome.detected:
                detected += 1
                assert result["state"] == "alarmed"
                assert result["forensics"] == reports_to_json(serial.reports)
            else:
                assert result["state"] == "completed"
        assert detected >= 3

        metrics = client.metrics()
        # 12 sessions over 4 distinct programs: the shared table cache
        # must have absorbed the rest.
        assert metrics["compile_cache"]["hits"] >= 8
        assert metrics["compile_cache"]["hit_rate"] > 0
        assert metrics["sessions"]["alarmed"] == detected
        assert metrics["counters"]["serve.submitted"] == 12
        assert metrics["steps_per_second"] >= 0
        client.shutdown()


def test_alarm_stream_and_sessions_listing(daemon):
    with ServeClient(socket_path=daemon.socket_path) as client:
        sid = client.submit(
            {"mode": "attack", "workload": "telnetd", "attack_index": 1}
        )
        result = client.result(sid)
        assert result["state"] == "alarmed"
        events = client.events(sid)
        kinds = [message["event"] for message in events]
        assert "state" in kinds
        assert "alarm" in kinds
        alarm_events = [m for m in events if m["event"] == "alarm"]
        assert [m["alarm"] for m in alarm_events] == result["alarms"]

        listing = {entry["session"]: entry for entry in client.sessions()}
        assert listing[sid]["state"] == "alarmed"
        assert listing[sid]["program"] == "telnetd"

        assert client.reap(sid) is True
        assert client.reap(sid) is False  # already gone
        assert all(
            entry["session"] != sid for entry in client.sessions()
        )
        client.shutdown()


def test_kill_policy_kills_only_the_alarmed_session(daemon):
    with ServeClient(socket_path=daemon.socket_path) as client:
        doomed = client.submit(
            {"mode": "attack", "workload": "telnetd", "attack_index": 1},
            policy="kill-session",
        )
        bystander = client.submit(
            {"mode": "attack", "workload": "telnetd", "attack_index": 0},
            policy="kill-session",
        )
        results = client.results([doomed, bystander])
        assert results[doomed]["state"] == "killed"
        assert results[doomed]["policy_actions"][0]["action"] == "kill-session"
        assert results[bystander]["state"] == "completed"
        # The daemon itself survived both.
        assert client.hello()["protocol"] == 1
        client.shutdown()


def test_quarantine_policy_over_the_wire(daemon, tmp_path):
    with ServeClient(socket_path=daemon.socket_path) as client:
        sid = client.submit(
            {
                "mode": "attack",
                "workload": "atftpd",
                "attack_index": 3,
                "forensics": True,
            },
            policy="quarantine",
        )
        result = client.result(sid)
        assert result["state"] == "alarmed"
        quarantined = [
            action
            for action in result["policy_actions"]
            if action["action"] == "quarantine"
        ]
        assert len(quarantined) == 1
        trace_path = quarantined[0]["path"]

        # The quarantined trace replays to the identical alarms —
        # through the daemon itself this time.
        with open(trace_path, encoding="utf-8") as handle:
            trace_text = handle.read()
        replay_sid = client.submit(
            {"mode": "replay", "workload": "atftpd", "trace_text": trace_text}
        )
        replayed = client.result(replay_sid)
        assert replayed["state"] == "alarmed"
        assert replayed["alarms"] == result["alarms"]
        client.shutdown()


def test_replay_of_a_mistyped_trace_fails_the_session(daemon):
    """A trace whose branch PCs are strings would replay as clean if
    its fields were coerced; the session fails on it instead."""
    trace = "".join(
        line + "\n"
        for line in (
            '{"k": "call", "fn": "main"}',
            '{"k": "br", "fn": "main", "pc": "0x10", "t": 1}',
        )
    )
    with ServeClient(socket_path=daemon.socket_path) as client:
        sid = client.submit(
            {
                "mode": "replay",
                "source": FIGURE1,
                "source_name": "figure1",
                "trace_text": trace,
            }
        )
        result = client.result(sid)
        assert result["state"] == "failed"
        assert result["error"].startswith("TraceFormatError: ")
        client.shutdown()


def test_replay_of_a_call_into_a_function_without_tables_fails(daemon):
    """Every function has tables, so a trace that calls one the program
    lacks cannot be checked: the session fails instead of skipping it."""
    trace = '{"k": "call", "fn": "main"}\n{"k": "call", "fn": "helper"}\n'
    with ServeClient(socket_path=daemon.socket_path) as client:
        sid = client.submit(
            {
                "mode": "replay",
                "source": FIGURE1,
                "source_name": "figure1",
                "trace_text": trace,
            }
        )
        result = client.result(sid)
        assert result["state"] == "failed"
        assert result["error"] == (
            "IPDSError: call into unprotected function 'helper'"
        )
        client.shutdown()


def test_failed_session_result_is_nested_like_every_other(daemon):
    """A FAILED session's ``result`` event carries the record under
    ``result``, the shape a finished session's has."""
    with ServeClient(socket_path=daemon.socket_path) as client:
        sid = client.submit(
            {"mode": "run", "source": "void main() { emit(", "source_name": "bad"}
        )
        message = client.wait_for(
            lambda m: m.get("event") == "result" and m.get("session") == sid
        )
        assert message["result"]["state"] == "failed"
        assert message["result"]["session"] == sid
        client.shutdown()


def test_timed_attack_session_reports_the_campaign_cycles(daemon):
    """``timed`` attaches the timing model to an attack session: its
    outcome carries the campaign's cycle count, and nothing else in the
    result moves."""
    workload = get_workload("telnetd")
    program = compile_program_cached(workload.source, "telnetd", 0)
    expected = run_attack(program, workload, 1, config=CampaignConfig(timed=True))
    spec = {"mode": "attack", "workload": "telnetd", "attack_index": 1}
    with ServeClient(socket_path=daemon.socket_path) as client:
        timed = client.submit({**spec, "timed": True})
        untimed = client.submit(spec)
        results = client.results([timed, untimed])
        client.shutdown()
    assert results[timed]["outcome"].pop("cycles") == expected.cycles
    assert "cycles" not in results[untimed]["outcome"]
    del results[timed]["session"], results[untimed]["session"]
    assert results[timed] == results[untimed]
    assert results[timed]["detected"] is True


def test_submit_spec_has_no_timing_mode():
    with pytest.raises(ProtocolError, match="timing_mode"):
        spec_from_payload(
            {
                "mode": "attack",
                "workload": "telnetd",
                "attack_index": 1,
                "timing_mode": "exact",
            }
        )


def test_inline_source_and_explicit_tamper(daemon):
    from repro.interp import GLOBAL_BASE

    with ServeClient(socket_path=daemon.socket_path) as client:
        clean = client.submit(
            {
                "mode": "run",
                "source": FIGURE1,
                "source_name": "figure1",
                "inputs": [5, 1],
            }
        )
        tampered = client.submit(
            {
                "mode": "attack",
                "source": FIGURE1,
                "source_name": "figure1",
                "inputs": [5, 1],
                "tamper": {
                    "trigger_kind": "read",
                    "trigger": 2,
                    "address": hex(GLOBAL_BASE),
                    "value": 0,
                },
            }
        )
        results = client.results([clean, tampered])
        assert results[clean]["state"] == "completed"
        assert results[clean]["outputs"] == [200, 222]
        assert results[tampered]["state"] == "alarmed"
        assert results[tampered]["tamper_fired"] is True
        client.shutdown()


def test_explicit_tamper_that_only_changes_the_exit_status(daemon):
    """Zeroing the divisor changes no branch, only how the run ends:
    the session counts it as a control-flow change, as a campaign
    does."""
    from repro.interp import GLOBAL_BASE

    with ServeClient(socket_path=daemon.socket_path) as client:
        session = client.submit(
            {
                "mode": "attack",
                "source": (
                    "int d; int e; void main() "
                    "{ d = read_int(); e = read_int(); emit(100 / d); }"
                ),
                "source_name": "divide",
                "inputs": [5, 7],
                "tamper": {
                    "trigger_kind": "read",
                    "trigger": 2,
                    "address": hex(GLOBAL_BASE),
                    "value": 0,
                },
            }
        )
        result = client.results([session])[session]
        assert result["state"] == "completed"
        assert result["tamper_fired"] is True
        assert result["status"] == "div_by_zero"
        assert result["outputs"] == []
        assert result["control_flow_changed"] is True
        client.shutdown()


def test_protocol_errors_do_not_kill_the_daemon(daemon):
    with ServeClient(socket_path=daemon.socket_path) as client:
        with pytest.raises(ProtocolError):
            client._request("no-such-op")
        with pytest.raises(ProtocolError):
            client.submit({"mode": "attack", "workload": "telnetd"})
        with pytest.raises(ProtocolError):
            client.submit({"mode": "run", "workload": "telnetd", "bogus": 1})
        # Daemon never reads files on a client's behalf.
        sid = client.submit({"mode": "run", "workload": "/etc/hostname"})
        assert client.result(sid)["state"] == "failed"
        # Raw garbage on the wire is answered with an error event.
        client._sock.sendall(b"not json\n")
        message = client.wait_for(lambda m: m.get("event") == "error")
        assert "bad request line" in message["error"]
        assert client.hello()["protocol"] == 1
        assert client.kill("s999") is False
        client.shutdown()


def test_metrics_prometheus_format_and_histograms(daemon):
    from repro.observability import validate_exposition

    with ServeClient(socket_path=daemon.socket_path) as client:
        sid = client.submit(
            {"mode": "attack", "workload": "telnetd", "attack_index": 1}
        )
        assert client.result(sid)["state"] == "alarmed"

        metrics = client.metrics()
        assert metrics["counters"]["serve.sessions.alarmed"] == 1
        assert metrics["uptime_monotonic_seconds"] > 0
        histograms = metrics["histograms"]
        assert histograms["session"]["count"] == 1
        assert histograms["session.compile"]["count"] == 1
        assert histograms["session.attack"]["count"] == 1
        assert histograms["serve.queue_wait"]["count"] == 1

        text = client.metrics_prometheus()
        assert validate_exposition(text) == []
        assert "repro_serve_submitted_total 1" in text
        assert 'repro_session_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_serve_queue_wait_seconds_count 1" in text

        # Unknown formats are protocol errors; the daemon survives.
        with pytest.raises(ProtocolError):
            client._request("metrics", format="xml")
        assert client.hello()["protocol"] == 1
        client.shutdown()


def test_metrics_after_a_result_count_that_session(daemon):
    """The daemon folds a session into its registry before it sends the
    session's ``result``, so a ``metrics`` request sent right after the
    result always counts the session."""
    with ServeClient(socket_path=daemon.socket_path) as client:
        for done in range(1, 31):
            sid = client.submit(
                {"mode": "run", "workload": "telnetd", "inputs": [1, 2, 3]}
            )
            assert client.result(sid)["state"] == "completed"
            counters = client.metrics()["counters"]
            assert counters.get("serve.sessions.completed") == done
            assert counters.get("session.started") == done
        client.shutdown()


def test_run_session_histograms_are_its_spans(daemon):
    import re

    from repro.observability import validate_exposition
    from repro.observability.prometheus import sanitize_metric_name

    with ServeClient(socket_path=daemon.socket_path) as client:
        sid = client.submit(
            {"mode": "run", "workload": "telnetd", "inputs": [1, 2, 3]}
        )
        assert client.result(sid)["state"] == "completed"
        metrics = client.metrics()
        assert metrics["counters"]["serve.sessions.completed"] == 1
        [session] = daemon.registry.list()
        spans = {span.name for span in session.tracer.finished}
        assert spans == {"session", "session.compile", "session.execute"}
        # Each span is one sample of the histogram of its name; the
        # queue wait is the one duration that is not a span.
        histograms = metrics["histograms"]
        assert set(histograms) == spans | {"serve.queue_wait"}
        for name in spans:
            assert histograms[name]["count"] == 1

        text = client.metrics_prometheus()
        assert validate_exposition(text) == []
        families = re.findall(r"^# TYPE (\S+) histogram$", text, re.MULTILINE)
        assert sorted(families) == sorted(
            f"repro_{sanitize_metric_name(name)}_seconds"
            for name in spans | {"serve.queue_wait"}
        )
        assert " summary" not in text
        client.shutdown()


def test_metrics_payload_zero_uptime_guard(daemon):
    import time

    daemon._started = time.monotonic() + 3600  # clock not yet advanced
    payload = daemon.metrics_payload()
    assert payload["uptime_monotonic_seconds"] == 0.0
    assert payload["steps_per_second"] == 0.0


def test_client_supplied_trace_context_parents_the_session(daemon):
    from repro.observability import Tracer

    client_tracer = Tracer(service="edge-client")
    with client_tracer.span("client-request"):
        context = client_tracer.current_context()

    with ServeClient(socket_path=daemon.socket_path) as client:
        traced = client.submit(
            {"mode": "attack", "workload": "telnetd", "attack_index": 1},
            trace=context.to_dict(),
        )
        plain = client.submit(
            {"mode": "attack", "workload": "telnetd", "attack_index": 0}
        )
        results = client.results([traced, plain])
        # The session joined the client's trace, not a daemon-local one.
        assert results[traced]["trace"]["trace_id"] == client_tracer.trace_id
        # Untraced submissions keep the historical result shape.
        assert "trace" not in results[plain]
        client.shutdown()


def test_daemon_registry_stays_bounded_over_many_sessions():
    """Folding finished sessions keeps the daemon registry one fixed
    shape: the same snapshot keys after 1 and after 51 ``run``
    sessions, and no list that grows with the session count."""
    from repro.service.engine import DetectionSession, SessionSpec

    instance = DetectionDaemon(socket_path=None)
    spec = SessionSpec(mode="run", source=FIGURE1, inputs=(0, 1))

    def fold(count):
        for index in range(count):
            session = DetectionSession(spec, session_id=f"s{index}")
            session.run()
            instance._on_session_done(session)
        return instance.metrics.snapshot()

    def shape(value):
        if isinstance(value, dict):
            return {key: shape(item) for key, item in value.items()}
        if isinstance(value, list):
            return len(value)
        return None

    first = fold(1)
    assert first["counters"]["serve.sessions.completed"] == 1
    later = fold(50)
    assert later["counters"]["serve.sessions.completed"] == 51
    assert shape(later) == shape(first)


def test_daemon_trace_out_writes_one_connected_tree(tmp_path):
    from repro.observability import validate_chrome_trace

    trace_path = tmp_path / "daemon-trace.json"
    instance = DetectionDaemon(
        socket_path=str(tmp_path / "traced.sock"),
        max_workers=2,
        trace_out=str(trace_path),
    )
    thread = threading.Thread(target=instance.run, daemon=True)
    thread.start()
    assert instance.wait_ready(10)
    with ServeClient(socket_path=instance.socket_path) as client:
        sid = client.submit(
            {"mode": "attack", "workload": "telnetd", "attack_index": 1}
        )
        result = client.result(sid)
        assert result["state"] == "alarmed"
        assert result["trace"]["trace_id"] == instance.tracer.trace_id
        client.shutdown()
    thread.join(10)
    assert not thread.is_alive()

    document = json.loads(trace_path.read_text())
    assert validate_chrome_trace(document) == []
    names = {event["name"] for event in document["traceEvents"]}
    assert {"serve", "session", "session.compile", "session.attack"} <= names


def test_cli_serve_smoke(tmp_path, capsys):
    """``repro serve`` through the CLI entry point (in-process)."""
    from repro.cli import main

    socket_path = str(tmp_path / "cli.sock")
    rc_box = {}

    def serve():
        rc_box["rc"] = main(
            ["serve", "--socket", socket_path, "--max-workers", "2"]
        )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with ServeClient(socket_path=socket_path) as client:
        sid = client.submit(
            {"mode": "attack", "workload": "telnetd", "attack_index": 1}
        )
        assert client.result(sid)["state"] == "alarmed"
        client.shutdown()
    thread.join(10)
    assert rc_box["rc"] == 0


def test_client_closes_every_socket_of_a_failed_connect(tmp_path, monkeypatch):
    """A client that races a daemon retries every 50 ms; each attempt
    whose connect fails closes its socket, and so does the last one,
    whose error reaches the caller."""
    import socket

    made = []

    class TrackedSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(socket, "socket", TrackedSocket)
    with pytest.raises(OSError):
        ServeClient(socket_path=str(tmp_path / "missing.sock"), connect_timeout=0.2)
    assert len(made) >= 2
    assert [sock.fileno() for sock in made] == [-1] * len(made)
