"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

FIGURE1 = """
int user;
void main() {
  user = read_int();
  if (user == 0) { emit(100); } else { emit(200); }
  int someinput = read_int();
  if (user == 0) { emit(111); } else { emit(222); }
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "figure1.c"
    path.write_text(FIGURE1)
    return str(path)


def test_compile_dumps_tables(source_file, capsys):
    assert main(["compile", source_file]) == 0
    out = capsys.readouterr().out
    assert "tables for main" in out
    assert "BCV" in out
    assert "hash trials" in out


def test_compile_with_ir(source_file, capsys):
    assert main(["compile", source_file, "--ir"]) == 0
    out = capsys.readouterr().out
    assert "func main(" in out
    assert "br " in out


def test_run_clean(source_file, capsys):
    assert main(["run", source_file, "--inputs", "5 1"]) == 0
    out = capsys.readouterr().out
    assert "outputs: [200, 222]" in out
    assert "alarms : none" in out


def test_run_detects_nothing_on_admin(source_file, capsys):
    assert main(["run", source_file, "--inputs", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "[100, 111]" in out


def test_attack_detected_exit_code(source_file, capsys):
    from repro.interp import GLOBAL_BASE

    rc = main(
        [
            "attack",
            source_file,
            "--inputs",
            "5 1",
            "--trigger",
            "2",
            "--address",
            hex(GLOBAL_BASE),
            "--value",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 2
    assert "DETECTED" in out
    assert "control flow changed: True" in out


def test_attack_noop_value(source_file, capsys):
    from repro.interp import GLOBAL_BASE

    rc = main(
        [
            "attack",
            source_file,
            "--inputs",
            "5 1",
            "--trigger",
            "2",
            "--address",
            hex(GLOBAL_BASE),
            "--value",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "control flow changed: False" in out


#: Zeroing ``d`` at the second read changes no branch: the attacked run
#: commits the clean run's (empty) branch trace, then dies dividing.
DIVIDE = """
int d;
int e;
void main() { d = read_int(); e = read_int(); emit(100 / d); }
"""


def test_attack_status_only_change_is_a_control_flow_change(tmp_path, capsys):
    from repro.interp import GLOBAL_BASE

    path = tmp_path / "divide.c"
    path.write_text(DIVIDE)
    rc = main(
        [
            "attack",
            str(path),
            "--inputs",
            "5 7",
            "--trigger",
            "2",
            "--address",
            hex(GLOBAL_BASE),
            "--value",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "outputs             : [20] -> []" in out
    assert "control flow changed: True" in out


def test_attack_bad_address_is_a_usage_error(source_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "attack",
                source_file,
                "--trigger",
                "2",
                "--address",
                "zz",
                "--value",
                "0",
            ]
        )
    assert excinfo.value.code == 2
    assert "argument --address" in capsys.readouterr().err


def test_campaign_small(capsys):
    assert main(["campaign", "sysklogd", "--attacks", "5"]) == 0
    out = capsys.readouterr().out
    assert "workload sysklogd" in out
    assert "detected of changed" in out


def test_timing_small(capsys):
    assert main(["timing", "telnetd", "--scale", "2"]) == 0
    out = capsys.readouterr().out
    assert "normalized perf" in out


def test_run_trace_out_replays_clean(source_file, tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    assert main(["run", source_file, "--inputs", "5 1", "--trace-out", trace]) == 0
    capsys.readouterr()
    assert main(["replay", source_file, trace]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_replay_flags_tampered_trace(source_file, tmp_path, capsys):
    # Record a tampered run's events manually, then replay offline.
    from repro import TamperSpec, compile_program
    from repro.interp import GLOBAL_BASE
    from repro.pipeline import observed_run
    from repro.runtime.replay import TraceRecorder, dump_trace

    program = compile_program(FIGURE1)
    recorder = TraceRecorder()
    observed_run(
        program,
        observers=[recorder],
        inputs=[5, 1],
        tamper=TamperSpec("read", 2, GLOBAL_BASE, 0),
    )
    trace = tmp_path / "bad.jsonl"
    with open(trace, "w") as handle:
        dump_trace(recorder.events, handle)
    rc = main(["replay", source_file, str(trace)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "ALARM" in out


def test_attack_trace_out_replays_with_identical_alarm(
    source_file, tmp_path, capsys
):
    """CLI round trip: tampered attack --trace-out, then offline replay.

    The offline verdict must be the *same alarm* the online IPDS raised
    — same function, pc, expected status, and event index.
    """
    from repro.interp import GLOBAL_BASE

    trace = str(tmp_path / "attack.jsonl")
    rc = main(
        [
            "attack", source_file,
            "--inputs", "5 1",
            "--trigger", "2",
            "--address", hex(GLOBAL_BASE),
            "--value", "0",
            "--trace-out", trace,
        ]
    )
    out = capsys.readouterr().out
    assert rc == 2
    online = next(
        line.split(": ", 1)[1]
        for line in out.splitlines()
        if line.startswith("DETECTED")
    )

    rc = main(["replay", source_file, trace])
    out = capsys.readouterr().out
    assert rc == 2
    offline = next(
        line.split(": ", 1)[1]
        for line in out.splitlines()
        if line.startswith("ALARM:")
    )
    assert offline == online


@pytest.fixture()
def attack_trace(source_file, tmp_path, capsys):
    """Figure 1's attack trace from ``repro attack --trace-out``; it
    replays with an alarm."""
    from repro.interp import GLOBAL_BASE

    trace = tmp_path / "attack.jsonl"
    assert main(
        [
            "attack", source_file,
            "--inputs", "5 1",
            "--trigger", "2",
            "--address", hex(GLOBAL_BASE),
            "--value", "0",
            "--trace-out", str(trace),
        ]
    ) == 2
    assert main(["replay", source_file, str(trace)]) == 2
    capsys.readouterr()
    return trace


def mistyped(trace):
    """``trace`` with every branch PC written as a string."""
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    for record in records:
        if record["k"] == "br":
            record["pc"] = hex(record["pc"])
    return "".join(json.dumps(record) + "\n" for record in records)


@pytest.mark.parametrize("verb", ["replay", "explain"])
@pytest.mark.parametrize("damage", ["utf-16", "string-pcs"])
def test_malformed_trace_file_is_tool_error(
    verb, damage, source_file, attack_trace, capsys
):
    if damage == "utf-16":
        attack_trace.write_bytes(attack_trace.read_text().encode("utf-16"))
        assert attack_trace.read_bytes()[:2] == b"\xff\xfe"
    else:
        attack_trace.write_text(mistyped(attack_trace))
    assert main([verb, source_file, str(attack_trace)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "clean" not in captured.out and "ALARM" not in captured.out


def test_run_trace_out_is_replayable(source_file, tmp_path, capsys):
    trace = str(tmp_path / "run.jsonl")
    assert main(
        ["run", source_file, "--inputs", "5 1", "--trace-out", trace]
    ) == 0
    capsys.readouterr()
    assert main(["replay", source_file, trace]) == 0
    assert "clean" in capsys.readouterr().out


HELPER = """
int helper(int x) {
  if (x > 3) { return x + 1; }
  return x;
}
void main() { emit(helper(read_int())); }
"""


@pytest.mark.parametrize("verb", ["replay", "explain"])
def test_a_call_into_a_function_without_tables_is_a_tool_error(
    verb, source_file, tmp_path, capsys
):
    """Every function has tables, so a trace whose call names a
    function the program lacks cannot be checked: exit 2, never a
    clean verdict."""
    helper = tmp_path / "helper.c"
    helper.write_text(HELPER)
    trace = str(tmp_path / "helper.jsonl")
    assert main(["run", str(helper), "--inputs", "5", "--trace-out", trace]) == 0
    capsys.readouterr()
    assert main([verb, source_file, trace]) == 2
    captured = capsys.readouterr()
    assert "error: call into unprotected function 'helper'" in captured.err
    assert "clean" not in captured.out and "no alarms" not in captured.out


def test_metrics_out_manifests_for_all_commands(source_file, tmp_path, capsys):
    import json

    from repro.interp import GLOBAL_BASE

    manifest = tmp_path / "m.json"

    def read_manifest():
        payload = json.loads(manifest.read_text())
        assert payload["manifest_version"] == 2
        assert payload["finished_at"] is not None
        assert "counters" in payload["metrics"]
        return payload

    assert main(
        ["run", source_file, "--inputs", "5 1", "--metrics-out", str(manifest)]
    ) == 0
    payload = read_manifest()
    assert payload["command"] == "run"
    assert payload["results"]["status"] == "ok"
    assert payload["metrics"]["counters"]["interp.steps"] > 0

    assert main(
        [
            "attack", source_file,
            "--inputs", "5 1",
            "--trigger", "2",
            "--address", hex(GLOBAL_BASE),
            "--value", "0",
            "--metrics-out", str(manifest),
        ]
    ) == 2
    payload = read_manifest()
    assert payload["command"] == "attack"
    assert payload["results"]["detected"] is True

    assert main(
        ["campaign", "sysklogd", "--attacks", "2",
         "--metrics-out", str(manifest)]
    ) == 0
    payload = read_manifest()
    assert payload["command"] == "campaign"
    assert payload["metrics"]["counters"]["campaign.attacks"] == 2

    assert main(
        ["timing", "telnetd", "--scale", "2", "--metrics-out", str(manifest)]
    ) == 0
    payload = read_manifest()
    assert payload["command"] == "timing"
    assert payload["results"]["instructions"] > 0
    capsys.readouterr()


def test_metrics_out_jsonl_appends(source_file, tmp_path, capsys):
    import json

    log = tmp_path / "runs.jsonl"
    for _ in range(2):
        assert main(
            ["run", source_file, "--inputs", "5 1",
             "--metrics-out", str(log)]
        ) == 0
    capsys.readouterr()
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["command"] == "run" for line in lines)


def test_campaign_trace_out_outcome_records(tmp_path, capsys):
    import json

    outcomes = tmp_path / "outcomes.jsonl"
    assert main(
        ["campaign", "sysklogd", "--attacks", "3",
         "--trace-out", str(outcomes)]
    ) == 0
    capsys.readouterr()
    records = [
        json.loads(line) for line in outcomes.read_text().splitlines()
    ]
    assert len(records) == 3
    assert [record["index"] for record in records] == [0, 1, 2]
    assert all(record["workload"] == "sysklogd" for record in records)
    assert {"detected", "control_flow_changed", "target"} <= records[0].keys()


# -- audit / lint ------------------------------------------------------

CLAMPED = """
int v;
void main() {
    v = read_int();
    if (v < 0) { v = 0; }
    if (v < 0) { emit(1); } else { emit(2); }
}
"""


@pytest.fixture()
def clamped_file(tmp_path):
    path = tmp_path / "clamped.c"
    path.write_text(CLAMPED)
    return str(path)


def test_audit_clean_file_exits_zero(source_file, capsys):
    assert main(["audit", source_file]) == 0
    out = capsys.readouterr().out
    assert "figure1.c@opt0" in out
    assert "0 error(s), 0 warning(s)" in out


def test_audit_missing_file_is_tool_error(capsys):
    assert main(["audit", "/nonexistent/prog.c"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compile_finds_a_workload_by_name(capsys):
    assert main(["compile", "telnetd"]) == 0
    assert "tables for main" in capsys.readouterr().out


def test_run_trace_out_finds_a_workload_by_name(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "telnetd", "--trace-out", str(trace)]) == 0
    assert "status : ok" in capsys.readouterr().out
    assert trace.read_text().startswith('{"k": "call", "fn": "main"}')


@pytest.mark.parametrize("verb", ["compile", "run"])
def test_missing_program_file_is_tool_error(verb, capsys):
    assert main([verb, "/nonexistent.c"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compile_of_too_deep_source_is_tool_error(tmp_path, capsys):
    deep = tmp_path / "deep.c"
    deep.write_text(
        "void main() {\nint x = 1;\n"
        + "if (x == 1) {\n" * 1000
        + "}\n" * 1000
        + "}\n"
    )
    assert main(["compile", str(deep)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compile_of_a_long_operator_chain(tmp_path, capsys):
    chain = tmp_path / "chain.c"
    chain.write_text(
        "void main() { int x = " + " + ".join(["1"] * 500) + "; emit(x); }\n"
    )
    assert main(["compile", str(chain)]) == 0
    assert "error:" not in capsys.readouterr().err


def test_timing_has_no_mode_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["timing", "telnetd", "--timing-mode", "segment"])
    assert excinfo.value.code == 2
    assert "--timing-mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["timing", "telnetd", "--scale", "-5"], "--scale"),
        (["campaign", "telnetd", "--attacks", "-3"], "--attacks"),
        (["attack", "telnetd", "--trigger", "0", "--address", "0x1000",
          "--value", "0"], "--trigger"),
        (["attack", "telnetd", "--trigger", "-4", "--address", "0x1000",
          "--value", "0"], "--trigger"),
    ],
    ids=["timing-scale", "campaign-attacks", "attack-trigger-0",
         "attack-trigger-negative"],
)
def test_a_count_below_one_is_a_usage_error(argv, option, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {option}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "telnetd", "--inputs", "1 x 3"],
        ["attack", "telnetd", "--inputs", "1 x 3", "--trigger", "1",
         "--address", "0x1000", "--value", "0"],
    ],
    ids=["run", "attack"],
)
def test_inputs_that_are_not_integers_are_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --inputs: not a list of integers: '1 x 3'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, word",
    [
        (["record", "telnetd", "--out", "t.jsonl"], "'record'"),
        (["explain", "telnetd", "t.jsonl", "--history", "3"], "--history"),
        (["run", "telnetd", "--entry", "main"], "--entry"),
        (["attack", "telnetd", "--entry", "main", "--trigger", "1",
          "--address", "0x1000", "--value", "0"], "--entry"),
        (["run", "telnetd", "--allow-unprotected"], "--allow-unprotected"),
        (["replay", "telnetd", "t.jsonl", "--allow-unprotected"],
         "--allow-unprotected"),
        (["explain", "telnetd", "t.jsonl", "--allow-unprotected"],
         "--allow-unprotected"),
        (["explain", "telnetd", "t.jsonl", "--depth", "8"], "--depth"),
    ],
    ids=[
        "record",
        "explain-history",
        "run-entry",
        "attack-entry",
        "run-allow-unprotected",
        "replay-allow-unprotected",
        "explain-allow-unprotected",
        "explain-depth",
    ],
)
def test_removed_verb_and_options_are_usage_errors(argv, word, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert word in capsys.readouterr().err


@pytest.mark.parametrize("port", ["99999", "-5"])
def test_serve_port_out_of_range_is_a_usage_error(port, capsys):
    from repro.cli import build_parser

    # Parsing alone: no server starts.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["serve", "--port", port])
    assert excinfo.value.code == 2
    assert "argument --port: must be 0-65535" in capsys.readouterr().err


def test_reporting_unwritable_metrics_out_is_tool_error(capsys):
    from repro import reporting

    rc = reporting.main(["table1", "--metrics-out", "/nonexistent/m.json"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_audit_parse_error_is_tool_error(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int int int {{{")
    assert main(["audit", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_findings_exit_distinct_from_tool_error(
    source_file, capsys, monkeypatch
):
    # Freshly compiled tables audit clean, so inject a finding to pin
    # the "diagnostics found" (1) vs "tool error" (2) distinction.
    import repro.staticcheck as staticcheck

    sink_diag = staticcheck.Diagnostic(
        code="COR205",
        severity=staticcheck.Severity.ERROR,
        message="injected",
    )
    monkeypatch.setattr(
        staticcheck, "run_passes", lambda *a, **k: [sink_diag]
    )
    assert main(["audit", source_file]) == 1
    assert "COR205" in capsys.readouterr().out


def test_lint_warnings_gate_exit_code(clamped_file, capsys):
    assert main(["lint", clamped_file]) == 1
    out = capsys.readouterr().out
    assert "DEAD403" in out
    assert main(["lint", clamped_file, "--fail-on", "never"]) == 0
    assert main(["lint", clamped_file, "--fail-on", "error"]) == 0


def test_audit_workload_target_and_reports(tmp_path, capsys):
    import json

    sarif = tmp_path / "audit.sarif"
    report = tmp_path / "audit.json"
    manifest = tmp_path / "m.json"
    assert main(
        [
            "audit", "telnetd",
            "--opt", "1",
            "--sarif", str(sarif),
            "--json", str(report),
            "--metrics-out", str(manifest),
        ]
    ) == 0
    capsys.readouterr()
    log = json.loads(sarif.read_text())
    assert log["version"] == "2.1.0"
    [run] = log["runs"]
    assert run["results"] == []
    payload = json.loads(report.read_text())
    assert payload["targets"][0]["name"] == "telnetd@opt1"
    record = json.loads(manifest.read_text())
    assert record["command"] == "audit"
    assert record["results"]["errors"] == 0
    assert "staticcheck.correlation-audit" in record["metrics"]["histograms"]


def test_sarif_to_stdout(source_file, capsys):
    assert main(["audit", source_file, "--sarif", "-"]) == 0
    out = capsys.readouterr().out
    assert '"version": "2.1.0"' in out


def test_compile_check_flag(source_file, capsys):
    assert main(["compile", source_file, "--check"]) == 0
    assert "tables for main" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["campaign", "nginx"])


# -- predict / coverage --compare-opt -----------------------------------


def test_predict_emits_det_verdicts(source_file, capsys):
    assert main(["predict", source_file]) == 0
    out = capsys.readouterr().out
    assert "DET80" in out  # at least one verdict class reported
    assert "figure1.c@opt0" in out


def test_predict_workload_sarif_and_json(tmp_path, capsys):
    import json

    sarif = tmp_path / "predict.sarif"
    report = tmp_path / "predict.json"
    assert main(
        [
            "predict", "telnetd",
            "--opt", "2",
            "--sarif", str(sarif),
            "--json", str(report),
        ]
    ) == 0
    capsys.readouterr()
    log = json.loads(sarif.read_text())
    assert log["version"] == "2.1.0"
    [run] = log["runs"]
    rule_ids = {result["ruleId"] for result in run["results"]}
    assert rule_ids <= {"DET801", "DET802", "DET803"}
    assert rule_ids
    payload = json.loads(report.read_text())
    assert payload["targets"][0]["name"] == "telnetd@opt2"


def test_predict_never_gates_by_default(source_file):
    # Verdicts are notes — below every gating threshold.
    assert main(["predict", source_file]) == 0
    assert main(["predict", source_file, "--fail-on", "warning"]) == 0


def test_coverage_compare_opt_reports_monotonic_table(capsys):
    assert main(["coverage", "telnetd", "--compare-opt"]) == 0
    out = capsys.readouterr().out
    assert "== telnetd" in out
    assert "informational" in out  # the opt-1 row is not gated
    assert "vs opt2" in out  # per-opt delta column present
    assert "MONOTONICITY VIOLATION" not in out


def test_coverage_compare_opt_manifest(tmp_path, capsys):
    import json

    manifest = tmp_path / "m.json"
    assert main(
        ["coverage", "telnetd", "--compare-opt",
         "--metrics-out", str(manifest)]
    ) == 0
    capsys.readouterr()
    record = json.loads(manifest.read_text())
    assert record["command"] == "coverage"
    assert record["results"]["violations"] == 0


# -- forensics: explain / --forensics / bench-diff ----------------------


def _tampered_trace(source_file, tmp_path, capsys):
    from repro.interp import GLOBAL_BASE

    trace = str(tmp_path / "attack.jsonl")
    rc = main(
        [
            "attack", source_file,
            "--inputs", "5 1",
            "--trigger", "2",
            "--address", hex(GLOBAL_BASE),
            "--value", "0",
            "--trace-out", trace,
        ]
    )
    assert rc == 2
    capsys.readouterr()
    return trace


def test_explain_clean_trace_exits_zero(source_file, tmp_path, capsys):
    trace = str(tmp_path / "clean.jsonl")
    assert main(["run", source_file, "--inputs", "5 1", "--trace-out", trace]) == 0
    capsys.readouterr()
    assert main(["explain", source_file, trace]) == 0
    assert "no alarms" in capsys.readouterr().out


def test_offline_explain_writes_the_live_forensics_bytes(
    source_file, tmp_path, capsys
):
    """``repro explain`` on an attack's trace writes the AlarmReport
    document the attack's own ``--forensics`` wrote, byte for byte."""
    from repro.interp import GLOBAL_BASE

    trace, live, offline = (
        str(tmp_path / name) for name in ("t.jsonl", "live.json", "offline.json")
    )
    rc = main(
        [
            "attack", source_file,
            "--inputs", "5 1",
            "--trigger", "2",
            "--address", hex(GLOBAL_BASE),
            "--value", "0",
            "--forensics",
            "--forensics-out", live,
            "--trace-out", trace,
        ]
    )
    assert rc == 2
    assert main(["explain", source_file, trace, "--json", offline]) == 1
    capsys.readouterr()
    with open(live, "rb") as a, open(offline, "rb") as b:
        assert a.read() == b.read()


def test_explain_tampered_trace_exits_one(source_file, tmp_path, capsys):
    trace = _tampered_trace(source_file, tmp_path, capsys)
    rc = main(["explain", source_file, trace])
    out = capsys.readouterr().out
    assert rc == 1
    assert "violated correlation" in out
    assert "causal chain" in out
    assert "fully explained" in out


def test_explain_takes_the_flight_recorder_depth_its_note_names(
    source_file, tmp_path, capsys
):
    """A degraded report tells the user to raise
    ``--flight-recorder-depth``, and ``explain`` takes that flag."""
    trace = _tampered_trace(source_file, tmp_path, capsys)
    assert main(
        ["explain", source_file, trace, "--flight-recorder-depth", "1"]
    ) == 1
    out = capsys.readouterr().out
    assert "depth 1" in out
    assert "raise --flight-recorder-depth" in out


def test_explain_missing_trace_is_tool_error(source_file, capsys):
    assert main(["explain", source_file, "/nonexistent.jsonl"]) == 2
    assert "error:" in capsys.readouterr().err


def test_explain_json_and_sarif(source_file, tmp_path, capsys):
    import json

    trace = _tampered_trace(source_file, tmp_path, capsys)
    report = tmp_path / "report.json"
    sarif = tmp_path / "report.sarif"
    rc = main([
        "explain", source_file, trace,
        "--json", str(report), "--sarif", str(sarif),
    ])
    assert rc == 1
    document = json.loads(report.read_text())
    assert document["tool"] == "repro-forensics"
    assert document["alarms"] >= 1
    assert document["alarms"] == document["explained"]
    assert document["reports"][0]["provenance"]["reason"] == "subsumption"
    runs = json.loads(sarif.read_text())["runs"]
    assert any(
        result["ruleId"] == "FOR501"
        for run in runs for result in run["results"]
    )


def test_attack_forensics_flag_and_report(source_file, tmp_path, capsys):
    import json

    from repro.interp import GLOBAL_BASE

    report = tmp_path / "forensics.json"
    rc = main(
        [
            "attack", source_file,
            "--inputs", "5 1",
            "--trigger", "2",
            "--address", hex(GLOBAL_BASE),
            "--value", "0",
            "--forensics",
            "--forensics-out", str(report),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 2
    assert "forensics:" in out
    assert "violated correlation" in out
    document = json.loads(report.read_text())
    assert document["explained"] == document["alarms"] >= 1


def test_attack_forensics_explains_each_alarm_once(
    source_file, tmp_path, monkeypatch, capsys
):
    """The CLI renders the explanations its session already made."""
    import repro.forensics
    from repro.interp import GLOBAL_BASE

    calls = []
    explain_ipds = repro.forensics.explain_ipds

    def counting(ipds, *args, **kwargs):
        calls.append(ipds)
        return explain_ipds(ipds, *args, **kwargs)

    monkeypatch.setattr(repro.forensics, "explain_ipds", counting)
    report = tmp_path / "forensics.json"
    rc = main(
        [
            "attack", source_file,
            "--inputs", "5 1",
            "--trigger", "2",
            "--address", hex(GLOBAL_BASE),
            "--value", "0",
            "--forensics",
            "--forensics-out", str(report),
        ]
    )
    assert rc == 2
    assert len(calls) == 1
    assert "violated correlation" in capsys.readouterr().out
    assert report.read_text().startswith("{")


def test_run_forensics_clean_reports_no_alarms(source_file, capsys):
    assert main(["run", source_file, "--inputs", "5 1", "--forensics"]) == 0
    out = capsys.readouterr().out
    assert "forensics:" in out
    assert "no alarms" in out


def test_campaign_forensics_summary(capsys):
    rc = main([
        "campaign", "telnetd", "--attacks", "3",
        "--forensics", "--flight-recorder-depth", "512",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "forensics:" in out


def test_bench_diff_subcommand(capsys):
    assert main(["bench-diff", "--require", "observer_overhead"]) == 0
    out = capsys.readouterr().out
    assert "0 regression(s)" in out


def test_bench_diff_missing_required_is_tool_error(tmp_path, capsys):
    rc = main([
        "bench-diff",
        "--baseline", str(tmp_path),
        "--require", "observer_overhead",
    ])
    assert rc == 2
