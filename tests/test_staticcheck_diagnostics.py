"""Tests for the diagnostics engine: codes, severities, sinks, emitters."""

import json

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.pipeline import compile_program
from repro.staticcheck import (
    CODES,
    PASSES,
    Diagnostic,
    DiagnosticSink,
    Severity,
    Span,
    StaticCheckError,
    diagnostics_to_json,
    errors_in,
    max_severity,
    render_text,
    run_passes,
)


def test_every_code_has_prefix_family_and_title():
    for code, info in CODES.items():
        assert info.code == code
        assert code[:-3].isalpha() and code[-3:].isdigit(), code
        assert info.title
        assert isinstance(info.severity, Severity)


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic(code="XX999", severity=Severity.ERROR, message="nope")


def test_sink_defaults_severity_from_catalog():
    sink = DiagnosticSink("test-pass")
    diag = sink.emit("COR205", "bad action", function="main", block="bb1", pc=4)
    assert diag.severity is Severity.ERROR
    assert diag.pass_name == "test-pass"
    assert sink.diagnostics == [diag]
    warn = sink.emit("IR114", "unreachable", function="main")
    assert warn.severity is Severity.WARNING


def test_severity_ordering():
    assert Severity.ERROR.at_least(Severity.WARNING)
    assert Severity.WARNING.at_least(Severity.NOTE)
    assert not Severity.NOTE.at_least(Severity.WARNING)


def test_span_and_str_rendering():
    diag = Diagnostic(
        code="COR201",
        severity=Severity.ERROR,
        message="collision",
        span=Span(function="f", block="bb2", pc=0x400010),
    )
    text = str(diag)
    assert "COR201" in text and "f/bb2@0x400010" in text and "collision" in text


def test_max_severity_and_errors_in():
    sink = DiagnosticSink("p")
    assert max_severity(sink.diagnostics) is None
    sink.emit("IR114", "w")
    assert max_severity(sink.diagnostics) is Severity.WARNING
    sink.emit("IR101", "e")
    assert max_severity(sink.diagnostics) is Severity.ERROR
    assert [d.code for d in errors_in(sink.diagnostics)] == ["IR101"]


def test_render_text_sorts_and_tallies():
    sink = DiagnosticSink("p")
    sink.emit("DEAD403", "later", function="z")
    sink.emit("IR101", "earlier", function="a")
    text = render_text(sink.diagnostics)
    assert text.index("IR101") < text.index("DEAD403")
    assert "1 error(s), 1 warning(s), 0 note(s)" in text


def test_json_report_roundtrips():
    sink = DiagnosticSink("p")
    sink.emit("COR210", "pcs disagree", function="main")
    payload = json.loads(diagnostics_to_json(sink.diagnostics))
    assert payload["version"] == 1
    [entry] = payload["diagnostics"]
    assert entry["code"] == "COR210"
    assert entry["severity"] == "error"
    assert entry["function"] == "main"
    assert entry["pass"] == "p"


def test_staticcheck_error_carries_diagnostics():
    sink = DiagnosticSink("p")
    sink.emit("COR205", "unprovable", function="main")
    error = StaticCheckError(sink.diagnostics)
    assert error.diagnostics == sink.diagnostics
    assert "COR205" in str(error)


def _passes_run(names):
    """The passes ``run_passes`` ran, read off its per-pass counters."""
    metrics = MetricsRegistry()
    run_passes(compile_program("void main() { emit(1); }"), names=names, metrics=metrics)
    return sorted(metrics.snapshot()["counters"])


def test_run_passes_none_selects_every_pass_and_empty_selects_none():
    assert _passes_run(None) == sorted(
        f"staticcheck.{check.name}.diagnostics" for check in PASSES
    )
    assert _passes_run(()) == []
    assert _passes_run(("ir-verify",)) == ["staticcheck.ir-verify.diagnostics"]
