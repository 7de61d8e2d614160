"""Prometheus text exposition: rendering and the CI validator."""

import pytest

from repro.observability import (
    MetricsRegistry,
    render_prometheus,
    validate_exposition,
    write_prometheus,
)
from repro.observability.prometheus import sanitize_metric_name


def _loaded_registry():
    registry = MetricsRegistry()
    registry.increment("serve.submitted", 12)
    registry.set_gauge("serve.sessions_active", 3)
    registry.observe_histogram("compile", 0.25)
    registry.observe_histogram("compile", 0.75)
    registry.observe_histogram("session", 0.002)
    registry.observe_histogram("session", 0.004)
    registry.observe_histogram("serve.queue_wait", 0.5)
    return registry


def test_render_covers_every_metric_kind():
    text = render_prometheus(_loaded_registry())
    assert "# TYPE repro_serve_submitted_total counter" in text
    assert "repro_serve_submitted_total 12" in text
    assert "# TYPE repro_serve_sessions_active gauge" in text
    # Every histogram is a duration: one `_seconds` histogram family
    # per name, and no summaries.
    assert "# TYPE repro_compile_seconds histogram" in text
    assert "repro_compile_seconds_count 2" in text
    assert "repro_compile_seconds_sum 1.0" in text
    assert "# TYPE repro_session_seconds histogram" in text
    assert 'repro_session_seconds_bucket{le="+Inf"} 2' in text
    assert "repro_session_seconds_count 2" in text
    assert "# TYPE repro_serve_queue_wait_seconds histogram" in text
    assert " summary" not in text


def test_rendered_exposition_validates_clean():
    assert validate_exposition(render_prometheus(_loaded_registry())) == []
    assert validate_exposition("") == []
    assert render_prometheus(MetricsRegistry()) == ""


def test_histogram_buckets_are_cumulative_and_end_at_count():
    text = render_prometheus(_loaded_registry())
    lines = [
        line for line in text.splitlines()
        if line.startswith("repro_session_seconds_bucket")
    ]
    counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts)
    assert counts[-1] == 2
    assert lines[-1].startswith('repro_session_seconds_bucket{le="+Inf"}')


def test_validator_catches_bad_grammar_and_broken_histograms():
    assert validate_exposition("not a metric line\n") != []
    non_cumulative = (
        'x_bucket{le="1"} 5\n'
        'x_bucket{le="+Inf"} 3\n'
        "x_count 3\n"
    )
    errors = validate_exposition(non_cumulative)
    assert any("not cumulative" in error for error in errors)
    mismatched = (
        'y_bucket{le="1"} 1\n'
        'y_bucket{le="+Inf"} 2\n'
        "y_count 5\n"
    )
    errors = validate_exposition(mismatched)
    assert any("!= _count" in error for error in errors)


def test_validator_rejects_a_family_declared_twice_and_repeated_series():
    # A session.compile timer summary and a session.compile_seconds
    # histogram rendered side by side share one family name.
    doubled = (
        "# TYPE repro_session_compile_seconds summary\n"
        "repro_session_compile_seconds_count 1\n"
        "repro_session_compile_seconds_sum 0.5\n"
        "# TYPE repro_session_compile_seconds histogram\n"
        'repro_session_compile_seconds_bucket{le="1.0"} 1\n'
        'repro_session_compile_seconds_bucket{le="+Inf"} 1\n'
        "repro_session_compile_seconds_sum 0.5\n"
        "repro_session_compile_seconds_count 1\n"
    )
    errors = validate_exposition(doubled)
    assert any("declared twice" in error for error in errors)
    assert any(
        "series repro_session_compile_seconds_count repeated" in error
        for error in errors
    )


def test_sanitize_metric_name():
    assert sanitize_metric_name("serve.queue_wait") == "serve_queue_wait"
    assert sanitize_metric_name("9lives") == "_9lives"
    assert sanitize_metric_name("ok_name:x") == "ok_name:x"


def test_render_accepts_plain_snapshots_identically():
    registry = _loaded_registry()
    assert render_prometheus(registry.snapshot()) == render_prometheus(
        registry
    )


def test_write_prometheus_round_trips_through_a_file(tmp_path):
    path = tmp_path / "metrics.prom"
    text = write_prometheus(_loaded_registry(), str(path))
    assert path.read_text() == text
    assert validate_exposition(path.read_text()) == []


def test_small_float_values_stay_parseable():
    registry = MetricsRegistry()
    registry.observe_histogram("tiny", 1e-6)
    registry.set_gauge("rate", 2e-06)
    assert validate_exposition(render_prometheus(registry)) == []


@pytest.mark.parametrize("prefix", ["repro", "acme"])
def test_prefix_is_applied_everywhere(prefix):
    text = render_prometheus(_loaded_registry(), prefix=prefix)
    for line in text.splitlines():
        name = line.split()[2] if line.startswith("#") else line.split()[0]
        assert name.startswith(f"{prefix}_")
