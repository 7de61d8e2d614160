"""Bench regression gate: threshold semantics and exit codes."""

import json

from repro.observability.benchdiff import (
    DEFAULT_RULES,
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_TOOL_ERROR,
    MetricDelta,
    MetricRule,
    compare_dirs,
    evaluate,
    main,
    render_table,
)

RULE = MetricRule(
    "observer_overhead",
    ("configs", "noop_instr", "overhead_vs_bare_pct"),
    max_change_pct=15.0,
    min_delta=1.0,
)


def _delta(baseline, current, rule=RULE):
    return MetricDelta(rule=rule, baseline=baseline, current=current)


def _write_bench(directory, value, bench="observer_overhead"):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{bench}.json").write_text(
        json.dumps(
            {"configs": {"noop_instr": {"overhead_vs_bare_pct": value}}}
        )
    )


# -- threshold semantics -------------------------------------------------


def test_improvement_never_regresses():
    assert not _delta(10.0, 5.0).regressed


def test_small_worsening_under_noise_floor_passes():
    # +0.9 absolute is under min_delta=1.0 even though it is >15%.
    assert not _delta(2.0, 2.9).regressed


def test_worsening_within_pct_band_passes():
    # +1.2 absolute exceeds the floor but is only 12% of baseline 10.
    assert not _delta(10.0, 11.2).regressed


def test_regression_needs_both_thresholds():
    assert _delta(10.0, 13.0).regressed  # +3.0 > 1.0 and 30% > 15%


def test_higher_is_better_direction():
    rule = MetricRule("x", ("v",), direction="higher", min_delta=1.0)
    assert _delta(100.0, 80.0, rule).regressed  # -20% drop
    assert not _delta(100.0, 90.0, rule).regressed  # within the 15% band
    assert not _delta(100.0, 110.0, rule).regressed  # improvement


def test_missing_sides_never_regress():
    assert not MetricDelta(rule=RULE, baseline=None, current=5.0).regressed


# -- directory comparison and exit codes ---------------------------------


def test_compare_dirs_and_exit_codes(tmp_path):
    _write_bench(tmp_path / "base", 9.0)
    _write_bench(tmp_path / "cur", 9.2)
    rules = (RULE,)
    deltas = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cur"), rules)
    assert len(deltas) == 1 and not deltas[0].regressed
    assert evaluate(deltas) == EXIT_OK

    _write_bench(tmp_path / "bad", 25.0)
    worse = compare_dirs(str(tmp_path / "base"), str(tmp_path / "bad"), rules)
    assert worse[0].regressed
    assert evaluate(worse) == EXIT_REGRESSION


def test_required_bench_missing_is_tool_error(tmp_path):
    deltas = compare_dirs(str(tmp_path), str(tmp_path), (RULE,))
    assert deltas[0].missing == "baseline file"
    assert evaluate(deltas, required=["observer_overhead"]) == EXIT_TOOL_ERROR
    # ...but only advisory when not required.
    assert evaluate(deltas) == EXIT_OK
    assert evaluate(deltas, required=["nonexistent"]) == EXIT_TOOL_ERROR


def test_render_table_shows_verdicts():
    text = render_table([_delta(10.0, 13.0), _delta(10.0, 10.1)])
    assert "REGRESSED" in text
    assert "ok" in text
    assert "2 metric(s), 1 regression(s)" in text
    missing = render_table([MetricDelta(rule=RULE, baseline=None, current=None,
                                        missing="baseline file")])
    assert "missing baseline file" in missing


def test_default_rules_cover_noop_configs():
    paths = {rule.path for rule in DEFAULT_RULES}
    assert ("configs", "noop_instr", "overhead_vs_bare_pct") in paths
    assert ("configs", "noop_events", "overhead_vs_bare_pct") in paths


def test_default_rules_gate_compile_time_and_detection():
    by_bench = {}
    for rule in DEFAULT_RULES:
        by_bench.setdefault(rule.bench, []).append(rule)
    compile_paths = {r.path for r in by_bench["compile_time"]}
    assert ("total", "opt0_seconds") in compile_paths
    assert ("total", "opt2_seconds") in compile_paths
    assert ("total", "opt3_seconds") in compile_paths
    # Detection rate gates in the "higher is better" direction: the
    # seeded campaigns are deterministic, so a drop is a real weakening
    # of the emitted tables.
    fig7 = by_bench["fig7_detection"]
    assert fig7
    assert all(rule.direction == "higher" for rule in fig7)
    fig7_paths = {r.path for r in fig7}
    assert ("detection", "avg_pct_detected_of_changed") in fig7_paths
    assert ("detection_opt3", "avg_pct_detected_of_changed") in fig7_paths


def test_default_rules_gate_static_check_times():
    """Whole-set opt-3 audit and predict seconds: lower is better, with
    a one-second floor over shared-host noise."""
    static = {r.path: r for r in DEFAULT_RULES if r.bench == "static_checks"}
    assert set(static) == {("total", "audit_seconds"), ("total", "predict_seconds")}
    for rule in static.values():
        assert (rule.direction, rule.max_change_pct, rule.min_delta) == (
            "lower",
            50.0,
            1.0,
        )
    # A 1.2 s predict that doubles regresses; a 0.8 s wobble does not.
    predict = static[("total", "predict_seconds")]
    assert MetricDelta(rule=predict, baseline=1.2, current=2.4).regressed
    assert not MetricDelta(rule=predict, baseline=1.2, current=2.0).regressed


def test_default_rules_gate_throughput_direction_aware():
    """The batched throughput wins are gated in the "higher is better"
    direction, and the overhead companions stay "lower"."""
    by_path = {rule.path: rule for rule in DEFAULT_RULES}
    for path in (
        ("summary", "full_stack_steps_per_sec"),
        ("summary", "full_stack_traced_steps_per_sec"),
        ("total", "steps_per_sec"),
    ):
        assert by_path[path].direction == "higher", path
        assert by_path[path].min_delta > 0, path  # noise floor declared
    assert (
        by_path[("configs", "full_stack", "overhead_vs_bare_pct")].direction
        == "lower"
    )


def test_committed_baselines_exist_for_all_default_rules():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    for rule in DEFAULT_RULES:
        assert (root / f"BENCH_{rule.bench}.json").exists(), rule.bench


def test_main_against_committed_baseline(capsys):
    """The real gate, as CI runs it: repo-root BENCH files against the
    committed benchmarks/baselines/."""
    rc = main(["--require", "observer_overhead", "--json", "-"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK, out
    assert "repro-bench-diff" in out


def test_main_json_report(tmp_path, capsys):
    _write_bench(tmp_path / "base", 9.0)
    _write_bench(tmp_path / "cur", 30.0)
    report = tmp_path / "diff.json"
    rc = main([
        "--baseline", str(tmp_path / "base"),
        "--current", str(tmp_path / "cur"),
        "--json", str(report),
    ])
    assert rc == EXIT_REGRESSION
    document = json.loads(report.read_text())
    noop = [m for m in document["metrics"]
            if m["metric"].endswith("noop_instr.overhead_vs_bare_pct")]
    assert noop and noop[0]["regressed"]
