"""The campaign join behind ``tools/validate_predictions.py``.

Covers address resolution through the deterministic memory layout,
the outcome join (including unjoined attacks), the soundness
accounting, and an end-to-end seeded smoke on a registry workload.
"""

import importlib.util
import pathlib

import pytest

from repro.attacks.campaign import AttackOutcome, run_workload_campaign
from repro.interp.state import STACK_BASE, MemoryMap
from repro.interp.interpreter import RunStatus
from repro.pipeline import compile_program
from repro.staticcheck.detectvalidate import (
    UNJOINED,
    AttackJoin,
    SoundnessReport,
    WorkloadSoundness,
    join_outcomes,
    resolve_tamper_target,
    validate_workload,
)
from repro.workloads import get_workload

SOURCE = """
int g;
void helper(int p) {
    int inner = p + 1;
    if (inner > 3) { emit(1); } else { emit(2); }
}
void main() {
    g = read_int();
    int outer = read_int();
    helper(outer);
    if (g > 5) { emit(3); } else { emit(4); }
}
"""


@pytest.fixture()
def program():
    return compile_program(SOURCE)


def test_resolve_global_address(program):
    memory = MemoryMap(program.module)
    var = next(g for g in program.module.globals if g.name == "g")
    base = memory.global_addresses[var]
    assert resolve_tamper_target(memory, base, None) == (var, 0, None)


def test_resolve_unmapped_global_gap_is_none(program):
    memory = MemoryMap(program.module)
    top = max(
        base + var.size for var, base in memory.global_addresses.items()
    )
    assert resolve_tamper_target(memory, top, None) is None


def test_resolve_stack_slot_names_frame_and_owner(program):
    memory = MemoryMap(program.module)
    main_layout = memory.frame_layouts["main"]
    helper_layout = memory.frame_layouts["helper"]
    main_base = STACK_BASE
    helper_base = STACK_BASE + main_layout.size
    site = (
        ("main", "bb0", 3, main_base),
        ("helper", "bb0", 0, helper_base),
    )
    outer = next(v for v in main_layout.offsets if v.name == "outer")
    resolved = resolve_tamper_target(
        memory, main_base + main_layout.offsets[outer], site
    )
    assert resolved == (outer, 0, 0)
    inner = next(v for v in helper_layout.offsets if v.name == "inner")
    resolved = resolve_tamper_target(
        memory, helper_base + helper_layout.offsets[inner], site
    )
    assert resolved == (inner, 0, 1)


def test_resolve_stack_needs_a_site(program):
    memory = MemoryMap(program.module)
    assert resolve_tamper_target(memory, STACK_BASE, None) is None


def _outcome(program, **overrides):
    memory = MemoryMap(program.module)
    var = next(g for g in program.module.globals if g.name == "g")
    fields = dict(
        index=0,
        trigger_read=1,
        address=memory.global_addresses[var],
        target_label="<global>.g",
        value=99,
        fired=True,
        control_flow_changed=True,
        detected=True,
        clean_status=RunStatus.OK,
        attack_status=RunStatus.OK,
        tamper_site=(("main", "bb1", 0, STACK_BASE),),
    )
    fields.update(overrides)
    return AttackOutcome(**fields)


def test_join_unfired_attack_is_unjoined(program):
    joins = join_outcomes(
        program,
        [_outcome(program, fired=False, tamper_site=None, detected=False,
                  control_flow_changed=False,
                  attack_status=RunStatus.OK)],
        "demo",
    )
    assert [j.verdict for j in joins] == [UNJOINED]


def test_join_fired_attack_gets_a_det_verdict(program):
    joins = join_outcomes(program, [_outcome(program)], "demo")
    (join,) = joins
    assert join.verdict.startswith("DET8")
    assert join.detected and join.fired


def test_soundness_accounting_and_violation_directions():
    det801_escape = AttackJoin(
        index=0, target_label="t", address=1, value=2,
        verdict="DET801", fired=True,
        control_flow_changed=True, detected=False,
    )
    det803_alarm = AttackJoin(
        index=1, target_label="t", address=1, value=2,
        verdict="DET803", fired=True,
        control_flow_changed=True, detected=True,
    )
    benign = AttackJoin(
        index=2, target_label="t", address=1, value=2,
        verdict="DET802", fired=True,
        control_flow_changed=True, detected=True,
    )
    sound = WorkloadSoundness("w", 0, [benign])
    assert not sound.violations
    assert sound.predicted_lower_bound_pct == 0.0
    assert sound.measured_pct_detected_of_changed == 100.0
    unsound = WorkloadSoundness("w", 0, [det801_escape, det803_alarm, benign])
    assert unsound.det801_escapes == [det801_escape]
    assert unsound.det803_alarms == [det803_alarm]
    report = SoundnessReport([unsound])
    assert len(report.violations) == 2
    assert report.to_dict()["violations"] == 2


def test_lower_bound_uses_det801_over_changed():
    joins = [
        AttackJoin(
            index=i, target_label="t", address=1, value=2,
            verdict="DET801", fired=True,
            control_flow_changed=True, detected=True,
        )
        for i in range(2)
    ] + [
        AttackJoin(
            index=9, target_label="t", address=1, value=2,
            verdict="DET802", fired=True,
            control_flow_changed=True, detected=False,
        ),
        AttackJoin(
            index=10, target_label="t", address=1, value=2,
            verdict=UNJOINED, fired=False,
            control_flow_changed=False, detected=False,
        ),
    ]
    result = WorkloadSoundness("w", 3, joins)
    assert result.changed == 3
    assert result.predicted_lower_bound_pct == pytest.approx(200 / 3)
    document = result.to_dict()
    assert document["verdicts"]["DET801"] == 2
    assert document["verdicts"]["unjoined"] == 1


def test_seeded_workload_smoke_is_sound():
    result = validate_workload(
        get_workload("wu-ftpd"), opt_level=0, attacks=12
    )
    assert result.total == 12
    assert not result.violations
    assert sum(
        result.count(v) for v in ("DET801", "DET802", "DET803", UNJOINED)
    ) == result.total
    assert (
        result.predicted_lower_bound_pct
        <= result.measured_pct_detected_of_changed + 1e-9
    )
    # Every fired attack joined: the memory layout is total over the
    # tamper surface the campaign samples.
    fired = [j for j in result.joins if j.fired]
    assert all(j.verdict != UNJOINED for j in fired)


def test_campaign_reuse_skips_rerun():
    workload = get_workload("wu-ftpd")
    campaign = run_workload_campaign(workload, attacks=6)
    reused = validate_workload(workload, opt_level=0, result=campaign)
    fresh = validate_workload(workload, opt_level=0, attacks=6)
    assert [j.to_dict() for j in reused.joins] == [
        j.to_dict() for j in fresh.joins
    ]


def _load_tool():
    path = pathlib.Path(__file__).parent.parent / "tools" / "validate_predictions.py"
    spec = importlib.util.spec_from_file_location("validate_predictions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--opt-levels", "7", "--attacks", "3", "--workloads", "telnetd"],
         "--opt-levels must each be 0-3"),
        (["--opt-levels", "0,-1"], "--opt-levels must each be 0-3"),
        (["--attacks", "-2"], "--attacks must be >= 1"),
        (["--attacks", "0"], "--attacks must be >= 1"),
        (["--jobs", "0"], "--jobs must be >= 1"),
    ],
    ids=["opt-7", "opt-negative", "attacks-negative", "attacks-0", "jobs-0"],
)
def test_tool_rejects_out_of_range_arguments_before_any_campaign(
    argv, message, capsys, monkeypatch
):
    from repro.staticcheck import detectvalidate

    def no_campaign(**_kwargs):
        raise AssertionError("a campaign ran on out-of-range arguments")

    monkeypatch.setattr(detectvalidate, "validate_registry", no_campaign)
    assert _load_tool().main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "soundness" not in captured.out


def test_join_carries_the_attacked_runs_status(program):
    (join,) = join_outcomes(
        program, [_outcome(program, attack_status=RunStatus.STEP_LIMIT)], "demo"
    )
    assert join.attack_status is RunStatus.STEP_LIMIT
    assert join.to_dict()["attack_status"] == "step_limit"


def test_det801_progress_not_met_bucket(capsys, monkeypatch):
    """DET801 joins whose attacked run was truncated are reported in
    their own bucket; the bucket is reporting only, so a truncated
    DET801 escape is still unsound."""
    from repro.staticcheck import detectvalidate

    def join(index, verdict, detected, status):
        return AttackJoin(
            index=index, target_label="t", address=1, value=2,
            verdict=verdict, fired=True, control_flow_changed=True,
            detected=detected, attack_status=status,
        )

    truncated = join(3, "DET801", False, RunStatus.STEP_LIMIT)
    too_deep = join(4, "DET801", True, RunStatus.CALL_DEPTH)
    finished = join(5, "DET801", True, RunStatus.OK)
    not_801 = join(6, "DET802", False, RunStatus.STEP_LIMIT)
    result = WorkloadSoundness("w", 0, [truncated, too_deep, finished, not_801])
    assert result.det801_progress_not_met == [truncated, too_deep]
    assert result.det801_escapes == [truncated]
    document = result.to_dict()
    assert [j["index"] for j in document["det801_progress_not_met"]] == [3, 4]
    assert [j["attack_status"] for j in document["det801_progress_not_met"]] == [
        "step_limit",
        "call_depth",
    ]

    monkeypatch.setattr(
        detectvalidate, "validate_registry", lambda **_: SoundnessReport([result])
    )
    assert _load_tool().main(["--opt-levels", "0"]) == 1
    captured = capsys.readouterr()
    assert "progress-not-met=2 |" in captured.out
    assert (
        "  progress not met: attack 3 (DET801, t = 2) stopped at "
        "step_limit, not detected" in captured.out
    )
    assert (
        "  progress not met: attack 4 (DET801, t = 2) stopped at "
        "call_depth, detected" in captured.out
    )
    assert "UNSOUND: w opt0 attack 3: DET801" in captured.err
