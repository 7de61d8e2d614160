"""Tests for the attack campaign framework (Figure 7 methodology)."""

import dataclasses

import pytest

from repro.attacks import (
    AttackOutcome,
    CampaignConfig,
    CampaignSummary,
    WorkloadResult,
    run_attack,
    run_workload_campaign,
)
from repro.attacks import campaign
from repro.attacks.campaign import run_attack_detailed
from repro.interp import Interpreter
from repro.observability import MetricsRegistry
from repro.parallel import run_campaign
from repro.pipeline import compile_program
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def telnetd():
    workload = get_workload("telnetd")
    return workload, compile_program(workload.source, workload.name)


def test_attack_outcome_fields(telnetd):
    workload, program = telnetd
    outcome = run_attack(program, workload, index=0)
    assert outcome.fired
    assert outcome.trigger_read >= workload.min_trigger_read
    assert "." in outcome.target_label


def test_attacks_are_deterministic(telnetd):
    workload, program = telnetd
    a = run_attack(program, workload, index=3)
    b = run_attack(program, workload, index=3)
    assert a == b


def test_different_indices_differ(telnetd):
    workload, program = telnetd
    outcomes = [run_attack(program, workload, index=i) for i in range(12)]
    # Different attacks pick different targets/values at least sometimes.
    assert len({(o.address, o.value) for o in outcomes}) > 1


def test_detection_implies_change(telnetd):
    workload, program = telnetd
    for i in range(40):
        outcome = run_attack(program, workload, index=i)
        if outcome.detected:
            assert outcome.control_flow_changed, outcome


def test_workload_result_rates(telnetd):
    workload, _ = telnetd
    result = run_workload_campaign(
        workload, attacks=25, config=CampaignConfig(opt_level=0)
    )
    assert result.total == 25
    assert 0 <= result.detected <= result.changed <= result.total
    if result.changed:
        assert result.pct_detected_of_changed == pytest.approx(
            100.0 * result.detected / result.changed
        )


def test_rates_on_empty_result():
    result = WorkloadResult(workload="empty", vuln_kind="bof")
    assert result.pct_changed == 0.0
    assert result.pct_detected == 0.0
    assert result.pct_detected_of_changed == 0.0


def test_campaign_summary_averages():
    r1 = WorkloadResult(workload="a", vuln_kind="bof")
    r2 = WorkloadResult(workload="b", vuln_kind="bof")
    r1.attacks = [
        AttackOutcome(0, 2, 0, "x.y", 1, True, True, True, None, None),
        AttackOutcome(1, 2, 0, "x.y", 1, True, False, False, None, None),
    ]
    r2.attacks = [
        AttackOutcome(0, 2, 0, "x.y", 1, True, True, False, None, None),
        AttackOutcome(1, 2, 0, "x.y", 1, True, True, True, None, None),
    ]
    summary = CampaignSummary([r1, r2])
    assert summary.avg_pct_changed == pytest.approx(75.0)
    assert summary.avg_pct_detected == pytest.approx(50.0)
    assert summary.avg_pct_detected_of_changed == pytest.approx(
        100.0 * 50.0 / 75.0
    )


def test_fmt_workload_can_target_globals():
    workload = get_workload("sysklogd")
    program = compile_program(workload.source, workload.name)
    outcomes = [run_attack(program, workload, index=i) for i in range(30)]
    # At least one attack should have landed on a global (the fmt
    # surface includes them).
    assert any(o.target_label.startswith("<global>") for o in outcomes)


def test_config_rejects_unknown_attack_model():
    with pytest.raises(ValueError, match="unknown attack model"):
        CampaignConfig(attack_model="telepathy")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"opt_level": 7}, "opt_level must be 0-3"),
        ({"opt_level": -1}, "opt_level must be 0-3"),
        ({"step_limit": 0}, "step_limit must be >= 1"),
        ({"flight_recorder_depth": 0}, "flight_recorder_depth must be >= 1"),
    ],
    ids=["opt-7", "opt-negative", "step-limit-0", "depth-0"],
)
def test_config_rejects_out_of_range_settings(fields, message):
    # The ranges SessionSpec.validate checks for daemon sessions.
    with pytest.raises(ValueError, match=message):
        CampaignConfig(**fields)


# ----------------------------------------------------------------------
# Counters count real work
# ----------------------------------------------------------------------

WORK_COUNTERS = (
    "campaign.attacks",
    "campaign.executions",
    "interp.steps",
    "ipds.events",
    "ipds.checks",
)


@pytest.mark.parametrize("model", ["input", "process"])
def test_counters_count_every_execution(telnetd, model, monkeypatch):
    """Each attack is exactly two executions, and ``interp.steps``
    counts every step any interpreter ran — nothing runs unseen."""
    workload, program = telnetd
    executed = []
    real_run = Interpreter.run

    def counting_run(self):
        result = real_run(self)
        executed.append(result.steps)
        return result

    monkeypatch.setattr(Interpreter, "run", counting_run)
    stats = []
    real_monitored_run = campaign.monitored_run

    def recording_monitored_run(*args, **kwargs):
        result, ipds = real_monitored_run(*args, **kwargs)
        stats.append(ipds.stats)
        return result, ipds

    monkeypatch.setattr(campaign, "monitored_run", recording_monitored_run)
    config = CampaignConfig(attack_model=model)
    for index in range(4):
        executed.clear()
        stats.clear()
        metrics = MetricsRegistry()
        execution = run_attack_detailed(
            program, workload, index, config=config, metrics=metrics
        )
        assert metrics.value("campaign.executions") == 2 == len(executed)
        assert metrics.value("interp.steps") == sum(executed)
        assert sum(executed) == execution.clean.steps + execution.attacked.steps
        assert metrics.value("ipds.events") == sum(s.events for s in stats)
        assert metrics.value("ipds.checks") == sum(s.checks for s in stats)


def test_sharded_work_counters_equal_serial():
    def counters(jobs):
        metrics = MetricsRegistry()
        run_campaign(
            ["telnetd", "sysklogd"],
            attacks=4,
            seed_prefix="count:",
            jobs=jobs,
            metrics=metrics,
        )
        return {name: metrics.value(name) for name in WORK_COUNTERS}

    serial = counters(1)
    assert serial["campaign.executions"] == 2 * serial["campaign.attacks"] == 16
    assert counters(2) == serial


def test_attack_counts_its_alarms(telnetd):
    """Both runs of an attack count through the one IPDS counter block,
    so ``ipds.alarms`` covers attacks as it covers run sessions."""
    workload, program = telnetd
    index = next(
        i for i in range(40) if run_attack(program, workload, index=i).detected
    )
    metrics = MetricsRegistry()
    execution = run_attack_detailed(program, workload, index, metrics=metrics)
    assert metrics.value("ipds.alarms") == len(execution.ipds.alarms) >= 1


# ----------------------------------------------------------------------
# Timed campaigns
# ----------------------------------------------------------------------

TIMED = CampaignConfig(timed=True)


def test_timed_attack_records_cycles_without_perturbing_outcome(telnetd):
    """The timing model is a passive bus consumer: a timed attack
    changes no detection field, and only it carries ``cycles``."""
    workload, program = telnetd
    for index in range(3):
        untimed = run_attack(program, workload, index, seed_prefix="timed:")
        timed = run_attack(
            program, workload, index, seed_prefix="timed:", config=TIMED
        )
        assert untimed.cycles is None
        assert isinstance(timed.cycles, int) and timed.cycles > 0
        assert dataclasses.replace(timed, cycles=None) == untimed


def test_sharded_timed_campaign_equals_serial():
    """Every shard of one campaign runs the same config, so a sharded
    timed campaign merges the serial outcomes, cycles included."""

    def outcomes(jobs):
        summary = run_campaign(
            ["telnetd", "portmap"],
            attacks=4,
            seed_prefix="timed:",
            config=TIMED,
            jobs=jobs,
        )
        return [result.attacks for result in summary.results]

    serial = outcomes(1)
    assert all(o.cycles is not None for attacks in serial for o in attacks)
    assert outcomes(2) == serial
