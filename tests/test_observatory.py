"""The campaign forensics observatory: attribution invariants."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correlation.provenance import VALID_REASONS
from repro.forensics import (
    UNEXPLAINED,
    CampaignObservation,
    ObservatoryError,
    observe_log,
    observe_records,
)
from repro.forensics.observatory import REASON_ORDER, primary_reason


def record(workload, detected=False, reasons=None):
    entry = {"workload": workload, "detected": detected}
    if reasons is not None:
        entry["proof_reasons"] = list(reasons)
    return entry


RECORDS = st.builds(
    record,
    st.sampled_from(["telnetd", "sshd", "crond"]),
    st.booleans(),
    st.one_of(
        st.none(),
        st.lists(
            st.sampled_from(list(VALID_REASONS) + ["bogus"]), max_size=3
        ),
    ),
)


def test_primary_reason_is_the_first_alarm():
    assert primary_reason(record("w", True, ["kill", "subsumption"])) == "kill"
    assert primary_reason(record("w", True, [])) == UNEXPLAINED
    assert primary_reason(record("w", True)) == UNEXPLAINED
    assert primary_reason(record("w", True, ["bogus"])) == UNEXPLAINED


def test_counts_and_attribution():
    observation = observe_records(
        [
            record("telnetd", True, ["subsumption"]),
            record("telnetd", True, ["subsumption", "kill"]),
            record("telnetd", False),
            record("sshd", True, ["feasible-path"]),
            record("sshd", True),
        ]
    )
    assert observation.attacks == 5
    assert observation.detected == 4
    assert observation.reason_totals() == {
        "subsumption": 2, "feasible-path": 1, UNEXPLAINED: 1,
    }
    telnetd = observation.workloads["telnetd"]
    assert (telnetd.attacks, telnetd.detected) == (3, 2)
    assert telnetd.by_reason == {"subsumption": 2}


@settings(max_examples=60, deadline=None)
@given(records=st.lists(RECORDS, max_size=30))
def test_per_reason_counts_always_sum_to_detected(records):
    observation = observe_records(records)
    assert sum(observation.reason_totals().values()) == observation.detected
    for workload in observation.workloads.values():
        assert sum(workload.by_reason.values()) == workload.detected
        assert workload.detected <= workload.attacks
    assert set(observation.reason_totals()) <= set(REASON_ORDER)


def test_to_dict_schema_and_render_text():
    observation = observe_records(
        [
            record("telnetd", True, ["subsumption"]),
            record("sshd", False),
        ]
    )
    payload = observation.to_dict()
    assert payload["tool"] == "repro-obs"
    assert payload["version"] == 1
    assert payload["by_reason"] == {"subsumption": 1}
    assert [w["workload"] for w in payload["workloads"]] == [
        "sshd", "telnetd",
    ]
    json.dumps(payload)  # JSON-clean end to end

    text = observation.render_text()
    assert "2 attacks, 1 detected" in text
    assert "subsumption" in text
    assert "#" in text  # histogram bars render


def test_render_text_of_an_empty_campaign():
    text = CampaignObservation().render_text()
    assert "0 attacks, 0 detected" in text


def test_malformed_records_and_logs_raise(tmp_path):
    with pytest.raises(ObservatoryError, match="workload"):
        observe_records([{"detected": True}])

    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"workload": "telnetd"}\nnot json\n')
    with pytest.raises(ObservatoryError, match="not JSON"):
        observe_log(str(bad_json))

    not_object = tmp_path / "list.jsonl"
    not_object.write_text("[1, 2]\n")
    with pytest.raises(ObservatoryError, match="expected a JSON object"):
        observe_log(str(not_object))


def test_observe_log_skips_blank_lines(tmp_path):
    log = tmp_path / "outcomes.jsonl"
    log.write_text(
        "\n".join(
            [
                json.dumps(record("telnetd", True, ["kill"])),
                "",
                json.dumps(record("telnetd", False)),
                "",
            ]
        )
    )
    observation = observe_log(str(log))
    assert observation.attacks == 2
    assert observation.reason_totals() == {"kill": 1}


def test_obs_cli_verb(tmp_path, capsys):
    from repro.cli import main

    log = tmp_path / "outcomes.jsonl"
    log.write_text(
        json.dumps(record("telnetd", True, ["subsumption"])) + "\n"
    )
    out = tmp_path / "obs.json"
    assert main(["obs", str(log), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["detected"] == 1
    assert "campaign observatory" in capsys.readouterr().out

    assert main(["obs", str(tmp_path / "missing.jsonl")]) == 2


def test_campaign_forensics_records_feed_the_observatory():
    """End to end: a live forensics campaign's outcome records carry
    proof_reasons and attribute cleanly (no unexplained bucket when
    forensics explains every alarm)."""
    from repro.attacks.campaign import CampaignConfig, run_workload_campaign
    from repro.forensics import observe_outcomes
    from repro.workloads.registry import get_workload

    result = run_workload_campaign(
        get_workload("telnetd"),
        attacks=10,
        config=CampaignConfig(forensics=True),
    )
    observation = observe_outcomes([result])
    assert observation.attacks == 10
    assert observation.detected == sum(
        1 for outcome in result.attacks if outcome.detected
    )
    assert (
        sum(observation.reason_totals().values()) == observation.detected
    )
