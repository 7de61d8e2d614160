"""Tests for the session-scoped detection engine.

The load-bearing property: a session-driven detection is byte-identical
to the same detection run through the serial campaign / CLI code path —
same outcome records, same rendered alarms, same forensics JSON.
"""

import re
from pathlib import Path

import pytest

from repro.attacks.campaign import CampaignConfig, run_attack_detailed
from repro.forensics import reports_to_json
from repro.interp import GLOBAL_BASE
from repro.interp.interpreter import TamperSpec
from repro.pipeline import compile_program_cached
from repro.service import (
    DetectionSession,
    SessionSpec,
    SessionState,
)
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

#: (workload, attack index) pairs whose campaign attack is detected —
#: pinned by the deterministic attack seeds.
DETECTED_ATTACKS = [("telnetd", 1), ("wu-ftpd", 7), ("atftpd", 3)]


def test_run_session_clean():
    spec = SessionSpec(
        mode="run", source=FIGURE1, source_name="figure1", inputs=(5, 1)
    )
    session = DetectionSession(spec)
    result = session.execute()
    assert session.state is SessionState.COMPLETED
    assert result.detected is False
    assert result.outputs == [200, 222]
    assert result.alarms == []
    assert session.metrics.value("interp.steps") > 0
    assert session.metrics.value("ipds.alarms") == 0


def test_explicit_attack_session_detects():
    spec = SessionSpec(
        mode="attack",
        source=FIGURE1,
        source_name="figure1",
        inputs=(5, 1),
        tamper=TamperSpec("read", 2, GLOBAL_BASE, 0),
        record_trace=True,
    )
    session = DetectionSession(spec)
    result = session.execute()
    assert session.state is SessionState.ALARMED
    assert result.detected is True
    assert result.tamper_fired is True
    assert result.control_flow_changed is True
    assert "infeasible path" in result.alarms[0]
    assert result.trace_event_count > 0


@pytest.mark.parametrize("workload_name,index", DETECTED_ATTACKS)
def test_indexed_attack_matches_serial_campaign(workload_name, index):
    workload = get_workload(workload_name)
    program = compile_program_cached(workload.source, workload.name, 0)
    serial = run_attack_detailed(
        program, workload, index, config=CampaignConfig(forensics=True)
    )

    spec = SessionSpec(
        mode="attack",
        workload=workload_name,
        attack_index=index,
        forensics=True,
    )
    session = DetectionSession(spec)
    result = session.execute()

    assert session.state is SessionState.ALARMED
    assert result.outcome == serial.outcome.to_record(workload_name)
    assert result.alarms == list(serial.outcome.alarms)
    assert result.forensics == reports_to_json(serial.reports)


def test_indexed_attack_clean_outcome_matches():
    workload = get_workload("telnetd")
    program = compile_program_cached(workload.source, workload.name, 0)
    serial = run_attack_detailed(
        program, workload, 0, config=CampaignConfig(forensics=True)
    )
    assert not serial.outcome.detected  # index 0 is a clean miss

    session = DetectionSession(
        SessionSpec(
            mode="attack", workload="telnetd", attack_index=0, forensics=True
        )
    )
    result = session.execute()
    assert session.state is SessionState.COMPLETED
    assert result.outcome == serial.outcome.to_record("telnetd")


def test_replay_session_reproduces_attack_alarms():
    import io

    from repro.runtime.replay import dump_trace

    attack_spec = SessionSpec(
        mode="attack",
        source=FIGURE1,
        source_name="figure1",
        inputs=(5, 1),
        tamper=TamperSpec("read", 2, GLOBAL_BASE, 0),
        record_trace=True,
    )
    attack = DetectionSession(attack_spec)
    attack.execute()
    assert attack.alarms

    buffer = io.StringIO()
    dump_trace(attack.trace_events, buffer)
    replay = DetectionSession(
        SessionSpec(
            mode="replay",
            source=FIGURE1,
            source_name="figure1",
            trace_text=buffer.getvalue(),
        )
    )
    result = replay.execute()
    assert result.alarms == attack.alarms


def test_session_streams_events():
    seen = []
    session = DetectionSession(
        SessionSpec(mode="attack", workload="telnetd", attack_index=1),
        emit=lambda kind, payload: seen.append((kind, payload)),
    )
    session.execute()
    kinds = [kind for kind, _ in seen]
    assert kinds[0] == "state"  # running
    assert "alarm" in kinds
    assert kinds[-1] == "result"
    result_payload = seen[-1][1]["result"]
    assert result_payload["state"] == "alarmed"


def test_daemon_run_catches_failures():
    session = DetectionSession(
        SessionSpec(mode="run", workload="no-such-workload", read_files=False)
    )
    result = session.run()
    assert session.state is SessionState.FAILED
    assert result.error and "no-such-workload" in result.error


def test_spec_validation():
    with pytest.raises(ValueError):
        SessionSpec(mode="dance", workload="telnetd").validate()
    with pytest.raises(ValueError):
        SessionSpec(mode="run").validate()
    with pytest.raises(ValueError):
        SessionSpec(mode="attack", workload="telnetd").validate()
    with pytest.raises(ValueError):
        SessionSpec(
            mode="attack",
            workload="telnetd",
            attack_index=1,
            tamper=TamperSpec("read", 2, GLOBAL_BASE, 0),
        ).validate()
    with pytest.raises(ValueError):
        SessionSpec(mode="replay", workload="telnetd").validate()
    with pytest.raises(ValueError):
        SessionSpec(
            mode="attack", source=FIGURE1, attack_index=1
        ).validate()


def test_version_matches_pyproject():
    import repro

    pyproject = (
        Path(repro.__file__).resolve().parent.parent.parent / "pyproject.toml"
    )
    match = re.search(
        r'^version\s*=\s*"([^"]+)"',
        pyproject.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    assert match is not None
    assert repro.__version__ == match.group(1)


def test_cli_version_flag(capsys):
    import repro
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {repro.__version__}" in capsys.readouterr().out


def test_cli_keyboard_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    from repro.service import engine

    source = tmp_path / "figure1.c"
    source.write_text(FIGURE1)

    def boom(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine.DetectionSession, "execute", boom)
    assert main(["run", str(source), "--inputs", "5 1"]) == 130
    assert "interrupted" in capsys.readouterr().err
