"""One attack recipe behind every front end.

Campaigns, ``repro attack``, both daemon attack modes and the n-gram
comparison all run :func:`repro.attacks.campaign.execute_attack`: a
monitored clean run that must not alarm, then one tampered run on the
same inputs.  These tests pin what that sharing promises.
"""

import dataclasses

import pytest

from repro.attacks.campaign import CampaignError, run_attack
from repro.baselines import compare_detectors
from repro.correlation.actions import BranchAction
from repro.correlation.tables import ProgramTables
from repro.interp import GLOBAL_BASE
from repro.interp.interpreter import TamperSpec
from repro.pipeline import compile_program, compile_program_cached, monitored_run
from repro.service import DetectionSession, SessionSpec, SessionState
from repro.service import engine
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

EXPLICIT = SessionSpec(
    mode="attack",
    source=FIGURE1,
    source_name="figure1",
    inputs=(5, 1),
    tamper=TamperSpec("read", 2, GLOBAL_BASE, 0),
)
INDEXED = SessionSpec(mode="attack", workload="telnetd", attack_index=1)


def swapped(program):
    """A copy of ``program`` with every SET_T and SET_NT action swapped,
    so that its clean runs alarm wherever a swapped action decides a
    checked branch."""
    inverse = {
        BranchAction.SET_T: BranchAction.SET_NT,
        BranchAction.SET_NT: BranchAction.SET_T,
    }
    by_function = {
        # ``replace`` rebuilds the per-branch plan the IPDS reads.
        name: dataclasses.replace(
            tables,
            bat={
                key: tuple(
                    (target, inverse.get(action, action)) for target, action in entries
                )
                for key, entries in tables.bat.items()
            },
        )
        for name, tables in program.tables.by_function.items()
    }
    return dataclasses.replace(program, tables=ProgramTables(by_function))


def test_explicit_attack_session_asserts_zero_false_positives(monkeypatch):
    program = swapped(compile_program(FIGURE1, "figure1"))
    _, ipds = monitored_run(program, inputs=EXPLICIT.inputs)
    assert ipds.detected  # the inverted actions fire on these inputs
    monkeypatch.setattr(engine, "compile_program_cached", lambda *args: program)

    with pytest.raises(CampaignError, match="false positive on clean run of figure1"):
        DetectionSession(EXPLICIT).execute()

    session = DetectionSession(EXPLICIT)
    result = session.run()
    assert session.state is SessionState.FAILED
    assert result.error.startswith("CampaignError: false positive")


def recorded_names(spec):
    session = DetectionSession(spec)
    session.execute()
    assert session.state is SessionState.ALARMED
    counters = set(session.metrics.snapshot()["counters"])
    spans = {record.name for record in session.tracer.finished}
    return counters, spans


def test_explicit_and_indexed_attacks_record_the_same_telemetry():
    explicit = recorded_names(EXPLICIT)
    assert recorded_names(INDEXED) == explicit
    counters, spans = explicit
    assert spans == {"session", "session.compile", "session.attack"}
    assert {"campaign.executions", "campaign.control_flow_changed"} <= counters


def test_comparison_counts_the_campaign_outcomes():
    """The n-gram comparison's IPDS column is the Fig-7 recipe's, attack
    for attack: same draws, same "changed", same "detected"."""
    sshd = get_workload("sshd")
    program = compile_program_cached(sshd.source, sshd.name, 0)
    result = compare_detectors(sshd, attacks=100, program=program)
    changed = [
        outcome
        for outcome in (
            run_attack(program, sshd, index, seed_prefix="cmp:")
            for index in range(100)
        )
        if outcome.control_flow_changed
    ]
    assert (result.changed, result.ipds_detected) == (
        len(changed),
        sum(outcome.detected for outcome in changed),
    )


#: A clean run three progress intervals long (one branch per iteration).
LOOP = """
int total;
void main() {
  int n = read_int();
  int i = 0;
  while (i < n) { total = total + i; i = i + 1; }
  emit(total);
}
"""
LONG_EXPLICIT = SessionSpec(
    mode="attack",
    source=LOOP,
    source_name="loop",
    inputs=(3 * engine.PROGRESS_EVERY,),
    tamper=TamperSpec("read", 1, GLOBAL_BASE, 0),
)


@pytest.mark.parametrize(
    "spec,every",
    # An indexed telnetd clean run has ~200 control-flow events, so its
    # checkpoint interval is shortened to fall inside it.
    [(LONG_EXPLICIT, engine.PROGRESS_EVERY), (INDEXED, 50)],
    ids=["explicit", "indexed"],
)
def test_operator_kill_stops_the_clean_run(spec, every, monkeypatch):
    """A kill requested before an attack session starts stops it at the
    clean run's first progress checkpoint; the attack run never starts."""
    from repro.attacks import campaign

    monkeypatch.setattr(engine, "PROGRESS_EVERY", every)
    tampers = []
    monitored = campaign.monitored_run

    def spy(*args, **kwargs):
        tampers.append(kwargs.get("tamper"))
        return monitored(*args, **kwargs)

    monkeypatch.setattr(campaign, "monitored_run", spy)
    session = DetectionSession(spec)
    session.request_kill()
    result = session.execute()
    assert session.state is SessionState.KILLED
    assert result.error == "killed by operator request"
    assert session.events_seen == every
    assert tampers == [None]  # only the clean run was entered
    assert session.attack is None and result.outcome is None
