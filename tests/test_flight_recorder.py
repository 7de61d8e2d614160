"""Flight recorder: bounded ring semantics and IPDS integration."""

import pytest

from repro.correlation.actions import BranchAction, BranchStatus
from repro.pipeline import compile_program, monitored_run
from repro.runtime.flight_recorder import (
    DEFAULT_DEPTH,
    BranchRecord,
    BSVTransition,
    FlightRecorder,
    FrameRecord,
)
from repro.interp.interpreter import TamperSpec
from repro.workloads import get_workload


def _branch(seq, frame_id=0, slot=None, pc=0x40):
    transitions = ()
    if slot is not None:
        transitions = (
            BSVTransition(
                slot=slot,
                target_pc=0x80,
                action=BranchAction.SET_T,
                before=BranchStatus.UNKNOWN,
                after=BranchStatus.TAKEN,
            ),
        )
    return BranchRecord(
        seq=seq,
        frame_id=frame_id,
        function="main",
        pc=pc,
        taken=True,
        checked=False,
        expected=None,
        alarmed=False,
        transitions=transitions,
    )


# -- ring mechanics -----------------------------------------------------


def test_depth_bounds_retention():
    recorder = FlightRecorder(depth=4)
    for seq in range(10):
        recorder.record(_branch(seq))
    assert len(recorder) == 4
    assert recorder.total_recorded == 10
    assert recorder.evictions == 6
    assert [r.seq for r in recorder.records] == [6, 7, 8, 9]


def test_depth_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(depth=0)


def test_clear_resets_everything():
    recorder = FlightRecorder(depth=2)
    recorder.record(_branch(0))
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.total_recorded == 0


def test_find_setter_matches_frame_slot_and_order():
    recorder = FlightRecorder(depth=8)
    recorder.record(_branch(1, frame_id=0, slot=7))
    recorder.record(_branch(2, frame_id=1, slot=7))  # other activation
    recorder.record(_branch(3, frame_id=0, slot=7))  # latest in frame 0
    recorder.record(_branch(4, frame_id=0, slot=9))  # other slot
    found = recorder.find_setter(frame_id=0, slot=7, before_seq=5)
    assert found is not None
    setter, transition = found
    assert setter.seq == 3
    assert transition.slot == 7
    # Events at/after the alarm never count as its setter.
    assert recorder.find_setter(0, 7, before_seq=3)[0].seq == 1
    assert recorder.find_setter(0, 3, before_seq=5) is None


def test_find_setter_after_eviction_returns_none():
    recorder = FlightRecorder(depth=2)
    recorder.record(_branch(1, slot=7))
    recorder.record(_branch(2))
    recorder.record(_branch(3))  # evicts seq 1, the only setter
    assert recorder.find_setter(0, 7, before_seq=4) is None
    assert recorder.evictions == 1


def test_history_windows_by_seq():
    recorder = FlightRecorder(depth=8)
    recorder.record(FrameRecord(seq=0, kind="call", function="main", frame_id=0))
    for seq in range(1, 6):
        recorder.record(_branch(seq))
    window = recorder.history(before_seq=4, limit=3)
    assert [r.seq for r in window] == [2, 3, 4]


def test_record_descriptions():
    branch = _branch(3, slot=5)
    text = branch.describe()
    assert "#3 br main@0x40 T" in text
    assert "SET_T slot 5" in text
    frame = FrameRecord(seq=1, kind="call", function="f", frame_id=2)
    assert frame.describe() == "#1 call f (frame 2)"


# -- IPDS integration ---------------------------------------------------


@pytest.fixture(scope="module")
def telnetd_program():
    workload = get_workload("telnetd")
    return workload, compile_program(workload.source, "telnetd", 1)


ATTACK = dict(inputs=[5, 0, 1, 2, 3, 1, 1, 1, 0], trigger=6, value=1)


def _attack_spec(program):
    from repro.interp import MemoryMap, STACK_BASE

    layout = MemoryMap(program.module).frame_layouts["main"]
    offset = next(
        o for v, o in layout.offsets.items() if v.name == "authenticated"
    )
    return TamperSpec("read", ATTACK["trigger"], STACK_BASE + offset,
                      ATTACK["value"])


def test_recorder_captures_bsv_transitions(telnetd_program):
    _, program = telnetd_program
    recorder = FlightRecorder()
    result, ipds = monitored_run(
        program, inputs=ATTACK["inputs"], flight_recorder=recorder
    )
    assert not ipds.detected
    branches = recorder.branch_records
    assert branches
    fired = [t for record in branches for t in record.transitions]
    assert fired, "BAT actions must appear as BSV transitions"
    for transition in fired:
        assert isinstance(transition.action, BranchAction)
        assert transition.target_pc is not None


def test_alarms_identical_with_and_without_recorder(telnetd_program):
    """The recorder must observe, never perturb: same alarms, same
    events, same everything, recorder or not."""
    _, program = telnetd_program
    tamper = _attack_spec(program)
    bare_result, bare_ipds = monitored_run(
        program, inputs=ATTACK["inputs"], tamper=tamper
    )
    recorded_result, recorded_ipds = monitored_run(
        program,
        inputs=ATTACK["inputs"],
        tamper=tamper,
        flight_recorder=FlightRecorder(),
    )
    assert bare_ipds.detected and recorded_ipds.detected
    assert bare_ipds.alarms == recorded_ipds.alarms
    assert bare_result.branch_trace == recorded_result.branch_trace
    assert bare_ipds.stats.events == recorded_ipds.stats.events


def test_alarmed_branch_is_recorded(telnetd_program):
    _, program = telnetd_program
    recorder = FlightRecorder()
    _, ipds = monitored_run(
        program,
        inputs=ATTACK["inputs"],
        tamper=_attack_spec(program),
        flight_recorder=recorder,
    )
    assert ipds.detected
    alarm = ipds.alarms[0]
    alarmed = [r for r in recorder.branch_records if r.alarmed]
    assert [r.seq for r in alarmed] == [alarm.event_index]
    assert alarm.slot >= 0 and alarm.frame_id >= 0


def test_default_depth_is_documented_value():
    assert FlightRecorder().depth == DEFAULT_DEPTH == 64


# -- eviction under call/return-heavy traces ----------------------------
#
# Call and return events share the ring with branch records, so a
# call-heavy region of the trace can push the setting event out even
# when few *branches* ran since.  These tests pin that degradation:
# find_setter returns None (never a wrong setter), the eviction counter
# owns up to it, and the forensics engine says so in its notes.


def _frame_pair(seq, function="helper"):
    return (
        FrameRecord(seq=seq, kind="call", function=function, frame_id=1),
        FrameRecord(seq=seq + 1, kind="return", function=function, frame_id=1),
    )


def test_frame_records_evict_branch_setters():
    recorder = FlightRecorder(depth=4)
    recorder.record(_branch(0, slot=7))  # the only setter
    seq = 1
    for _ in range(3):  # three call/return pairs: six frame records
        call, ret = _frame_pair(seq)
        recorder.record(call)
        recorder.record(ret)
        seq += 2
    assert recorder.evictions == 3
    assert all(isinstance(r, FrameRecord) for r in recorder.records)
    assert recorder.branch_records == ()
    # Degraded, not wrong: the evicted setter is never invented.
    assert recorder.find_setter(frame_id=0, slot=7, before_seq=seq) is None


def test_mixed_trace_keeps_most_recent_window_in_order():
    recorder = FlightRecorder(depth=5)
    seq = 0
    for _ in range(4):
        recorder.record(
            FrameRecord(seq=seq, kind="call", function="helper", frame_id=1)
        )
        recorder.record(_branch(seq + 1, slot=seq))
        recorder.record(
            FrameRecord(
                seq=seq + 2, kind="return", function="helper", frame_id=1
            )
        )
        seq += 3
    assert recorder.total_recorded == 12
    assert recorder.evictions == 7
    held = [r.seq for r in recorder.records]
    assert held == sorted(held)
    assert held == list(range(7, 12))
    # The survivor set still answers for slots set inside the window...
    assert recorder.find_setter(0, slot=9, before_seq=12) is not None
    # ...and stays silent for the evicted ones.
    assert recorder.find_setter(0, slot=0, before_seq=12) is None


def _call_heavy_source(calls_per_iteration=6):
    body = "    bump();\n" * calls_per_iteration
    return (
        "int g;\n"
        "void bump() { g = g + 1; }\n"
        "void main() {\n"
        "  int n = read_int();\n"
        "  int i = 0;\n"
        "  while (i < n) {\n"
        "    if (g >= 0) { emit(1); } else { emit(2); }\n"
        f"{body}"
        "    i = i + 1;\n"
        "  }\n"
        "  emit(g);\n"
        "}\n"
    )


def test_call_heavy_run_overflows_a_shallow_ring():
    program = compile_program(_call_heavy_source(), "callheavy", 1)
    recorder = FlightRecorder(depth=8)
    _, ipds = monitored_run(
        program, inputs=[12], flight_recorder=recorder
    )
    assert not ipds.detected
    assert recorder.evictions > 0
    assert recorder.total_recorded == recorder.evictions + len(recorder)
    kinds = {type(r).__name__ for r in recorder.records}
    assert "FrameRecord" in kinds  # calls/returns really share the ring


def test_forensics_notes_eviction_on_call_heavy_alarm(telnetd_program):
    """With a shallow ring under telnetd's call-heavy command loop, the
    setter is gone by alarm time; the report must say evicted — and
    recommend a deeper ring — instead of naming a wrong setter."""
    from repro.forensics import explain_ipds

    _, program = telnetd_program
    recorder = FlightRecorder(depth=2)
    _, ipds = monitored_run(
        program,
        inputs=ATTACK["inputs"],
        tamper=_attack_spec(program),
        flight_recorder=recorder,
    )
    assert ipds.detected and recorder.evictions > 0
    (report,) = explain_ipds(ipds)
    assert report.setter is None
    assert any("evicted" in note for note in report.notes)
    assert any("--flight-recorder-depth" in note for note in report.notes)


def test_deep_ring_recovers_the_same_alarms_setter(telnetd_program):
    """Control for the eviction test: same attack, ring deep enough to
    hold the whole trace, setter found with provenance attached."""
    from repro.forensics import explain_ipds

    _, program = telnetd_program
    recorder = FlightRecorder(depth=4096)
    _, ipds = monitored_run(
        program,
        inputs=ATTACK["inputs"],
        tamper=_attack_spec(program),
        flight_recorder=recorder,
    )
    assert ipds.detected and recorder.evictions == 0
    (report,) = explain_ipds(ipds)
    assert report.setter is not None
    assert report.transition is not None
    assert not any("evicted" in note for note in report.notes)
