"""Unit tests for the IPDS runtime: statuses, actions, stack protocol."""

import pytest

from repro.correlation import (
    BranchAction,
    BranchStatus,
    FunctionTables,
    HashParams,
    ProgramTables,
)
from repro.runtime import (
    Alarm,
    BranchEvent,
    BSVFrame,
    CallEvent,
    IPDS,
    IPDSError,
    ReturnEvent,
)


# ----------------------------------------------------------------------
# Statuses and actions
# ----------------------------------------------------------------------


def test_unknown_matches_any_direction():
    assert BranchStatus.UNKNOWN.matches(True)
    assert BranchStatus.UNKNOWN.matches(False)


def test_definite_status_matches_only_its_direction():
    assert BranchStatus.TAKEN.matches(True)
    assert not BranchStatus.TAKEN.matches(False)
    assert BranchStatus.NOT_TAKEN.matches(False)
    assert not BranchStatus.NOT_TAKEN.matches(True)


def test_status_of():
    assert BranchStatus.of(True) is BranchStatus.TAKEN
    assert BranchStatus.of(False) is BranchStatus.NOT_TAKEN


def test_actions_apply():
    assert BranchAction.SET_T.apply(BranchStatus.UNKNOWN) is BranchStatus.TAKEN
    assert BranchAction.SET_NT.apply(BranchStatus.TAKEN) is BranchStatus.NOT_TAKEN
    assert BranchAction.SET_UN.apply(BranchStatus.TAKEN) is BranchStatus.UNKNOWN
    assert BranchAction.NC.apply(BranchStatus.TAKEN) is BranchStatus.TAKEN


def test_action_set_to():
    assert BranchAction.set_to(True) is BranchAction.SET_T
    assert BranchAction.set_to(False) is BranchAction.SET_NT


# ----------------------------------------------------------------------
# Hand-built tables for protocol tests
# ----------------------------------------------------------------------

PC_A = 0x400010  # checked branch
PC_B = 0x400020  # unchecked branch whose actions drive PC_A


def make_tables():
    params = HashParams(1, 2, 4)
    slot_a = params.slot(PC_A)
    slot_b = params.slot(PC_B)
    assert slot_a != slot_b
    tables = FunctionTables(
        function_name="f",
        hash_params=params,
        branch_pcs=(PC_A, PC_B),
        bcv_slots=frozenset({slot_a}),
        bat={
            (slot_a, True): ((slot_a, BranchAction.SET_T),),
            (slot_a, False): ((slot_a, BranchAction.SET_NT),),
            (slot_b, True): ((slot_a, BranchAction.SET_UN),),
        },
    )
    return ProgramTables(by_function={"f": tables}), slot_a, slot_b


def test_bsv_frame_starts_unknown():
    program, slot_a, _ = make_tables()
    frame = BSVFrame(program.tables_for("f"))
    assert frame.status(slot_a) is BranchStatus.UNKNOWN
    assert frame.known_count == 0


def test_bsv_frame_apply_and_snapshot():
    program, slot_a, _ = make_tables()
    frame = BSVFrame(program.tables_for("f"))
    frame.apply(slot_a, BranchAction.SET_T)
    assert frame.status(slot_a) is BranchStatus.TAKEN
    assert frame.snapshot() == {slot_a: BranchStatus.TAKEN}
    frame.apply(slot_a, BranchAction.SET_UN)
    assert frame.known_count == 0


def test_first_execution_never_alarms():
    program, *_ = make_tables()
    ipds = IPDS(program)
    ipds.process(CallEvent("f"))
    alarm = ipds.process(BranchEvent("f", PC_A, True))
    assert alarm is None


def test_repeat_same_direction_passes():
    program, *_ = make_tables()
    ipds = IPDS(program)
    ipds.process(CallEvent("f"))
    ipds.process(BranchEvent("f", PC_A, True))
    assert ipds.process(BranchEvent("f", PC_A, True)) is None
    assert not ipds.detected


def test_direction_flip_alarms():
    program, *_ = make_tables()
    ipds = IPDS(program)
    ipds.process(CallEvent("f"))
    ipds.process(BranchEvent("f", PC_A, True))
    alarm = ipds.process(BranchEvent("f", PC_A, False))
    assert isinstance(alarm, Alarm)
    assert alarm.expected is BranchStatus.TAKEN
    assert alarm.actual_taken is False
    assert "infeasible path" in str(alarm)


def test_kill_action_forgives_direction_flip():
    program, *_ = make_tables()
    ipds = IPDS(program)
    ipds.process(CallEvent("f"))
    ipds.process(BranchEvent("f", PC_A, True))
    # PC_B taken fires SET_UN for PC_A's slot.
    ipds.process(BranchEvent("f", PC_B, True))
    assert ipds.process(BranchEvent("f", PC_A, False)) is None
    assert not ipds.detected


def test_unchecked_branch_never_verified():
    program, slot_a, _ = make_tables()
    ipds = IPDS(program)
    ipds.process(CallEvent("f"))
    frame = ipds.current_frame()
    frame.apply(slot_a, BranchAction.SET_T)
    ipds.process(BranchEvent("f", PC_B, True))
    ipds.process(BranchEvent("f", PC_B, False))
    assert not ipds.detected
    assert ipds.stats.checks == 0
    # Its BAT actions still fire: taken, PC_B forgets PC_A's status.
    assert frame.snapshot() == {}


def test_fresh_frame_per_activation():
    program, *_ = make_tables()
    ipds = IPDS(program)
    ipds.process(CallEvent("f"))
    ipds.process(BranchEvent("f", PC_A, True))
    # Recursive call: new frame starts UNKNOWN, so the flip is fine.
    ipds.process(CallEvent("f"))
    assert ipds.process(BranchEvent("f", PC_A, False)) is None
    # Back in the outer frame, the old expectation still applies.
    ipds.process(ReturnEvent("f"))
    alarm = ipds.process(BranchEvent("f", PC_A, False))
    assert alarm is not None


def test_stack_depth_tracked():
    program, *_ = make_tables()
    ipds = IPDS(program)
    ipds.process(CallEvent("f"))
    ipds.process(CallEvent("f"))
    assert ipds.stack_depth == 2
    ipds.process(ReturnEvent("f"))
    assert ipds.stack_depth == 1


def test_run_consumes_stream():
    program, *_ = make_tables()
    ipds = IPDS(program)
    alarms = ipds.run(
        [
            CallEvent("f"),
            BranchEvent("f", PC_A, True),
            BranchEvent("f", PC_A, False),
            ReturnEvent("f"),
        ]
    )
    assert len(alarms) == 1


# ----------------------------------------------------------------------
# Protocol violations (runtime bugs, not attacks)
# ----------------------------------------------------------------------


def test_unknown_function_call_rejected():
    program, *_ = make_tables()
    ipds = IPDS(program)
    with pytest.raises(IPDSError):
        ipds.process(CallEvent("ghost"))


def test_return_with_empty_stack_rejected():
    program, *_ = make_tables()
    ipds = IPDS(program)
    with pytest.raises(IPDSError):
        ipds.process(ReturnEvent("f"))


def test_mismatched_return_rejected():
    tables_a, *_ = make_tables()
    tables_a.by_function["g"] = tables_a.by_function["f"]
    ipds = IPDS(tables_a)
    ipds.process(CallEvent("f"))
    with pytest.raises(IPDSError):
        ipds.process(ReturnEvent("g"))


def test_branch_with_empty_stack_rejected():
    program, *_ = make_tables()
    ipds = IPDS(program)
    with pytest.raises(IPDSError):
        ipds.process(BranchEvent("f", PC_A, True))


def test_branch_from_wrong_function_rejected():
    program, *_ = make_tables()
    program.by_function["g"] = program.by_function["f"]
    ipds = IPDS(program)
    ipds.process(CallEvent("f"))
    with pytest.raises(IPDSError):
        ipds.process(BranchEvent("g", PC_A, True))
