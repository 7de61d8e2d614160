"""Differential property: the IPDS branch path against a reference checker.

``IPDS.on_branch`` is the per-committed-branch hot path: it reads each
branch's precomputed plan once and applies the BAT list itself.  The
reference below is the plain reading of §5.4 instead — the BSV as a
full vector of statuses, the BCV and BAT looked up through the public
table queries, ``BranchStatus.matches`` for the check and
``BranchAction.apply`` one entry at a time for the update.  Random
call/branch/return streams over hand-built tables must leave both with
the same alarms, counters, live BSV frames and flight records.
"""

from dataclasses import asdict, fields
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correlation import (
    BranchAction,
    BranchStatus,
    FunctionTables,
    ProgramTables,
)
from repro.correlation.hashing import find_perfect_hash
from repro.runtime import (
    Alarm,
    BranchEvent,
    CallEvent,
    IPDS,
    IPDSError,
    IPDSStats,
    ReturnEvent,
)
from repro.runtime.flight_recorder import (
    BranchRecord,
    BSVTransition,
    FlightRecorder,
    FrameRecord,
)

SET_T = BranchAction.SET_T
SET_NT = BranchAction.SET_NT
SET_UN = BranchAction.SET_UN
NC = BranchAction.NC

#: Branch PCs of ``f``; ``F_STRAY`` is a PC ``f`` has no plan for.
F_PCS = (0x400010, 0x400024, 0x400038, 0x40004C, 0x400060)
F_STRAY = 0x400100
G_PCS = (0x400200, 0x400214)


def _function(name, pcs, checked, bat):
    """Tables for ``name``: ``checked`` and ``bat`` name branches by
    index into ``pcs``."""
    params = find_perfect_hash(pcs).params
    slot = [params.slot(pc) for pc in pcs]
    return FunctionTables(
        function_name=name,
        hash_params=params,
        branch_pcs=tuple(sorted(pcs)),
        bcv_slots=frozenset(slot[i] for i in checked),
        bat={
            (slot[source], taken): tuple(
                (slot[target], action) for target, action in entries
            )
            for (source, taken), entries in bat.items()
        },
    )


def make_tables() -> ProgramTables:
    """``f`` and ``g`` are protected; ``u`` (never listed) is not.

    ``f``: branches 0, 2 and 3 are checked, 1 and 4 are not; 0 and 2
    set their own slot (so a flip alarms), 1 writes slot 2 twice, 4
    writes slot 3 three times, ``NC`` and ``SET_UN`` entries appear in
    lists that also set, 3 has no BAT list at all and 1 fires nothing
    when not taken.
    """
    f = _function(
        "f",
        F_PCS,
        checked=(0, 2, 3),
        bat={
            (0, True): ((0, SET_T), (2, SET_NT)),
            (0, False): ((0, SET_NT), (2, NC)),
            (1, True): ((0, SET_UN), (2, SET_T), (2, SET_NT)),
            (2, True): ((2, SET_T),),
            (2, False): ((0, SET_T), (2, SET_NT), (3, NC)),
            (4, True): ((3, SET_T), (3, SET_UN), (3, SET_NT)),
            (4, False): ((3, SET_UN), (0, NC)),
        },
    )
    g = _function(
        "g",
        G_PCS,
        checked=(0,),
        bat={
            (0, True): ((0, SET_T),),
            (0, False): ((0, SET_NT),),
            (1, True): ((0, NC), (0, SET_UN)),
            (1, False): ((0, SET_T),),
        },
    )
    return ProgramTables(by_function={"f": f, "g": g})


TABLES = make_tables()


class _Frame:
    def __init__(self, tables: FunctionTables, frame_id: int):
        self.tables = tables
        self.frame_id = frame_id
        self.vector = {
            tables.slot_of(pc): BranchStatus.UNKNOWN for pc in tables.branch_pcs
        }

    def snapshot(self) -> Dict[int, BranchStatus]:
        return {
            slot: status
            for slot, status in self.vector.items()
            if status is not BranchStatus.UNKNOWN
        }


class ReferenceChecker:
    """§5.4 read literally: check with ``matches``, then ``apply`` each
    BAT entry in order; records what a flight recorder should hold."""

    def __init__(self, tables):
        self.tables = tables
        self.stack: List[_Frame] = []
        self.alarms: List[Alarm] = []
        self.records: list = []
        #: (alarm, top frame's statuses) as an alarm sink sees them.
        self.sunk: list = []
        self.stats = {field.name: 0 for field in fields(IPDSStats)}
        self.next_frame_id = 0

    def on_call(self, event):
        self.stats["events"] += 1
        tables = self.tables.by_function.get(event.function_name)
        if tables is None:
            raise IPDSError(
                f"call into unprotected function {event.function_name!r}"
            )
        self.next_frame_id += 1
        frame_id = self.next_frame_id
        self.stack.append(_Frame(tables, frame_id))
        self.records.append(
            FrameRecord(self.stats["events"], "call", event.function_name, frame_id)
        )
        return None

    def on_return(self, event):
        self.stats["events"] += 1
        if not self.stack:
            raise IPDSError("return event with empty table stack")
        frame = self.stack.pop()
        self.records.append(
            FrameRecord(
                self.stats["events"],
                "return",
                event.function_name,
                frame.frame_id,
            )
        )
        if frame.tables.function_name != event.function_name:
            raise IPDSError(
                f"return from {event.function_name!r} but top of stack is "
                f"{frame.tables.function_name!r}"
            )
        return None

    def on_branch(self, event):
        self.stats["events"] += 1
        if not self.stack:
            raise IPDSError("branch event with empty table stack")
        frame = self.stack[-1]
        tables = frame.tables
        if tables.function_name != event.function_name:
            raise IPDSError(
                f"branch event from {event.function_name!r} but active "
                f"frame is {tables.function_name!r}"
            )
        slot = tables.slot_of(event.pc)
        checked = slot is not None and slot in tables.bcv_slots
        expected = None
        alarm = None
        if checked:
            self.stats["checks"] += 1
            expected = frame.vector[slot]
            if not expected.matches(event.taken):
                alarm = Alarm(
                    function_name=event.function_name,
                    pc=event.pc,
                    expected=expected,
                    actual_taken=event.taken,
                    event_index=self.stats["events"],
                    slot=slot,
                    frame_id=frame.frame_id,
                )
                self.alarms.append(alarm)
        entries = () if slot is None else tables.bat.get((slot, event.taken), ())
        transitions = []
        for target, action in entries:
            before = frame.vector[target]
            frame.vector[target] = action.apply(before)
            transitions.append(
                BSVTransition(
                    slot=target,
                    target_pc=tables.pc_of_slot(target),
                    action=action,
                    before=before,
                    after=frame.vector[target],
                )
            )
        self.records.append(
            BranchRecord(
                seq=self.stats["events"],
                frame_id=frame.frame_id,
                function=event.function_name,
                pc=event.pc,
                taken=event.taken,
                checked=checked,
                expected=expected,
                alarmed=alarm is not None,
                transitions=tuple(transitions),
            )
        )
        if alarm is not None:
            self.sunk.append((alarm, frame.snapshot()))
        return alarm


# -- streams ------------------------------------------------------------

#: Callees: the two protected functions, and one call in ten into
#: ``u``, which has no tables and must raise (so ending the stream).
_CALLEE = st.integers(0, 9).map(lambda i: "u" if i == 0 else ("f", "g")[i % 2])
BRANCH_PCS = {"f": F_PCS + (F_STRAY,), "g": G_PCS, "u": (0x400300,)}

_op = st.one_of(
    st.tuples(st.just("call"), _CALLEE),
    st.tuples(st.just("ret"), st.booleans()),
    st.tuples(
        st.just("br"), st.integers(0, len(F_PCS)), st.booleans(), st.booleans()
    ),
)


def build_stream(ops) -> list:
    """Events for ``ops``, kept mostly well formed by a model stack: a
    return names the top function, a branch belongs to it and picks one
    of its PCs.  A rare flag makes a return or branch name the wrong
    function, and a stream that returns past ``main`` branches on an
    empty stack — both must raise the same ``IPDSError``."""
    stack = []
    events = []
    for op in ops:
        if op[0] == "call":
            stack.append(op[1])
            events.append(CallEvent(op[1]))
        elif op[0] == "ret":
            _, wrong = op
            name = stack.pop() if stack else "f"
            events.append(ReturnEvent("g" if wrong and name == "f" else name))
        else:
            _, index, taken, wrong = op
            name = stack[-1] if stack else "f"
            if wrong and index == 0:
                name = "g" if name == "f" else "f"
            pcs = BRANCH_PCS[name]
            events.append(BranchEvent(name, pcs[index % len(pcs)], taken))
    return events


def drive(checker, events):
    """Feed ``events`` one at a time; the per-event results and the
    message of the ``IPDSError`` that ended the stream, if any."""
    results = []
    for event in events:
        try:
            results.append(event.dispatch(checker))
        except IPDSError as error:
            return results, str(error)
    return results, None


def live_snapshots(ipds: IPDS):
    return [frame.snapshot() for frame in ipds._stack]


def checked_run(events, recorder=None):
    """Run ``events`` through an IPDS whose alarm sink notes each alarm
    with the statuses of the frame that raised it."""
    sunk = []
    ipds = IPDS(
        TABLES,
        flight_recorder=recorder,
        alarm_sink=lambda alarm: sunk.append(
            (alarm, ipds.current_frame().snapshot())
        ),
    )
    results, error = drive(ipds, events)
    return ipds, results, error, sunk


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, max_size=60))
def test_branch_path_matches_reference_checker(ops):
    events = [CallEvent("f")] + build_stream(ops)
    reference = ReferenceChecker(TABLES)
    expected_results, expected_error = drive(reference, events)
    expected_frames = [frame.snapshot() for frame in reference.stack]

    ipds, results, error, sunk = checked_run(events)
    assert error == expected_error
    assert results == expected_results
    assert [asdict(alarm) for alarm in ipds.alarms] == [
        asdict(alarm) for alarm in reference.alarms
    ]
    assert sunk == reference.sunk
    assert asdict(ipds.stats) == reference.stats
    assert live_snapshots(ipds) == expected_frames

    recorder = FlightRecorder(depth=len(events) + 1)
    recorded, results, error, sunk = checked_run(events, recorder)
    assert error == expected_error
    assert results == expected_results
    assert recorded.alarms == ipds.alarms
    assert sunk == reference.sunk
    assert asdict(recorded.stats) == reference.stats
    assert live_snapshots(recorded) == expected_frames
    assert list(recorder.records) == reference.records


def test_stats_carry_two_counters():
    assert [field.name for field in fields(IPDSStats)] == ["events", "checks"]
