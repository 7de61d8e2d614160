"""The IPDS runtime checker (§5.4).

Consumes the committed control-flow event stream and maintains the
BSV/BCV/BAT stack:

* ``CallEvent`` — push a fresh all-UNKNOWN BSV frame for the callee;
* ``ReturnEvent`` — pop it, resuming the caller's frame;
* ``BranchEvent`` — if the branch is marked in the BCV, *verify* its
  actual direction against the BSV (a definite mismatch is an
  infeasible path ⇒ alarm), then *update* the BSV by firing the BAT
  actions for (branch, direction).

Verification-before-update ordering matters: the event's own actions
describe the world *after* this branch, so they must not influence its
own check.

The checker is an :class:`~repro.runtime.observer.ExecutionObserver`:
it plugs straight onto the interpreter's event bus (``on_call`` /
``on_return`` / ``on_branch``), and :meth:`IPDS.process` remains as the
single-event entry point for offline replay.

The functional checker here decides *what* is detected; timing (queue
occupancy, spills, detection latency) is modeled separately in
:mod:`repro.cpu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from ..correlation.actions import BranchAction, BranchStatus
from ..correlation.tables import ProgramTables
from ..lang.errors import ReproError
from .bsv import BSVFrame
from .events import BranchEvent, CallEvent, Event, ReturnEvent
from .flight_recorder import (
    BranchRecord,
    BSVTransition,
    FlightRecorder,
    FrameRecord,
)
from .observer import ExecutionObserver

# Bound once at import: loading an enum member (``BranchStatus.TAKEN``)
# costs several times a module-global load, and the branch path below
# does one per status test and per BAT entry.
_TAKEN = BranchStatus.TAKEN
_NOT_TAKEN = BranchStatus.NOT_TAKEN
_UNKNOWN = BranchStatus.UNKNOWN
_SET_T = BranchAction.SET_T
_SET_NT = BranchAction.SET_NT
_SET_UN = BranchAction.SET_UN


class IPDSError(ReproError):
    """Protocol violation in the event stream (runtime bug, not attack)."""


@dataclass(frozen=True)
class Alarm:
    """One detected infeasible path."""

    function_name: str
    pc: int
    expected: BranchStatus
    actual_taken: bool
    event_index: int
    #: BSV slot whose expectation was violated and the activation that
    #: held it — forensics join keys.
    slot: int
    frame_id: int

    def __str__(self) -> str:
        actual = "T" if self.actual_taken else "NT"
        return (
            f"infeasible path in {self.function_name}@{self.pc:#x}: "
            f"expected {self.expected.value}, saw {actual} "
            f"(event #{self.event_index})"
        )


@dataclass
class IPDSStats:
    """Counters for one monitored execution: ``events`` counts every
    committed event (an alarm's ``event_index`` and a flight record's
    ``seq`` are this count), ``checks`` every BCV-marked branch
    verified."""

    events: int = 0
    checks: int = 0


class IPDS(ExecutionObserver):
    """Infeasible Path Detection System runtime.

    The checker records every alarm and keeps checking; stopping the
    process on an alarm is the ``alarm_sink``'s job (a sink that raises,
    like the kill-session policy, aborts the run).

    The compiler builds tables for every function of a module, so a
    call into a function without tables is a protocol violation
    (:class:`IPDSError`), never a frame that goes unchecked.

    ``alarm_sink`` is an optional callback invoked with each
    :class:`Alarm` immediately after it is recorded — the hook an
    alarm-response policy (log / kill session / quarantine) hangs off.
    A sink that raises aborts the monitored execution; the alarm is
    already recorded when the sink runs, so observers of ``alarms``
    see identical state with or without a sink.
    """

    def __init__(
        self,
        tables: ProgramTables,
        flight_recorder: Optional[FlightRecorder] = None,
        alarm_sink: Optional[Callable[[Alarm], None]] = None,
    ):
        self._tables = tables
        self._stack: List[BSVFrame] = []
        # Frame ids are assigned whether or not a recorder is attached,
        # so alarms (which carry frame_id) are identical either way.
        self._next_frame_id = 0
        self.flight_recorder = flight_recorder
        self.alarm_sink = alarm_sink
        self.alarms: List[Alarm] = []
        self.stats = IPDSStats()

    # -- event interface ----------------------------------------------------

    def process(self, event: Event) -> Optional[Alarm]:
        """Consume one event; returns an alarm if this event raised one."""
        dispatch = getattr(event, "dispatch", None)
        if dispatch is None:
            raise IPDSError(f"unknown event {event!r}")
        return dispatch(self)

    def on_call(self, event: CallEvent) -> None:
        self.stats.events += 1
        self._push(event.function_name)
        return None

    def on_return(self, event: ReturnEvent) -> None:
        self.stats.events += 1
        self._pop(event.function_name)
        return None

    def on_branch(self, event: BranchEvent) -> Optional[Alarm]:
        """Verify one committed branch against the BSV, then fire its
        BAT actions (§5.4).

        This runs once per committed branch, so it reads the branch's
        precomputed plan (``FunctionTables.branch_plan``) once, applies
        the action list itself and loads statuses and actions from the
        module constants above instead of the enum classes.
        """
        stats = self.stats
        stats.events += 1
        stack = self._stack
        if not stack:
            raise IPDSError("branch event with empty table stack")
        frame = stack[-1]
        tables = frame.tables
        if tables.function_name != event.function_name:
            raise IPDSError(
                f"branch event from {event.function_name!r} but active "
                f"frame is {tables.function_name!r}"
            )
        taken = event.taken
        status = frame._status
        checked = False
        expected: Optional[BranchStatus] = None
        actions: tuple = ()
        alarm: Optional[Alarm] = None
        plan = tables._plan_by_pc.get(event.pc)
        if plan is not None:
            slot, checked, taken_actions, not_taken_actions = plan
            actions = taken_actions if taken else not_taken_actions
            # Verify first (only branches marked in the BCV): a slot
            # absent from the frame is UNKNOWN, which never alarms.
            if checked:
                stats.checks += 1
                expected = status.get(slot, _UNKNOWN)
                if expected is not _UNKNOWN and (expected is _TAKEN) != taken:
                    alarm = Alarm(
                        function_name=event.function_name,
                        pc=event.pc,
                        expected=expected,
                        actual_taken=taken,
                        event_index=stats.events,
                        slot=slot,
                        frame_id=frame.frame_id,
                    )
                    self.alarms.append(alarm)

        # Then update, whether or not the branch is checked (§5.4).
        recorder = self.flight_recorder
        transitions: tuple = ()
        if actions:
            if recorder is None:
                for target, action in actions:
                    if action is _SET_T:
                        status[target] = _TAKEN
                    elif action is _SET_NT:
                        status[target] = _NOT_TAKEN
                    elif action is _SET_UN:
                        status.pop(target, None)
            else:
                recorded = []
                for target, action in actions:
                    before = frame.status(target)
                    frame.apply(target, action)
                    recorded.append(
                        BSVTransition(
                            slot=target,
                            target_pc=tables.pc_of_slot(target),
                            action=action,
                            before=before,
                            after=frame.status(target),
                        )
                    )
                transitions = tuple(recorded)
        if recorder is not None:
            recorder.record(
                BranchRecord(
                    seq=stats.events,
                    frame_id=frame.frame_id,
                    function=event.function_name,
                    pc=event.pc,
                    taken=taken,
                    checked=checked,
                    expected=expected,
                    alarmed=alarm is not None,
                    transitions=transitions,
                )
            )
        if alarm is not None and self.alarm_sink is not None:
            self.alarm_sink(alarm)
        return alarm

    def run(self, events: Iterable[Event]) -> List[Alarm]:
        """Consume a whole stream; returns all alarms raised."""
        for event in events:
            self.process(event)
        return self.alarms

    @property
    def detected(self) -> bool:
        return bool(self.alarms)

    @property
    def tables(self) -> ProgramTables:
        return self._tables

    @property
    def stack_depth(self) -> int:
        return len(self._stack)

    def current_frame(self) -> Optional[BSVFrame]:
        return self._stack[-1] if self._stack else None

    # -- internals ---------------------------------------------------------

    def _push(self, function_name: str) -> None:
        try:
            tables = self._tables.tables_for(function_name)
        except KeyError:
            raise IPDSError(
                f"call into unprotected function {function_name!r}"
            ) from None
        self._next_frame_id += 1
        frame_id = self._next_frame_id
        self._stack.append(BSVFrame(tables, frame_id=frame_id))
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                FrameRecord(
                    seq=self.stats.events,
                    kind="call",
                    function=function_name,
                    frame_id=frame_id,
                )
            )

    def _pop(self, function_name: str) -> None:
        if not self._stack:
            raise IPDSError("return event with empty table stack")
        frame = self._stack.pop()
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                FrameRecord(
                    seq=self.stats.events,
                    kind="return",
                    function=function_name,
                    frame_id=frame.frame_id,
                )
            )
        if frame.tables.function_name != function_name:
            raise IPDSError(
                f"return from {function_name!r} but top of stack is "
                f"{frame.tables.function_name!r}"
            )
