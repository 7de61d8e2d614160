"""Bounded flight recorder: the last N committed control-flow events.

A black-box ring buffer the IPDS fills while checking (the IPDS itself
is the :class:`~repro.runtime.observer.ExecutionObserver` on the
interpreter's bus; the recorder enriches the raw bus events with the
BSV internals only the checker can see — which slots each fired BAT
action moved, and through which statuses).  On alarm, the forensics
engine (:mod:`repro.forensics`) walks the ring backwards to find the
*setting event* — the committed branch whose action installed the
expectation the alarming branch contradicted — and joins it with the
compiler's :class:`~repro.correlation.provenance.ActionProvenance`.

The ring is bounded (``depth`` records, default 64) so recording cost
and memory stay O(1) per event; an alarm whose setter has already been
evicted is reported as degraded rather than guessed at.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple, Union

from ..correlation.actions import BranchAction, BranchStatus

#: Default ring depth; CLI flag --flight-recorder-depth overrides.
DEFAULT_DEPTH = 64


def _status_name(status: Optional[BranchStatus]) -> Optional[str]:
    return None if status is None else status.value


@dataclass(frozen=True)
class BSVTransition:
    """One BAT action firing: slot moved ``before`` -> ``after``."""

    slot: int
    target_pc: Optional[int]  # branch PC owning the slot (None if unmapped)
    action: BranchAction
    before: BranchStatus
    after: BranchStatus

    def describe(self) -> str:
        where = f"slot {self.slot}"
        if self.target_pc is not None:
            where += f" ({self.target_pc:#x})"
        return (
            f"{self.action.value} {where}: "
            f"{self.before.value} -> {self.after.value}"
        )

    def to_dict(self) -> dict:
        return {
            "slot": self.slot,
            "target_pc": self.target_pc,
            "action": self.action.value,
            "before": self.before.value,
            "after": self.after.value,
        }


@dataclass(frozen=True)
class BranchRecord:
    """One committed conditional branch, with everything the IPDS did."""

    seq: int  # IPDS event index (matches Alarm.event_index)
    frame_id: int  # activation that observed the branch
    function: str
    pc: int
    taken: bool
    checked: bool  # was the slot marked in the BCV?
    expected: Optional[BranchStatus]  # BSV status at verify time
    alarmed: bool
    transitions: Tuple[BSVTransition, ...]  # BAT actions this event fired

    @property
    def direction(self) -> str:
        return "T" if self.taken else "NT"

    def describe(self) -> str:
        parts = [f"#{self.seq} br {self.function}@{self.pc:#x} {self.direction}"]
        if self.checked:
            parts.append(f"checked(expected {_status_name(self.expected)})")
        if self.alarmed:
            parts.append("ALARM")
        if self.transitions:
            fired = "; ".join(t.describe() for t in self.transitions)
            parts.append(f"[{fired}]")
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {
            "kind": "branch",
            "seq": self.seq,
            "frame_id": self.frame_id,
            "function": self.function,
            "pc": self.pc,
            "taken": self.taken,
            "checked": self.checked,
            "expected": _status_name(self.expected),
            "alarmed": self.alarmed,
            "transitions": [t.to_dict() for t in self.transitions],
        }


@dataclass(frozen=True)
class FrameRecord:
    """A call/return boundary — activation context for the history."""

    seq: int
    kind: str  # "call" | "return"
    function: str
    frame_id: int

    def describe(self) -> str:
        return f"#{self.seq} {self.kind} {self.function} (frame {self.frame_id})"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seq": self.seq,
            "function": self.function,
            "frame_id": self.frame_id,
        }


FlightRecord = Union[BranchRecord, FrameRecord]


class FlightRecorder:
    """Fixed-depth ring of :class:`BranchRecord`/:class:`FrameRecord`."""

    def __init__(self, depth: int = DEFAULT_DEPTH):
        if depth < 1:
            raise ValueError("flight recorder depth must be >= 1")
        self.depth = depth
        self._ring: Deque[FlightRecord] = deque(maxlen=depth)
        self._total = 0  # records ever written (eviction detection)

    # -- producer side (IPDS) -------------------------------------------

    def record(self, entry: FlightRecord) -> None:
        self._ring.append(entry)
        self._total += 1

    def clear(self) -> None:
        self._ring.clear()
        self._total = 0

    # -- consumer side (forensics) --------------------------------------

    @property
    def records(self) -> Tuple[FlightRecord, ...]:
        return tuple(self._ring)

    @property
    def branch_records(self) -> Tuple[BranchRecord, ...]:
        return tuple(r for r in self._ring if isinstance(r, BranchRecord))

    @property
    def total_recorded(self) -> int:
        return self._total

    @property
    def evictions(self) -> int:
        return self._total - len(self._ring)

    def find_setter(
        self, frame_id: int, slot: int, before_seq: int
    ) -> Optional[Tuple[BranchRecord, BSVTransition]]:
        """Latest record before ``before_seq`` whose actions wrote ``slot``
        in activation ``frame_id`` — the event that installed the
        expectation an alarm at ``before_seq`` contradicted."""
        for entry in reversed(self._ring):
            if not isinstance(entry, BranchRecord):
                continue
            if entry.seq >= before_seq or entry.frame_id != frame_id:
                continue
            for transition in reversed(entry.transitions):
                if transition.slot == slot:
                    return entry, transition
        return None

    def history(self, before_seq: int, limit: int) -> Tuple[FlightRecord, ...]:
        """The up-to-``limit`` records at or before ``before_seq``."""
        selected = [r for r in self._ring if r.seq <= before_seq]
        return tuple(selected[-limit:])

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(depth={self.depth}, held={len(self._ring)}, "
            f"total={self._total})"
        )
