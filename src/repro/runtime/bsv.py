"""Branch Status Vector runtime state (§5.1).

One :class:`BSVFrame` exists per *activation* of a protected function.
All statuses start UNKNOWN; the BAT actions fired by committed branches
move them between TAKEN / NOT_TAKEN / UNKNOWN.
"""

from __future__ import annotations

from typing import Dict

from ..correlation.actions import BranchAction, BranchStatus
from ..correlation.tables import FunctionTables


class BSVFrame:
    """The 2-bit-per-slot status vector of one function activation."""

    def __init__(self, tables: FunctionTables, frame_id: int = 0):
        self.tables = tables
        #: Activation identity assigned by the IPDS (monotonic per run);
        #: lets the flight recorder attribute records to one activation.
        self.frame_id = frame_id
        self._status: Dict[int, BranchStatus] = {}

    def status(self, slot: int) -> BranchStatus:
        return self._status.get(slot, BranchStatus.UNKNOWN)

    def apply(self, slot: int, action: BranchAction) -> None:
        if action is BranchAction.NC:
            return
        updated = action.apply(self.status(slot))
        if updated is BranchStatus.UNKNOWN:
            self._status.pop(slot, None)
        else:
            self._status[slot] = updated

    def snapshot(self) -> Dict[int, BranchStatus]:
        """Copy of all non-UNKNOWN statuses (diagnostics)."""
        return dict(self._status)

    @property
    def known_count(self) -> int:
        return len(self._status)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{slot}:{status.value}" for slot, status in sorted(self._status.items())
        )
        return f"BSVFrame({self.tables.function_name}; {inner})"
