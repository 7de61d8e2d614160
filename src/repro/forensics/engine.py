"""The explanation engine: join alarms with recorder + provenance.

For each alarm the join is mechanical, which is the point — every step
is data the system already committed to:

1. the alarm names the violated BSV slot and its activation
   (``Alarm.slot`` / ``Alarm.frame_id``);
2. the flight recorder is scanned backwards for the latest committed
   branch in that activation whose BAT actions wrote that slot — the
   *setting event*;
3. the setter's ``(pc, direction)`` plus the alarm's ``pc`` key
   straight into the compile-time provenance table (the sidecar) —
   the proved correlation that was violated.

If the setter aged out of the bounded ring the report degrades
honestly: it lists every compile-time correlation that could have
armed the slot with the contradicted expectation instead of guessing.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..correlation.actions import BranchStatus
from ..correlation.tables import ProgramTables
from ..runtime.flight_recorder import FlightRecorder
from ..runtime.ipds import IPDS, Alarm
from .report import AlarmReport

#: How many trailing flight-recorder entries a report quotes.
DEFAULT_HISTORY = 8

#: The action value that installs a given expectation.
_SETTING_ACTION = {
    BranchStatus.TAKEN: "SET_T",
    BranchStatus.NOT_TAKEN: "SET_NT",
}


def explain_alarms(
    tables: ProgramTables,
    recorder: Optional[FlightRecorder],
    alarms: Iterable[Alarm],
) -> List[AlarmReport]:
    """Build one :class:`AlarmReport` per alarm."""
    return [_explain_one(tables, recorder, alarm) for alarm in alarms]


def _explain_one(
    tables: ProgramTables,
    recorder: Optional[FlightRecorder],
    alarm: Alarm,
) -> AlarmReport:
    fn_tables = tables.tables_for(alarm.function_name)
    notes: List[str] = []
    history: tuple = ()
    setter = transition = None
    if recorder is None:
        notes.append("no flight recorder attached — run with --forensics")
    else:
        found = recorder.find_setter(
            alarm.frame_id, alarm.slot, alarm.event_index
        )
        if found is not None:
            setter, transition = found
        history = tuple(
            entry.describe()
            for entry in recorder.history(alarm.event_index, DEFAULT_HISTORY)
        )

    provenance = None
    candidates: tuple = ()
    if setter is not None:
        provenance = fn_tables.provenance_for(
            setter.pc, setter.taken, alarm.pc
        )
        if provenance is None:
            notes.append(
                "setting event found but no provenance record matches its "
                "BAT entry — image may predate the provenance sidecar"
            )
    else:
        wanted = _SETTING_ACTION.get(alarm.expected)
        candidates = tuple(
            p
            for p in fn_tables.provenance_targeting(alarm.pc)
            if p.action == wanted
        )
        if recorder is not None:
            if recorder.evictions:
                notes.append(
                    f"setting event not in the flight recorder (depth "
                    f"{recorder.depth}, {recorder.evictions} evicted) — "
                    f"raise --flight-recorder-depth"
                )
            else:
                notes.append("no setting event recorded before the alarm")
    return AlarmReport(
        alarm=alarm,
        function=alarm.function_name,
        setter=setter,
        transition=transition,
        provenance=provenance,
        candidates=candidates,
        history=history,
        notes=tuple(notes),
    )


def explain_ipds(ipds: IPDS) -> List[AlarmReport]:
    """Explain every alarm a (recorder-carrying) IPDS instance raised."""
    return explain_alarms(ipds.tables, ipds.flight_recorder, ipds.alarms)
