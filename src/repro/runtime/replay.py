"""Event-trace serialization and offline replay.

The IPDS is an online checker, but its event stream is small and
serializable — which enables an audit-log deployment style: record the
committed control-flow events cheaply, re-check them offline (or on
another machine) against the program's tables with
``IPDS(tables).run(events)``.  Alarms from a replay are identical to
online alarms because the checker is deterministic.

Format: one JSON object per line (`jsonl`), tagged by event kind.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, List

from ..lang.errors import ReproError
from .events import BranchEvent, CallEvent, Event, ReturnEvent
from .observer import ExecutionObserver


class TraceFormatError(ReproError):
    """Malformed serialized trace."""


def event_to_json(event: Event) -> str:
    """One event as a compact JSON line (no trailing newline)."""
    to_json_dict = getattr(event, "to_json_dict", None)
    if to_json_dict is None:
        raise TraceFormatError(f"unknown event {event!r}")
    return json.dumps(to_json_dict())


def event_from_json(line: str) -> Event:
    """Parse one JSON line back into an event.

    Field types are checked, never coerced: ``fn`` must be a string, a
    branch's ``pc`` an integer and its ``t`` 0, 1 or a boolean.  The
    IPDS looks a branch up by its PC, so a PC of any other type would
    replay as a branch with nothing to check — a silently clean trace.
    """
    try:
        record = json.loads(line)
        kind = record["k"]
        if kind in ("call", "ret", "br"):
            name = record["fn"]
            if not isinstance(name, str):
                raise TypeError(f"fn must be a string, not {name!r}")
            if kind == "call":
                return CallEvent(name)
            if kind == "ret":
                return ReturnEvent(name)
            pc, taken = record["pc"], record["t"]
            if type(pc) is not int:  # a bool is an int, but not a PC
                raise TypeError(f"pc must be an integer, not {pc!r}")
            if type(taken) not in (int, bool) or taken not in (0, 1):
                raise TypeError(f"t must be 0, 1 or a boolean, not {taken!r}")
            return BranchEvent(name, pc, bool(taken))
    except (ValueError, KeyError, TypeError, RecursionError) as error:
        # ValueError covers JSONDecodeError and over-long integers.
        raise TraceFormatError(f"bad trace line {line!r}: {error}") from None
    raise TraceFormatError(f"unknown event kind {record['k']!r}")


def dump_trace(events: Iterable[Event], stream: IO[str]) -> int:
    """Write events as jsonl; returns the event count."""
    count = 0
    for event in events:
        stream.write(event_to_json(event))
        stream.write("\n")
        count += 1
    return count


def read_trace(path: str) -> str:
    """The text of a recorded trace file, as both trace verbs read it:
    bytes that are not UTF-8 raise :class:`TraceFormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as error:
        raise TraceFormatError(f"{path} is not a text trace: {error}") from None


def load_trace(stream: IO[str]) -> Iterator[Event]:
    """Stream events back from jsonl (lazy)."""
    for line in stream:
        line = line.strip()
        if line:
            yield event_from_json(line)


class TraceRecorder(ExecutionObserver):
    """An observer that accumulates the stream for later dumping."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_call(self, event: CallEvent) -> None:
        self.events.append(event)

    def on_return(self, event: ReturnEvent) -> None:
        self.events.append(event)

    def on_branch(self, event: BranchEvent) -> None:
        self.events.append(event)
