"""IPDS runtime: event types, the observer bus, BSV state, the checker."""

from .bsv import BSVFrame
from .events import BranchEvent, CallEvent, Event, ReturnEvent
from .flight_recorder import (
    DEFAULT_DEPTH,
    BranchRecord,
    BSVTransition,
    FlightRecorder,
    FrameRecord,
)
from .ipds import IPDS, Alarm, IPDSError, IPDSStats
from .observer import ExecutionObserver, ObserverBus
from .replay import (
    TraceFormatError,
    TraceRecorder,
    dump_trace,
    event_from_json,
    event_to_json,
    load_trace,
)

__all__ = [
    "Alarm",
    "BSVFrame",
    "BSVTransition",
    "BranchEvent",
    "BranchRecord",
    "CallEvent",
    "DEFAULT_DEPTH",
    "Event",
    "ExecutionObserver",
    "FlightRecorder",
    "FrameRecord",
    "IPDS",
    "IPDSError",
    "IPDSStats",
    "ObserverBus",
    "ReturnEvent",
    "TraceFormatError",
    "TraceRecorder",
    "dump_trace",
    "event_from_json",
    "event_to_json",
    "load_trace",
]
