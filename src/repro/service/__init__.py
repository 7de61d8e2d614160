"""IPDS as a service: the long-lived asynchronous detection daemon.

The paper's deployment story is a detector that runs *continuously*
alongside the program it protects; this package turns the batch
reproduction into that shape.  ``repro serve`` starts one process that
multiplexes many concurrent detection sessions:

* :mod:`engine`   — :class:`DetectionSession`, the session-scoped core
  shared by the CLI verbs and the daemon (observer bus, IPDS, flight
  recorder, forensics, policy hook);
* :mod:`registry` — the session registry with lifecycle states
  (created → running → alarmed/completed/killed/failed → reaped);
* :mod:`policy`   — pluggable per-session alarm policies
  (log / kill-session / quarantine-trace-to-disk);
* :mod:`protocol` — the line-delimited-JSON wire protocol;
* :mod:`daemon`   — the asyncio server multiplexing sessions over one
  socket, with live metrics export;
* :mod:`client`   — a small blocking client for scripts, tests and CI.

Compiled tables are shared across sessions through the in-process
cache in :mod:`repro.parallel.cache` — N sessions on the same workload
compile once (single-flight), and the daemon exports the hit rate.
"""

from .daemon import DetectionDaemon
from .engine import (
    DetectionSession,
    SessionKilled,
    SessionResult,
    SessionSpec,
    SessionState,
)
from .client import ServeClient
from .policy import (
    AlarmPolicy,
    KillSessionPolicy,
    LogPolicy,
    PolicyAction,
    QuarantinePolicy,
    make_policy,
)
from .protocol import PROTOCOL_VERSION, ProtocolError
from .registry import SessionRegistry

__all__ = [
    "AlarmPolicy",
    "DetectionDaemon",
    "DetectionSession",
    "KillSessionPolicy",
    "LogPolicy",
    "PROTOCOL_VERSION",
    "PolicyAction",
    "ProtocolError",
    "QuarantinePolicy",
    "ServeClient",
    "SessionKilled",
    "SessionRegistry",
    "SessionResult",
    "SessionSpec",
    "SessionState",
    "make_policy",
]
