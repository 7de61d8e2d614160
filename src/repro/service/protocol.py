"""The ``repro serve`` wire protocol: line-delimited JSON.

One JSON object per ``\\n``-terminated line, both directions.  Client
requests carry an ``op`` and an optional client-chosen ``id`` that the
daemon echoes on every message the request produces, so one connection
can interleave many in-flight sessions.

Requests::

    {"op": "hello", "id": ...}
    {"op": "submit", "id": ..., "spec": {...}, "policy": "log" | {...}}
    {"op": "sessions", "id": ...}
    {"op": "metrics", "id": ...}
    {"op": "kill", "id": ..., "session": "s3"}
    {"op": "reap", "id": ..., "session": "s3"}
    {"op": "shutdown", "id": ...}

Daemon messages are tagged by ``event``: ``hello``, ``accepted`` (the
session id a submit was assigned), ``state`` / ``progress`` / ``alarm``
/ ``policy`` (streamed while a session runs), ``result`` (terminal
:class:`~repro.service.engine.SessionResult`), ``sessions``,
``metrics``, ``killed``, ``reaped``, ``shutdown`` and ``error``.

The submit ``spec`` mirrors :class:`~repro.service.engine.SessionSpec`
(mode / workload / source / inputs / opt / forensics / tamper /
attack_index / ...); :func:`spec_from_payload` validates it.  Daemon
submissions resolve workload *names only* — the daemon never reads
program files on a client's behalf.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..interp.interpreter import TamperSpec
from ..lang.errors import ReproError
from .engine import SessionSpec

PROTOCOL_VERSION = 1

#: Fields a submit spec may carry, mapped onto SessionSpec (tamper is
#: handled separately — it arrives as a nested object).
_SPEC_FIELDS = (
    "mode",
    "workload",
    "source",
    "source_name",
    "entry",
    "opt_level",
    "step_limit",
    "allow_unprotected",
    "forensics",
    "flight_recorder_depth",
    "record_trace",
    "attack_index",
    "seed_prefix",
    "attack_model",
    "timed",
    "trace_text",
)


class ProtocolError(ReproError):
    """Malformed request (bad JSON, unknown op, invalid spec)."""


def encode(message: Dict[str, Any]) -> bytes:
    """One message as a compact, newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError`."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"bad request line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"request must be a JSON object, got {message!r}")
    if not isinstance(message.get("op"), str):
        raise ProtocolError("request needs a string 'op'")
    return message


def tamper_from_payload(payload: Optional[Dict[str, Any]]) -> Optional[TamperSpec]:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError(f"tamper must be an object, got {payload!r}")
    try:
        address = payload["address"]
        if isinstance(address, str):
            address = int(address, 0)
        return TamperSpec(
            trigger_kind=payload.get("trigger_kind", "read"),
            trigger_value=int(payload["trigger"]),
            address=int(address),
            value=int(payload["value"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"bad tamper spec: {error}") from None


def spec_from_payload(payload: Any) -> SessionSpec:
    """Build and validate a :class:`SessionSpec` from a submit payload.

    ``read_files`` is forced off: the daemon resolves registered
    workload names and inline source only, never paths.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"spec must be an object, got {payload!r}")
    unknown = set(payload) - set(_SPEC_FIELDS) - {"inputs", "tamper"}
    if unknown:
        raise ProtocolError(f"unknown spec fields: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {
        key: payload[key] for key in _SPEC_FIELDS if key in payload
    }
    inputs = payload.get("inputs", ())
    if not isinstance(inputs, (list, tuple)) or not all(
        isinstance(value, int) for value in inputs
    ):
        raise ProtocolError(f"inputs must be a list of ints, got {inputs!r}")
    kwargs["inputs"] = tuple(inputs)
    kwargs["tamper"] = tamper_from_payload(payload.get("tamper"))
    kwargs["read_files"] = False
    try:
        spec = SessionSpec(**kwargs)
        spec.validate()
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad session spec: {error}") from None
    return spec
