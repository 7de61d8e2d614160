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
from typing import Any, Dict, Optional, Tuple

from ..interp.interpreter import TamperSpec
from ..lang.errors import ReproError
from .engine import SessionSpec

PROTOCOL_VERSION = 1

_NONE = type(None)

#: Fields a submit spec may carry, mapped onto SessionSpec, with the
#: JSON types each accepts (tamper is handled separately — it arrives
#: as a nested object).
_SPEC_FIELDS: Dict[str, Tuple[type, ...]] = {
    "mode": (str,),
    "workload": (str, _NONE),
    "source": (str, _NONE),
    "source_name": (str, _NONE),
    "opt_level": (int,),
    "step_limit": (int, _NONE),
    "forensics": (bool,),
    "flight_recorder_depth": (int,),
    "record_trace": (bool,),
    "attack_index": (int, _NONE),
    "seed_prefix": (str,),
    "attack_model": (str,),
    "timed": (bool,),
    "trace_text": (str, _NONE),
}


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


def _typed(payload: Dict[str, Any], key: str, types: Tuple[type, ...]) -> Any:
    """``payload[key]``, which must be exactly one of ``types``: a
    value is never coerced, and a bool is not an int."""
    value = payload[key]
    if type(value) not in types:
        names = " or ".join("null" if kind is _NONE else kind.__name__ for kind in types)
        raise TypeError(f"{key} must be {names}, not {value!r}")
    return value


def tamper_from_payload(payload: Optional[Dict[str, Any]]) -> Optional[TamperSpec]:
    """A tamper object: integer ``trigger`` and ``value``, an
    ``address`` given as an integer or a string such as ``"0x1000"``,
    and an optional ``trigger_kind`` (default ``"read"``)."""
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError(f"tamper must be an object, got {payload!r}")
    try:
        address = _typed(payload, "address", (int, str))
        if isinstance(address, str):
            address = int(address, 0)
        return TamperSpec(
            trigger_kind=payload.get("trigger_kind", "read"),
            trigger_value=_typed(payload, "trigger", (int,)),
            address=address,
            value=_typed(payload, "value", (int,)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"bad tamper spec: {error}") from None


def spec_from_payload(payload: Any) -> SessionSpec:
    """Build and validate a :class:`SessionSpec` from a submit payload.

    Every field must have its declared JSON type (:data:`_SPEC_FIELDS`;
    ``inputs`` is a list of integers) and :meth:`SessionSpec.validate`
    checks the ranges, so a bad field is a :class:`ProtocolError` at
    submit, never a session that runs on a coerced value.
    ``read_files`` is forced off: the daemon resolves registered
    workload names and inline source only, never paths.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"spec must be an object, got {payload!r}")
    unknown = set(payload) - set(_SPEC_FIELDS) - {"inputs", "tamper"}
    if unknown:
        raise ProtocolError(f"unknown spec fields: {sorted(unknown)}")
    inputs = payload.get("inputs", ())
    if not isinstance(inputs, (list, tuple)) or not all(
        type(value) is int for value in inputs
    ):
        raise ProtocolError(f"inputs must be a list of ints, got {inputs!r}")
    tamper = tamper_from_payload(payload.get("tamper"))
    try:
        fields = {
            key: _typed(payload, key, types)
            for key, types in _SPEC_FIELDS.items()
            if key in payload
        }
        spec = SessionSpec(
            **fields, inputs=tuple(inputs), tamper=tamper, read_files=False
        )
        spec.validate()
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad session spec: {error}") from None
    return spec
