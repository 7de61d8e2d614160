"""Pluggable per-session alarm policies.

What should a deployed detector *do* when the IPDS raises an alarm?
The paper leaves this open; a service cannot.  An :class:`AlarmPolicy`
is invoked synchronously with every alarm the session's IPDS raises
(through the ``alarm_sink`` hook, i.e. at the exact committed branch
that contradicted the BSV) and once more when the session ends:

* :class:`LogPolicy` — record and keep going (the campaign default:
  observing every alarm is what Figure 7 measures);
* :class:`KillSessionPolicy` — terminate *this session's* execution at
  the first alarm, the halt-on-alarm deployment.  Only the alarmed
  session dies; the daemon and its other sessions are untouched;
* :class:`QuarantinePolicy` — write the session's committed control-flow
  trace plus an alarm manifest to a quarantine directory.  The trace is
  the exact jsonl format ``repro replay`` consumes, so a quarantined
  incident replays offline with identical alarms.

Policies are configured per session (the wire protocol carries a policy
spec; :func:`make_policy` builds the object), and must never change
*what* is detected — they act strictly after each alarm is recorded.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..runtime.replay import dump_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.ipds import Alarm
    from .engine import DetectionSession


@dataclass(frozen=True)
class PolicyAction:
    """One action a policy took (streamed to the client, kept on the
    session result)."""

    policy: str
    action: str
    detail: str = ""
    path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "policy": self.policy,
            "action": self.action,
            "detail": self.detail,
        }
        if self.path is not None:
            record["path"] = self.path
        return record


class AlarmPolicy:
    """Base policy: what to do when a session's IPDS raises an alarm.

    ``on_alarm`` runs synchronously inside the monitored execution
    (raising aborts it — that is how kill-session works); ``finish``
    runs after the session's execution ended, alarmed or not.  Both
    return an optional :class:`PolicyAction` for the audit stream.
    ``wants_trace`` asks the session to attach a trace recorder so the
    policy can persist a replayable trace at finish time.
    """

    name = "log"
    wants_trace = False

    def on_alarm(
        self, session: "DetectionSession", alarm: "Alarm"
    ) -> Optional[PolicyAction]:
        return None

    def finish(
        self, session: "DetectionSession"
    ) -> Optional[PolicyAction]:
        return None


class LogPolicy(AlarmPolicy):
    """Record every alarm and let the session run to completion."""

    name = "log"

    def on_alarm(
        self, session: "DetectionSession", alarm: "Alarm"
    ) -> Optional[PolicyAction]:
        return PolicyAction(
            policy=self.name, action="log", detail=str(alarm)
        )


class KillSessionPolicy(AlarmPolicy):
    """Terminate the alarmed session's execution at the first alarm."""

    name = "kill-session"

    def on_alarm(
        self, session: "DetectionSession", alarm: "Alarm"
    ) -> Optional[PolicyAction]:
        from .engine import SessionKilled

        session.record_policy_action(
            PolicyAction(
                policy=self.name,
                action="kill-session",
                detail=f"killed on first alarm: {alarm}",
            )
        )
        raise SessionKilled(f"policy {self.name}: {alarm}")


class QuarantinePolicy(AlarmPolicy):
    """Persist a replayable trace + alarm manifest for alarmed sessions.

    Writes ``<dir>/<session id>/trace.jsonl`` (the committed
    control-flow events of the monitored run, in the ``repro replay``
    format) and ``<dir>/<session id>/manifest.json`` (program identity,
    alarms, spec) — enough to reproduce the incident offline on another
    machine.  Clean sessions write nothing.
    """

    name = "quarantine"
    wants_trace = True

    def __init__(self, directory: str) -> None:
        if not directory:
            raise ValueError("quarantine policy needs a directory")
        self.directory = directory

    def on_alarm(
        self, session: "DetectionSession", alarm: "Alarm"
    ) -> Optional[PolicyAction]:
        return PolicyAction(
            policy=self.name, action="log", detail=str(alarm)
        )

    def finish(
        self, session: "DetectionSession"
    ) -> Optional[PolicyAction]:
        if not session.alarms:
            return None
        target = os.path.join(self.directory, session.session_id)
        os.makedirs(target, exist_ok=True)
        trace_path = os.path.join(target, "trace.jsonl")
        events = session.trace_events
        with open(trace_path, "w", encoding="utf-8") as handle:
            count = dump_trace(events, handle)
        manifest_path = os.path.join(target, "manifest.json")
        manifest = {
            "session": session.session_id,
            "program": session.program_name,
            "workload": session.spec.workload,
            "opt": session.spec.opt_level,
            "alarms": list(session.alarms),
            "events": count,
            "state": session.state.value,
        }
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return PolicyAction(
            policy=self.name,
            action="quarantine",
            detail=f"{count} events quarantined",
            path=trace_path,
        )


def make_policy(spec: Optional[Any], quarantine_dir: Optional[str] = None) -> AlarmPolicy:
    """Build a policy from a wire-protocol spec.

    Accepts ``None`` (log), a bare kind string, or a dict like
    ``{"kind": "quarantine", "dir": "..."}``.  ``quarantine_dir`` is
    the daemon-level default directory when the spec names none.
    """
    if spec is None:
        return LogPolicy()
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"bad policy spec {spec!r}")
    kind = spec.get("kind", "log")
    if kind == "log":
        return LogPolicy()
    if kind == "kill-session":
        return KillSessionPolicy()
    if kind == "quarantine":
        directory = spec.get("dir") or quarantine_dir
        if not directory:
            raise ValueError(
                "quarantine policy needs a 'dir' (or a daemon-level "
                "--quarantine-dir default)"
            )
        return QuarantinePolicy(directory)
    raise ValueError(
        f"unknown policy kind {kind!r} (known: log, kill-session, quarantine)"
    )
