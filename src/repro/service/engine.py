"""The session-scoped detection engine.

One :class:`DetectionSession` owns everything a single monitored
execution needs — compiled program (through the shared in-process compile
cache), IPDS instance, observer bus attachments (trace recorder,
progress hook), flight recorder, forensics, metrics, and the alarm
policy.  The CLI verbs (``run`` / ``attack`` / ``replay``) and the
``repro serve`` daemon both drive sessions through this one code path,
so a detection served over the socket is byte-identical to the same
detection run from the command line.

Three modes, mirroring the CLI verbs:

* ``run``    — one monitored execution of a program on given inputs;
* ``attack`` — the §6 recipe of
  :func:`repro.attacks.campaign.execute_attack` (a monitored clean run
  that must not alarm, then a monitored tampered run on the same
  inputs), with either an *explicit* tampering (``spec.tamper`` set:
  the ``repro attack`` shape) or an *indexed* campaign attack
  (``spec.attack_index`` set: inputs and target drawn from the seed,
  byte-identical to the serial campaign for the same seed prefix and
  index);
* ``replay`` — offline re-check of a recorded event trace.

The policy hook rides the IPDS ``alarm_sink``: it fires synchronously
at the committed branch that contradicted the BSV, *after* the alarm is
recorded, so policies can stream/kill/quarantine without ever changing
what is detected.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..attacks.campaign import (
    AttackExecution,
    CampaignConfig,
    execute_attack,
    record_ipds_metrics,
    run_attack_detailed,
)
from ..interp.interpreter import RunResult, TamperSpec
from ..lang.errors import ReproError
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import SpanRecord, TraceContext, Tracer
from ..pipeline import (
    ProtectedProgram,
    compile_program_cached,
    observed_run,
    resolve_target,
)
from ..runtime.flight_recorder import DEFAULT_DEPTH, FlightRecorder
from ..runtime.ipds import IPDS, Alarm
from ..runtime.observer import ProgressObserver
from ..runtime.replay import TraceRecorder, load_trace
from .policy import AlarmPolicy, LogPolicy, PolicyAction

#: Step budget of a run/attack session (the interpreter default) and of
#: an indexed campaign attack (the campaign default) — kept distinct so
#: session-driven executions match their CLI counterparts exactly.
RUN_STEP_LIMIT = 2_000_000
ATTACK_STEP_LIMIT = 500_000

#: Control-flow events between progress emissions / kill-flag checks.
PROGRESS_EVERY = 10_000


class SessionState(enum.Enum):
    """Lifecycle of one detection session."""

    CREATED = "created"
    RUNNING = "running"
    COMPLETED = "completed"  # ran to the end, no alarms
    ALARMED = "alarmed"      # ran to the end, IPDS raised >= 1 alarm
    KILLED = "killed"        # terminated early (kill policy / operator)
    FAILED = "failed"        # session error (bad program, step limit, ...)
    REAPED = "reaped"        # terminal + removed from the registry

    @property
    def terminal(self) -> bool:
        return self in (
            SessionState.COMPLETED,
            SessionState.ALARMED,
            SessionState.KILLED,
            SessionState.FAILED,
        )


class SessionKilled(ReproError):
    """Raised inside a monitored execution to terminate this session.

    Thrown by :class:`~repro.service.policy.KillSessionPolicy` from the
    alarm sink, or by the progress hook when an operator requested a
    kill.  The interpreter does not catch observer exceptions, so the
    execution aborts at the current committed event; only this session
    is affected.
    """


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to run one detection session.

    ``workload`` is a registered workload name or (when ``read_files``)
    a path to a mini-C file; ``source`` carries inline program text
    instead (daemon submissions).  Exactly the same resolution rule as
    the CLI verbs (:func:`repro.pipeline.resolve_target`).
    """

    mode: str = "run"  # run | attack | replay
    workload: Optional[str] = None
    source: Optional[str] = None
    source_name: Optional[str] = None
    entry: str = "main"
    inputs: Tuple[int, ...] = ()
    opt_level: int = 0
    step_limit: Optional[int] = None
    allow_unprotected: bool = False
    forensics: bool = False
    flight_recorder_depth: int = DEFAULT_DEPTH
    record_trace: bool = False
    read_files: bool = True
    # -- explicit tampering (the ``repro attack`` shape) --
    tamper: Optional[TamperSpec] = None
    # -- indexed campaign attack (the §6 recipe) --
    attack_index: Optional[int] = None
    seed_prefix: str = ""
    attack_model: str = "input"
    timed: bool = False
    # -- replay --
    trace_text: Optional[str] = None

    def validate(self) -> None:
        if self.mode not in ("run", "attack", "replay"):
            raise ValueError(f"unknown session mode {self.mode!r}")
        if self.source is None and not self.workload:
            raise ValueError("session needs a workload name or source text")
        if not 0 <= self.opt_level <= 3:
            raise ValueError(f"opt_level must be 0-3, got {self.opt_level}")
        if self.step_limit is not None and self.step_limit < 1:
            raise ValueError(f"step_limit must be >= 1, got {self.step_limit}")
        if self.flight_recorder_depth < 1:
            raise ValueError(
                "flight_recorder_depth must be >= 1, "
                f"got {self.flight_recorder_depth}"
            )
        if self.attack_index is not None and self.attack_index < 0:
            raise ValueError(f"attack_index must be >= 0, got {self.attack_index}")
        if self.attack_model not in ("input", "process"):
            raise ValueError(f"unknown attack model {self.attack_model!r}")
        if self.mode == "attack":
            if (self.tamper is None) == (self.attack_index is None):
                raise ValueError(
                    "attack session needs exactly one of an explicit "
                    "tamper spec or an attack index"
                )
            if self.attack_index is not None and self.source is not None:
                raise ValueError(
                    "indexed attacks need a registered workload "
                    "(its input generator), not inline source"
                )
        if self.mode == "replay" and self.trace_text is None:
            raise ValueError("replay session needs trace text")

    @property
    def effective_step_limit(self) -> int:
        if self.step_limit is not None:
            return self.step_limit
        if self.mode == "attack" and self.attack_index is not None:
            return ATTACK_STEP_LIMIT
        return RUN_STEP_LIMIT

    def resolve_program_source(self) -> Tuple[str, str]:
        """``(source text, name)`` for compilation."""
        if self.source is not None:
            return self.source, self.source_name or "<session>"
        assert self.workload is not None
        return resolve_target(self.workload, read_files=self.read_files)


@dataclass
class SessionResult:
    """The JSON-ready terminal record of one session."""

    session_id: str
    mode: str
    state: str
    detected: bool
    alarms: List[str] = field(default_factory=list)
    policy_actions: List[Dict[str, Any]] = field(default_factory=list)
    steps: int = 0
    status: Optional[str] = None
    outputs: List[int] = field(default_factory=list)
    tamper_fired: Optional[bool] = None
    control_flow_changed: Optional[bool] = None
    outcome: Optional[Dict[str, Any]] = None
    forensics: Optional[str] = None
    trace_event_count: int = 0
    error: Optional[str] = None
    #: Distributed-tracing linkage (trace_id / span_id of the session's
    #: root span) — present only when the session was given a parent
    #: trace context, so untraced payloads keep their protocol-v1 shape.
    trace: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "session": self.session_id,
            "mode": self.mode,
            "state": self.state,
            "detected": self.detected,
            "alarms": list(self.alarms),
            "policy_actions": list(self.policy_actions),
            "steps": self.steps,
            "trace_event_count": self.trace_event_count,
        }
        if self.status is not None:
            record["status"] = self.status
            record["outputs"] = list(self.outputs)
        if self.tamper_fired is not None:
            record["tamper_fired"] = self.tamper_fired
        if self.control_flow_changed is not None:
            record["control_flow_changed"] = self.control_flow_changed
        if self.outcome is not None:
            record["outcome"] = self.outcome
        if self.forensics is not None:
            record["forensics"] = self.forensics
        if self.error is not None:
            record["error"] = self.error
        if self.trace is not None:
            record["trace"] = dict(self.trace)
        return record


#: Event callback: ``emit(kind, payload)``.  The daemon routes these to
#: the submitting connection; the CLI runs with the no-op default.
EmitFn = Callable[[str, Dict[str, Any]], None]


class DetectionSession:
    """One detection session: program + IPDS + policy + observers.

    :meth:`execute` runs the session and lets exceptions propagate (the
    CLI path: argparse-level error handling applies); :meth:`run`
    catches them into the FAILED state and always returns a
    :class:`SessionResult` (the daemon path: one bad session must never
    take the server down).

    Every session records its span tree in its own :attr:`tracer`,
    which feeds the session's registry timers; ``trace_parent`` hangs
    the tree under a remote span (a daemon root or a client request).
    """

    def __init__(
        self,
        spec: SessionSpec,
        session_id: str = "s0",
        policy: Optional[AlarmPolicy] = None,
        emit: Optional[EmitFn] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace_parent: Optional[TraceContext] = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.session_id = session_id
        self.policy = policy if policy is not None else LogPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer(context=trace_parent, metrics=self.metrics)
        self.trace_parent = trace_parent
        self.session_span: Optional[SpanRecord] = None
        self._emit_fn = emit
        self.state = SessionState.CREATED
        self.alarms: List[str] = []
        self.policy_actions: List[PolicyAction] = []
        self.trace_events: List[object] = []
        self.result: Optional[SessionResult] = None
        self.error: Optional[str] = None
        self.events_seen = 0
        self._kill_requested = False
        # Live artifacts (populated by execute; the CLI renders these).
        self.program: Optional[ProtectedProgram] = None
        self.program_name: str = spec.source_name or spec.workload or "<session>"
        self.ipds: Optional[IPDS] = None
        self.run_result: Optional[RunResult] = None
        #: Both runs and the outcome of an attack session.
        self.attack: Optional[AttackExecution] = None
        self.reports: List[object] = []
        self.forensics_json: Optional[str] = None

    # -- plumbing ---------------------------------------------------------

    def emit(self, kind: str, payload: Dict[str, Any]) -> None:
        if self._emit_fn is not None:
            self._emit_fn(kind, payload)

    def request_kill(self) -> None:
        """Ask the session to stop at its next progress checkpoint."""
        self._kill_requested = True

    def record_policy_action(self, action: PolicyAction) -> None:
        self.policy_actions.append(action)
        self.metrics.increment("session.policy_actions")
        self.emit("policy", action.to_dict())

    def _set_state(self, state: SessionState) -> None:
        self.state = state
        self.emit("state", {"state": state.value})

    def _on_alarm(self, alarm: Alarm) -> None:
        rendered = str(alarm)
        self.alarms.append(rendered)
        self.metrics.increment("session.alarms")
        self.emit("alarm", {"alarm": rendered, "index": len(self.alarms)})
        action = self.policy.on_alarm(self, alarm)
        if action is not None:
            self.record_policy_action(action)

    def _on_progress(self, events_seen: int) -> None:
        self.events_seen = events_seen
        if self._kill_requested:
            raise SessionKilled("killed by operator request")
        self.emit("progress", {"events": events_seen})

    def _session_observers(
        self,
    ) -> Tuple[List[object], Optional[TraceRecorder], ProgressObserver]:
        """The passive bus riders every mode attaches: optional trace
        recorder (requested or required by the policy) + progress hook
        (last, so it sees each event after the recorder)."""
        observers: List[object] = []
        recorder: Optional[TraceRecorder] = None
        if self.spec.record_trace or self.policy.wants_trace:
            recorder = TraceRecorder()
            observers.append(recorder)
        progress = ProgressObserver(self._on_progress, PROGRESS_EVERY)
        return observers, recorder, progress

    def _new_flight_recorder(self) -> Optional[FlightRecorder]:
        if not self.spec.forensics:
            return None
        return FlightRecorder(self.spec.flight_recorder_depth)

    def _compile(self) -> ProtectedProgram:
        source, name = self.spec.resolve_program_source()
        self.program_name = name
        with self.tracer.span("session.compile", program=name) as span:
            program = compile_program_cached(source, name, self.spec.opt_level)
        self.metrics.observe_histogram(
            "session.compile_seconds", span.duration_us / 1e6
        )
        self.program = program
        return program

    def _explain(self) -> None:
        """Typed forensics for a recorder-carrying, alarmed IPDS."""
        ipds = self.ipds
        if ipds is None or ipds.flight_recorder is None or not ipds.detected:
            return
        from ..forensics import explain_ipds, reports_to_json

        self.reports = explain_ipds(ipds)
        self.forensics_json = reports_to_json(self.reports)

    # -- the three modes --------------------------------------------------

    def _execute_run(self) -> None:
        program = self._compile()
        ipds = program.new_ipds(
            allow_unprotected=self.spec.allow_unprotected,
            flight_recorder=self._new_flight_recorder(),
            alarm_sink=self._on_alarm,
        )
        self.ipds = ipds
        extra, recorder, progress = self._session_observers()
        with self.tracer.span("session.execute"):
            result = observed_run(
                program,
                observers=[ipds, *extra, progress],
                inputs=self.spec.inputs,
                entry=self.spec.entry,
                step_limit=self.spec.effective_step_limit,
            )
        self.run_result = result
        if recorder is not None:
            self.trace_events = recorder.events
        self.metrics.increment("interp.steps", result.steps)
        record_ipds_metrics(self.metrics, ipds)
        self._explain()

    def _execute_attack(self) -> None:
        from ..workloads.registry import get_workload

        spec = self.spec
        workload = None if spec.tamper is not None else get_workload(spec.workload)
        program = self._compile()
        extra, recorder, progress = self._session_observers()
        hooks = dict(
            # Built from the spec's wire fields; raises ValueError on
            # an unknown attack model.
            config=CampaignConfig(
                step_limit=spec.effective_step_limit,
                attack_model=spec.attack_model,
                opt_level=spec.opt_level,
                forensics=spec.forensics,
                flight_recorder_depth=spec.flight_recorder_depth,
                timed=spec.timed,
            ),
            metrics=self.metrics,
            # The recorder traces the attack run; the progress hook
            # rides the clean run too, so a kill never waits it out.
            extra_observers=extra,
            progress=progress,
            alarm_sink=self._on_alarm,
        )
        if workload is None:
            with self.tracer.span("session.attack"):
                execution = execute_attack(
                    program, spec.inputs, spec.tamper, entry=spec.entry, **hooks
                )
        else:
            with self.tracer.span(
                "session.attack",
                workload=workload.name,
                attack_index=spec.attack_index,
            ):
                execution = run_attack_detailed(
                    program,
                    workload,
                    spec.attack_index,
                    seed_prefix=spec.seed_prefix,
                    **hooks,
                )
        self.attack = execution
        self.ipds = execution.ipds
        self.run_result = execution.attacked
        self.reports = list(execution.reports)
        if recorder is not None:
            self.trace_events = recorder.events
        if self.reports:
            from ..forensics import reports_to_json

            self.forensics_json = reports_to_json(self.reports)

    def _execute_replay(self) -> None:
        program = self._compile()
        ipds = program.new_ipds(
            allow_unprotected=self.spec.allow_unprotected,
            flight_recorder=self._new_flight_recorder(),
            alarm_sink=self._on_alarm,
        )
        self.ipds = ipds
        events = list(load_trace(io.StringIO(self.spec.trace_text)))
        self.trace_events = events
        with self.tracer.span("session.replay"):
            ipds.run(events)
        record_ipds_metrics(self.metrics, ipds)
        self._explain()

    # -- driving ----------------------------------------------------------

    def execute(self) -> SessionResult:
        """Run to a terminal state; exceptions (other than a session
        kill) propagate to the caller."""
        self._set_state(SessionState.RUNNING)
        self.metrics.increment("session.started")
        killed = False
        try:
            with self.tracer.span(
                "session",
                session=self.session_id,
                mode=self.spec.mode,
                program=self.program_name,
            ) as span:
                self.session_span = span
                if self.spec.mode == "run":
                    self._execute_run()
                elif self.spec.mode == "replay":
                    self._execute_replay()
                else:
                    self._execute_attack()
        except SessionKilled as kill:
            killed = True
            self.error = str(kill)
        wall = span.duration_us / 1e6
        self.metrics.observe_histogram("session.wall_seconds", wall)
        if self.run_result is not None and wall > 0:
            self.metrics.observe_histogram(
                "session.steps_per_sec", self.run_result.steps / wall
            )
        if killed:
            self._set_state(SessionState.KILLED)
        elif self.alarms:
            self._set_state(SessionState.ALARMED)
        else:
            self._set_state(SessionState.COMPLETED)
        self._finish_policy()
        self.result = self._build_result()
        self.emit("result", {"result": self.result.to_dict()})
        return self.result

    def run(self) -> SessionResult:
        """The daemon entry point: never raises."""
        try:
            return self.execute()
        except Exception as error:  # noqa: BLE001 - daemon isolation boundary
            self.error = f"{type(error).__name__}: {error}"
            self.metrics.increment("session.failed")
            self._set_state(SessionState.FAILED)
            self._finish_policy()
            self.result = self._build_result()
            self.emit("result", {"result": self.result.to_dict()})
            return self.result

    def _finish_policy(self) -> None:
        try:
            action = self.policy.finish(self)
        except Exception as error:  # noqa: BLE001 - policy must not kill daemon
            self.emit(
                "error",
                {"error": f"policy finish failed: {error}"},
            )
            return
        if action is not None:
            self.record_policy_action(action)

    @property
    def detected(self) -> bool:
        return bool(self.alarms)

    def _build_result(self) -> SessionResult:
        result = SessionResult(
            session_id=self.session_id,
            mode=self.spec.mode,
            state=self.state.value,
            detected=self.detected,
            alarms=list(self.alarms),
            policy_actions=[a.to_dict() for a in self.policy_actions],
            trace_event_count=len(self.trace_events),
            error=self.error,
        )
        if self.run_result is not None:
            result.steps = self.run_result.steps
            result.status = self.run_result.status.value
            result.outputs = list(self.run_result.outputs)
        if self.attack is not None:
            outcome = self.attack.outcome
            result.tamper_fired = outcome.fired
            if self.spec.tamper is not None:
                result.control_flow_changed = outcome.control_flow_changed
            else:
                result.outcome = outcome.to_record(self.spec.workload)
        result.forensics = self.forensics_json
        if self.session_span is not None:
            # Finished spans stay mutable until export; stamp the final
            # program name and terminal state onto the session span.
            self.session_span.set_attributes(
                program=self.program_name,
                state=self.state.value,
                detected=self.detected,
            )
            if self.trace_parent is not None:
                result.trace = {
                    "trace_id": self.session_span.trace_id,
                    "span_id": self.session_span.span_id,
                }
        return result
