"""Simulated attack campaigns — the Figure 7 methodology.

Per the paper (§6): each server program is attacked 100 times,
independently.  Every attack tampers one randomly selected memory word
at the program's vulnerability point — a live *stack* slot for buffer
overflows, an arbitrary data address (globals included) for format
strings.  For each attack we record whether the tampering changed the
program's control flow at all, and whether the IPDS detected it.

Attack recipe (two deterministic runs per attack):

1. **clean run** — capture the reference branch trace and how many
   inputs the session consumes;
2. **attack run** — same inputs plus the tampering, monitored by the
   IPDS.  The target word is drawn when the trigger fires, from the
   live attack surface at that moment (the attacker casing the binary
   on their own machine, as the paper assumes); an attack whose
   trigger never fires draws from the globals after the run.

Zero false positives is *asserted*, not just measured: the clean run is
also monitored, and any alarm there fails the campaign loudly.
:func:`clean_run` is that check, the one definition of a clean run.

:func:`execute_attack` is the one implementation of the recipe.  A
seeded campaign attack (:func:`run_attack_detailed`) only derives its
inputs and its draw; ``repro attack``, the daemon's attack sessions and
the n-gram comparison run through the same function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..interp.interpreter import LazyTamper, RunResult, RunStatus, Slot, TamperSpec
from ..interp.state import MemoryMap
from ..ir.function import IRModule
from ..lang.errors import ReproError
from ..observability.metrics import MetricsRegistry
from ..pipeline import ProtectedProgram, monitored_run
from ..runtime.flight_recorder import DEFAULT_DEPTH, FlightRecorder
from ..runtime.ipds import IPDS
from ..workloads.registry import Workload

#: Values an attacker plausibly writes: flag flips, sign flips, and the
#: large garbage real overflow payloads leave behind (0x41414141 is the
#: classic "AAAA" fill) — single-word memory-corruption payloads.
TAMPER_VALUES = (0, 1, -1, 2, 7, 4242, -999, 65536, 0x41414141)


def attack_seed(seed_prefix: str, workload_name: str, index: int) -> str:
    """The seed string of attack ``index`` against one workload.

    Every random choice an attack makes (inputs, trigger, target word,
    payload) flows from this one string, which depends only on the
    campaign's ``seed_prefix``, the workload, and the attack index —
    never on execution order, process identity, or module-level RNG
    state.  That purity is what lets the sharded engine in
    :mod:`repro.parallel.engine` split a campaign across processes and
    still merge outcomes identical to the serial run.
    """
    return f"{seed_prefix}{workload_name}:{index}"


def attack_rng(
    seed_prefix: str, workload_name: str, index: int
) -> random.Random:
    """An explicit, reproducible RNG for one attack."""
    return random.Random(attack_seed(seed_prefix, workload_name, index))


class CampaignError(ReproError):
    """A campaign-level invariant broke (e.g. a false positive)."""


@dataclass(frozen=True)
class CampaignConfig:
    """How every attack of a campaign runs — validated once, here.

    Picklable, so pool shards receive it as is.  ``opt_level`` picks
    the compiled program (every shard attacks the compile cache's build
    at that level); the rest shape each attack:

    * ``step_limit`` bounds both runs of an attack (its default is
      also the budget of the daemon's indexed attacks);
    * ``attack_model`` selects the threat model (``"input"`` or
      ``"process"``, see :func:`run_attack_detailed`);
    * ``forensics`` flight-records the attack run and explains its
      alarms, keeping ``flight_recorder_depth`` branches;
    * ``timed`` attaches the timing model to the attack run and
      records its cycle count.  It is a passive bus consumer: detection
      results are identical with it on or off.
    """

    step_limit: int = 500_000
    attack_model: str = "input"
    opt_level: int = 0
    forensics: bool = False
    flight_recorder_depth: int = DEFAULT_DEPTH
    timed: bool = False

    def __post_init__(self) -> None:
        if self.attack_model not in ("input", "process"):
            raise ValueError(f"unknown attack model {self.attack_model!r}")
        if not 0 <= self.opt_level <= 3:
            raise ValueError(f"opt_level must be 0-3, got {self.opt_level}")
        if self.step_limit < 1:
            raise ValueError(f"step_limit must be >= 1, got {self.step_limit}")
        if self.flight_recorder_depth < 1:
            raise ValueError(
                "flight_recorder_depth must be >= 1, "
                f"got {self.flight_recorder_depth}"
            )


DEFAULT_CONFIG = CampaignConfig()


def clean_run(
    program: ProtectedProgram,
    inputs: Sequence[int],
    *,
    step_limit: int = DEFAULT_CONFIG.step_limit,
    observers: Sequence[object] = (),
) -> Tuple[RunResult, IPDS]:
    """A monitored run that must not alarm — the one definition of
    "clean".  An alarm raises :class:`CampaignError`, so the paper's
    zero-false-positive claim is checked, not assumed, wherever a run
    is supposed to be clean: the attack recipe's reference run and the
    n-gram comparison's training and test sessions.  ``observers`` ride
    the run behind the IPDS.
    """
    result, ipds = monitored_run(
        program,
        inputs=inputs,
        step_limit=step_limit,
        observers=observers,
    )
    if ipds.detected:
        raise CampaignError(
            f"false positive on clean run of {program.source_name}: "
            f"{ipds.alarms[0]}"
        )
    return result, ipds


def record_ipds_metrics(metrics: MetricsRegistry, ipds: IPDS) -> None:
    """The standard per-run IPDS counter block: every monitored run
    (both runs of an attack, a run or replay session) counts through
    it, so ``ipds.alarms`` covers every front end."""
    metrics.increment("ipds.events", ipds.stats.events)
    metrics.increment("ipds.checks", ipds.stats.checks)
    metrics.increment("ipds.alarms", len(ipds.alarms))


@dataclass(frozen=True)
class AttackOutcome:
    """One attack's classification."""

    index: int
    trigger_read: int
    address: int
    target_label: str  # "<fn>.<var>" or "<global>.<var>"
    value: int
    fired: bool
    control_flow_changed: bool
    detected: bool
    clean_status: RunStatus
    attack_status: RunStatus
    #: Forensic causal chains for the detected alarms — populated only
    #: when the campaign runs with ``forensics=True``; empty otherwise,
    #: so forensics-off campaigns stay byte-identical to before.
    explanations: Tuple[str, ...] = ()
    #: Rendered alarm strings from the attack run's IPDS, in raise
    #: order.  Purely observational (derived from state the run already
    #: produced), so recording them never perturbs an outcome — the
    #: timing-equivalence goldens pin these byte-for-byte.
    alarms: Tuple[str, ...] = ()
    #: Modeled cycle count of the monitored attack run — populated only
    #: when the campaign runs ``timed``; None otherwise, so
    #: timing-off campaigns stay byte-identical to before.
    cycles: Optional[int] = None
    #: Per-alarm compile-time proof reasons ("subsumption", "kill",
    #: "interproc", "feasible-path", ... or "unexplained" when the
    #: forensics join degraded) — one entry per alarm report, in raise
    #: order.  Populated only on forensics campaigns; the observatory
    #: (``repro obs``) aggregates these into Figure-7-style
    #: explained-correlation histograms.
    proof_reasons: Tuple[str, ...] = ()
    #: Frame stack at the tamper moment, outer→inner ``(function,
    #: block, resume index, frame base)`` — the static detectability
    #: prover's program points.  ``None`` when the tamper never fired.
    #: Carried on the dataclass (so sharded merges keep it) but not
    #: serialized by default: see ``to_record``.
    tamper_site: Optional[Tuple[Tuple[str, str, int, int], ...]] = None

    def to_record(self, workload: str, include_site: bool = False) -> dict:
        """The outcome as a plain JSON-ready record.

        The one shape every sink shares — campaign ``--trace-out``
        JSONL logs and the daemon's per-session result events — so
        outcome logs are byte-comparable across front ends.
        """
        record = {
            "workload": workload,
            "index": self.index,
            "trigger_read": self.trigger_read,
            "address": self.address,
            "target": self.target_label,
            "value": self.value,
            "fired": self.fired,
            "control_flow_changed": self.control_flow_changed,
            "detected": self.detected,
            "clean_status": self.clean_status.value,
            "attack_status": self.attack_status.value,
        }
        # Keys appear only on forensics / timed campaigns, so logs
        # from campaigns without them stay byte-identical to before.
        if self.explanations:
            record["explanations"] = list(self.explanations)
        if self.proof_reasons:
            record["proof_reasons"] = list(self.proof_reasons)
        if self.cycles is not None:
            record["cycles"] = self.cycles
        # Opt-in for the same reason: the detectability validator asks
        # for the site explicitly; every other sink's logs stay
        # byte-identical with the field present on the dataclass.
        if include_site and self.tamper_site is not None:
            record["tamper_site"] = [list(frame) for frame in self.tamper_site]
        return record


def control_flow_changed(clean: RunResult, attacked: RunResult) -> bool:
    """Did an attack change the program's control flow?

    The one definition every front end uses: the attacked run committed
    a different branch trace, or it ended differently (a tamper that
    only turns a division into ``DIV_BY_ZERO`` changes no branch before
    the fault, yet the process no longer finishes the way it did).
    """
    return (
        attacked.branch_trace != clean.branch_trace
        or attacked.status is not clean.status
    )


@dataclass
class WorkloadResult:
    """Aggregated Figure-7 numbers for one workload."""

    workload: str
    vuln_kind: str
    attacks: List[AttackOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.attacks)

    @property
    def changed(self) -> int:
        return sum(1 for a in self.attacks if a.control_flow_changed)

    @property
    def detected(self) -> int:
        return sum(1 for a in self.attacks if a.detected)

    @property
    def pct_changed(self) -> float:
        """Share of tamperings that changed control flow (Fig. 7, left bar)."""
        return 100.0 * self.changed / self.total if self.total else 0.0

    @property
    def pct_detected(self) -> float:
        """Share of all tamperings detected (Fig. 7, right bar)."""
        return 100.0 * self.detected / self.total if self.total else 0.0

    @property
    def pct_detected_of_changed(self) -> float:
        """Detection rate among control-flow-changing tamperings."""
        return 100.0 * self.detected / self.changed if self.changed else 0.0


@dataclass
class CampaignSummary:
    """All workloads' results plus the paper's headline averages."""

    results: List[WorkloadResult]

    @property
    def avg_pct_changed(self) -> float:
        values = [r.pct_changed for r in self.results]
        return sum(values) / len(values) if values else 0.0

    @property
    def avg_pct_detected(self) -> float:
        values = [r.pct_detected for r in self.results]
        return sum(values) / len(values) if values else 0.0

    @property
    def avg_pct_detected_of_changed(self) -> float:
        if not self.avg_pct_changed:
            return 0.0
        return 100.0 * self.avg_pct_detected / self.avg_pct_changed


class TargetDraw:
    """The tamper target of one attack, drawn when its trigger fires.

    The ``choose`` hook of a :class:`LazyTamper`: it takes the live
    stack words at the trigger, adds every global word when
    ``widen`` (what a format string or a co-resident process reaches),
    falls back to the globals alone when that leaves nothing, and draws
    the word and then the payload from ``rng``.  :meth:`drawn` makes
    the same draw from the globals after a run whose trigger never
    fired, so every attack names a target.
    """

    def __init__(self, rng: random.Random, widen: bool) -> None:
        self.rng = rng
        self.widen = widen
        #: ``(address, "<owner>.<var>", value)`` once drawn.
        self.target: Optional[Tuple[int, str, int]] = None

    def __call__(self, live: List[Slot], memory: MemoryMap) -> Tuple[int, int]:
        candidates = list(live)
        if self.widen:
            candidates.extend(memory.global_slots())
        if not candidates:
            candidates = memory.global_slots()
        address, owner, var_name = self.rng.choice(candidates)
        value = self.rng.choice(TAMPER_VALUES)
        self.target = (address, f"{owner}.{var_name}", value)
        return address, value

    def drawn(self, module: IRModule) -> Tuple[int, str, int]:
        if self.target is None:
            self([], MemoryMap(module))
        return self.target


@dataclass
class AttackExecution:
    """Every artifact of one attack (its two runs).

    :func:`run_attack` returns only the :class:`AttackOutcome`;
    session-scoped callers (the detection daemon's
    :class:`~repro.service.engine.DetectionSession`, ``repro attack``)
    need the live objects too — both runs, the monitored IPDS, the
    flight recorder, the typed forensics reports — so they can print,
    stream alarms and quarantine traces without re-running anything.
    """

    outcome: AttackOutcome
    clean: "RunResult"
    attacked: "RunResult"
    ipds: "IPDS"
    flight_recorder: Optional[FlightRecorder] = None
    #: Typed forensics reports (populated when ``forensics`` was on and
    #: the attack was detected; the outcome's ``explanations`` are the
    #: rendered causal chains of exactly these reports).
    reports: List[object] = field(default_factory=list)


def execute_attack(
    program: ProtectedProgram,
    inputs: Sequence[int],
    tamper: Union[TamperSpec, Callable[[RunResult], LazyTamper]],
    *,
    index: int = 0,
    config: CampaignConfig = DEFAULT_CONFIG,
    metrics: Optional[MetricsRegistry] = None,
    extra_observers: Sequence[object] = (),
    alarm_sink=None,
    progress: Optional[object] = None,
) -> AttackExecution:
    """The attack recipe: a clean run, then one tampered run on the
    same inputs, both monitored by the IPDS.  An alarm on the clean run
    raises :class:`CampaignError`.

    ``tamper`` is a fixed :class:`TamperSpec` (``repro attack``), or a
    function of the clean run returning the :class:`LazyTamper` to fire
    (a drawn attack: its trigger depends on how far the clean run got,
    and its :class:`TargetDraw` names the word it hit).

    The hooks never perturb the outcome:

    * ``metrics`` accumulates the campaign counter block (executions,
      steps, IPDS events and checks of both runs, outcome tallies);
    * ``extra_observers`` ride the monitored attack run's bus behind
      the IPDS and any timing model (trace recorders, syscall capture);
    * ``progress`` rides *both* runs, last on each bus (the daemon's
      progress and kill hook: a kill raised from it stops the clean run
      as promptly as the attack run);
    * ``alarm_sink`` is invoked with each alarm of the attack run as
      the IPDS raises it — the online policy hook.  A sink that raises
      aborts the attack run (the kill-session policy); the exception
      propagates to the caller.
    """
    # 1. Clean monitored run: reference trace + zero-FP assertion.
    hooks = (progress,) if progress is not None else ()
    clean, clean_ipds = clean_run(
        program,
        inputs,
        step_limit=config.step_limit,
        observers=hooks,
    )
    if not isinstance(tamper, TamperSpec):
        tamper = tamper(clean)

    # 2. The attack run (flight-recorded when forensics is on, timed
    # when the campaign is).
    recorder = (
        FlightRecorder(config.flight_recorder_depth)
        if config.forensics
        else None
    )
    timing = None
    if config.timed:
        from ..cpu.ipds_hw import IPDSHardwareModel
        from ..cpu.pipeline import TimingModel
        from ..cpu.simulator import TimingObserver

        timing = TimingModel(ipds=IPDSHardwareModel(program.tables))
        observers = (TimingObserver(timing), *extra_observers, *hooks)
    else:
        observers = (*extra_observers, *hooks)
    attacked, ipds = monitored_run(
        program,
        inputs=inputs,
        tamper=tamper,
        step_limit=config.step_limit,
        flight_recorder=recorder,
        observers=observers,
        alarm_sink=alarm_sink,
    )
    if isinstance(tamper, TamperSpec):
        address, target_label, value = tamper.address, f"{tamper.address:#x}", tamper.value
    else:
        address, target_label, value = tamper.choose.drawn(program.module)
    reports: List[object] = []
    explanations: Tuple[str, ...] = ()
    proof_reasons: Tuple[str, ...] = ()
    if config.forensics and ipds.detected:
        from ..forensics import explain_ipds

        reports = explain_ipds(ipds)
        explanations = tuple(report.causal_chain() for report in reports)
        proof_reasons = tuple(
            report.provenance.reason
            if report.provenance is not None
            else "unexplained"
            for report in reports
        )

    changed = control_flow_changed(clean, attacked)
    if metrics is not None:
        metrics.increment("campaign.attacks")
        metrics.increment("campaign.executions", 2)  # clean + attack
        metrics.increment("interp.steps", clean.steps + attacked.steps)
        record_ipds_metrics(metrics, clean_ipds)
        record_ipds_metrics(metrics, ipds)
        metrics.increment("campaign.tamper_fired", int(attacked.tamper_fired))
        metrics.increment("campaign.control_flow_changed", int(changed))
        metrics.increment("campaign.detected", int(ipds.detected))
    outcome = AttackOutcome(
        index=index,
        trigger_read=tamper.trigger_value,
        address=address,
        target_label=target_label,
        value=value,
        fired=attacked.tamper_fired,
        control_flow_changed=changed,
        detected=ipds.detected,
        clean_status=clean.status,
        attack_status=attacked.status,
        explanations=explanations,
        alarms=tuple(str(alarm) for alarm in ipds.alarms),
        cycles=timing.stats.cycles if timing is not None else None,
        proof_reasons=proof_reasons,
        tamper_site=attacked.tamper_site,
    )
    return AttackExecution(
        outcome=outcome,
        clean=clean,
        attacked=attacked,
        ipds=ipds,
        flight_recorder=recorder,
        reports=reports,
    )


def run_attack(
    program: ProtectedProgram,
    workload: Workload,
    index: int,
    seed_prefix: str = "",
    config: CampaignConfig = DEFAULT_CONFIG,
    metrics: Optional[MetricsRegistry] = None,
) -> AttackOutcome:
    """Run attack ``index`` against one workload; see
    :func:`run_attack_detailed`."""
    return run_attack_detailed(
        program,
        workload,
        index,
        seed_prefix=seed_prefix,
        config=config,
        metrics=metrics,
    ).outcome


def run_attack_detailed(
    program: ProtectedProgram,
    workload: Workload,
    index: int,
    *,
    seed_prefix: str = "",
    config: CampaignConfig = DEFAULT_CONFIG,
    metrics: Optional[MetricsRegistry] = None,
    extra_observers: Sequence[object] = (),
    alarm_sink=None,
    progress: Optional[object] = None,
) -> AttackExecution:
    """Run one independent, seeded attack through :func:`execute_attack`.

    Only the inputs and the draw are derived here, all from
    :func:`attack_rng`, so results never depend on shared RNG state.
    ``config.attack_model`` selects the paper's §3 threat models:

    * ``"input"`` (model 1, the Figure 7 default) — tampering fires
      when a malicious *input* is consumed (a read the clean run
      reached), and targets what that vulnerability class reaches
      (live stack for overflows, any data address for format strings);
    * ``"process"`` (model 2) — a malicious co-resident process snoops
      and tampers the victim's memory at an *arbitrary moment*
      (step-count trigger) and an arbitrary data address.
    """
    rng = attack_rng(seed_prefix, workload.name, index)
    inputs = workload.make_inputs(rng)
    lowest = workload.min_trigger_read

    def draw(clean: RunResult) -> LazyTamper:
        if config.attack_model == "process":
            kind, trigger = "step", rng.randint(1, max(2, clean.steps - 1))
        else:
            kind = "read"
            trigger = rng.randint(lowest, max(lowest, clean.reads_consumed))
        widen = config.attack_model == "process" or workload.vuln_kind == "fmt"
        return LazyTamper(kind, trigger, TargetDraw(rng, widen))

    return execute_attack(
        program,
        inputs,
        draw,
        index=index,
        config=config,
        metrics=metrics,
        extra_observers=extra_observers,
        alarm_sink=alarm_sink,
        progress=progress,
    )


def run_workload_campaign(
    workload: Workload,
    attacks: int = 100,
    seed_prefix: str = "",
    config: CampaignConfig = DEFAULT_CONFIG,
    *,
    jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> WorkloadResult:
    """Attack one workload ``attacks`` times independently.

    A one-workload :func:`repro.parallel.engine.run_campaign`: every
    shard attacks the compile cache's build at ``config.opt_level``,
    and the merged result is identical at any ``jobs`` for the same
    ``seed_prefix``.  ``metrics`` accumulates campaign telemetry,
    merged back across shards.
    """
    from ..parallel.engine import run_campaign

    return run_campaign(
        [workload],
        attacks,
        seed_prefix=seed_prefix,
        config=config,
        jobs=jobs,
        metrics=metrics,
        tracer=tracer,
    ).results[0]
