"""Campaign-validated soundness for the detectability prover.

The prover (:mod:`repro.staticcheck.detectability`) makes refutable
claims: ``DET801`` promises an alarm on *every* continuation, and
``DET803`` promises silence on every continuation.  This module is the
empirical gate — it joins those claims against the seeded Figure-7
campaign, attack by attack:

1. run the campaign (same seeds, same recipe as the benchmark) with
   the tamper-moment frame stack recorded on each outcome;
2. resolve each attack's corrupted word address back to the variable,
   word offset, and owning activation frame through the deterministic
   memory layout;
3. ask the prover for a verdict at exactly that tamper point
   (:meth:`DetectabilityAnalysis.attack_verdict`);
4. assert the two soundness directions — no ``DET801`` attack escaped
   the IPDS, no ``DET803`` attack raised an alarm — and report the
   static detection-rate lower bound (the share of control-flow-
   changing attacks at proven-detected points, which measured
   detection can only exceed).

On forensics campaigns the join also carries ``repro obs``'s per-alarm
attribution (the compile-time proof reason behind each detection), so
a verdict class can be broken down by *why* its alarms fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.alias import analyze_aliases
from ..analysis.purity import analyze_purity
from ..attacks.campaign import (
    AttackOutcome,
    CampaignConfig,
    WorkloadResult,
    run_workload_campaign,
)
from ..forensics.observatory import primary_reason
from ..interp.interpreter import RunStatus
from ..interp.state import STACK_BASE, MemoryMap
from ..ir.instructions import Variable
from ..pipeline import ProtectedProgram
from ..workloads.registry import Workload, get_workload, workload_names
from .detectability import (
    DetectabilityAnalysis,
    PROVEN_DETECTED,
    PROVEN_UNDETECTED,
    SiteFrame,
)

#: Verdict value used when an attack cannot be joined (tamper never
#: fired, or the address resolves to no mapped variable).
UNJOINED = "unjoined"

#: How an attacked run ends when it was cut short rather than ran to
#: completion: DET801's progress assumption (DESIGN §4h) does not hold.
TRUNCATED = (RunStatus.STEP_LIMIT, RunStatus.CALL_DEPTH)


@dataclass(frozen=True)
class AttackJoin:
    """One attack's static verdict joined with its measured outcome."""

    index: int
    target_label: str
    address: int
    value: int
    verdict: str  # DET801 / DET802 / DET803 / "unjoined"
    fired: bool
    control_flow_changed: bool
    detected: bool
    #: Escaping-path witness when the verdict is DET802.
    witness: Tuple[str, ...] = ()
    #: ``repro obs`` attribution of the first alarm (forensics
    #: campaigns only; None otherwise or when undetected).
    reason: Optional[str] = None
    #: How the attacked run ended.
    attack_status: RunStatus = RunStatus.OK

    def to_dict(self) -> dict:
        record = {
            "index": self.index,
            "target": self.target_label,
            "address": self.address,
            "value": self.value,
            "verdict": self.verdict,
            "fired": self.fired,
            "control_flow_changed": self.control_flow_changed,
            "detected": self.detected,
            "attack_status": self.attack_status.value,
        }
        if self.witness:
            record["witness"] = list(self.witness)
        if self.reason is not None:
            record["reason"] = self.reason
        return record


@dataclass
class WorkloadSoundness:
    """The joined campaign for one (workload, opt level)."""

    workload: str
    opt_level: int
    joins: List[AttackJoin] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.joins)

    @property
    def changed(self) -> int:
        return sum(1 for j in self.joins if j.control_flow_changed)

    @property
    def detected(self) -> int:
        return sum(1 for j in self.joins if j.detected)

    def count(self, verdict: str) -> int:
        return sum(1 for j in self.joins if j.verdict == verdict)

    @property
    def det801_escapes(self) -> List[AttackJoin]:
        """Soundness violations: proven-detected attacks that escaped."""
        return [
            j
            for j in self.joins
            if j.verdict == PROVEN_DETECTED and not j.detected
        ]

    @property
    def det803_alarms(self) -> List[AttackJoin]:
        """Soundness violations: proven-undetected attacks that alarmed."""
        return [
            j
            for j in self.joins
            if j.verdict == PROVEN_UNDETECTED and j.detected
        ]

    @property
    def violations(self) -> List[AttackJoin]:
        return self.det801_escapes + self.det803_alarms

    @property
    def det801_progress_not_met(self) -> List[AttackJoin]:
        """Proven-detected attacks whose attacked run was truncated
        (step or call-depth limit).  Reported apart because DET801
        assumes the run progresses; an escape among them still counts
        in :attr:`det801_escapes`."""
        return [
            j
            for j in self.joins
            if j.verdict == PROVEN_DETECTED and j.attack_status in TRUNCATED
        ]

    @property
    def predicted_lower_bound_pct(self) -> float:
        """Static lower bound on the detected-of-changed rate: every
        DET801 attack is proven to alarm, and a detected attack has by
        definition changed control flow, so ``DET801 / changed`` can
        never exceed the measured rate."""
        if not self.changed:
            return 0.0
        return 100.0 * self.count(PROVEN_DETECTED) / self.changed

    @property
    def measured_pct_detected_of_changed(self) -> float:
        if not self.changed:
            return 0.0
        return 100.0 * self.detected / self.changed

    def reason_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-verdict ``repro obs`` attribution histogram of the
        detected attacks (forensics campaigns only)."""
        counts: Dict[str, Dict[str, int]] = {}
        for join in self.joins:
            if not join.detected or join.reason is None:
                continue
            by_reason = counts.setdefault(join.verdict, {})
            by_reason[join.reason] = by_reason.get(join.reason, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "opt_level": self.opt_level,
            "total": self.total,
            "changed": self.changed,
            "detected": self.detected,
            "verdicts": {
                "DET801": self.count("DET801"),
                "DET802": self.count("DET802"),
                "DET803": self.count("DET803"),
                "unjoined": self.count(UNJOINED),
            },
            "predicted_lower_bound_pct": round(
                self.predicted_lower_bound_pct, 3
            ),
            "measured_pct_detected_of_changed": round(
                self.measured_pct_detected_of_changed, 3
            ),
            "det801_escapes": [j.to_dict() for j in self.det801_escapes],
            "det803_alarms": [j.to_dict() for j in self.det803_alarms],
            "det801_progress_not_met": [
                j.to_dict() for j in self.det801_progress_not_met
            ],
            "reason_counts": self.reason_counts(),
        }


@dataclass
class SoundnessReport:
    """The full sweep: every workload at every requested opt level."""

    results: List[WorkloadSoundness] = field(default_factory=list)

    @property
    def violations(self) -> List[Tuple[str, int, AttackJoin]]:
        return [
            (r.workload, r.opt_level, j)
            for r in self.results
            for j in r.violations
        ]

    def avg_predicted_lower_bound_pct(self, opt_level: int) -> float:
        """Across-workload average of the per-workload bound at one opt
        level — directly comparable to the Figure-7
        ``avg_pct_detected_of_changed`` aggregate."""
        values = [
            r.predicted_lower_bound_pct
            for r in self.results
            if r.opt_level == opt_level
        ]
        return sum(values) / len(values) if values else 0.0

    def to_dict(self) -> dict:
        opt_levels = sorted({r.opt_level for r in self.results})
        return {
            "results": [r.to_dict() for r in self.results],
            "violations": len(self.violations),
            "predicted_lower_bound": {
                f"opt{level}": round(
                    self.avg_predicted_lower_bound_pct(level), 3
                )
                for level in opt_levels
            },
        }


def resolve_tamper_target(
    memory: MemoryMap,
    address: int,
    tamper_site: Optional[Tuple[Tuple[str, str, int, int], ...]],
) -> Optional[Tuple[Variable, int, Optional[int]]]:
    """Map a corrupted word address back to ``(variable, word offset,
    owning frame index)``.

    Globals resolve from the fixed layout (owner ``None``); stack words
    resolve against the frame bases recorded at the tamper moment.
    Returns ``None`` for an unmapped address (padding / dead stack).
    """
    if address < STACK_BASE:
        for var, base in memory.global_addresses.items():
            if base <= address < base + var.size:
                return var, address - base, None
        return None
    if not tamper_site:
        return None
    for depth, (fn_name, _block, _index, frame_base) in enumerate(tamper_site):
        layout = memory.frame_layouts.get(fn_name)
        if layout is None:
            continue
        if not (frame_base <= address < frame_base + layout.size):
            continue
        for var, offset in layout.offsets.items():
            base = frame_base + offset
            if base <= address < base + var.size:
                return var, address - base, depth
    return None


def join_outcomes(
    program: ProtectedProgram,
    outcomes: Sequence[AttackOutcome],
    workload_name: str,
    analysis: Optional[DetectabilityAnalysis] = None,
) -> List[AttackJoin]:
    """Attach a static verdict to each campaign outcome.

    Attacks whose tamper never fired, or whose address maps to no
    variable, join as ``"unjoined"`` — the prover makes no claim there
    (and the campaign marks them undetected by construction).
    """
    if analysis is None:
        analyze_aliases(program.module)
        purity = analyze_purity(program.module)
        analysis = DetectabilityAnalysis(program, purity)
    memory = MemoryMap(program.module)
    joins: List[AttackJoin] = []
    for outcome in outcomes:
        verdict = UNJOINED
        witness: Tuple[str, ...] = ()
        if outcome.fired and outcome.tamper_site:
            resolved = resolve_tamper_target(
                memory, outcome.address, outcome.tamper_site
            )
            if resolved is not None:
                var, word_offset, owner_frame = resolved
                frames: List[SiteFrame] = [
                    (fn, block, index)
                    for fn, block, index, _base in outcome.tamper_site
                ]
                verdict, witness = analysis.attack_verdict(
                    var,
                    word_offset,
                    outcome.value,
                    frames,
                    owner_frame,
                )
        reason: Optional[str] = None
        if outcome.detected and outcome.proof_reasons:
            reason = primary_reason(outcome.to_record(workload_name))
        joins.append(
            AttackJoin(
                index=outcome.index,
                target_label=outcome.target_label,
                address=outcome.address,
                value=outcome.value,
                verdict=verdict,
                fired=outcome.fired,
                control_flow_changed=outcome.control_flow_changed,
                detected=outcome.detected,
                witness=witness,
                reason=reason,
                attack_status=outcome.attack_status,
            )
        )
    return joins


def validate_workload(
    workload: Workload,
    opt_level: int = 0,
    attacks: int = 30,
    seed_prefix: str = "",
    jobs: int = 1,
    result: Optional[WorkloadResult] = None,
) -> WorkloadSoundness:
    """Run (or reuse) one seeded forensics campaign and join every
    attack.

    ``result`` short-circuits the campaign when the caller already ran
    it (the benchmark reuses its own sweep); it must come from the same
    seeds and opt level.
    """
    from ..pipeline import compile_program_cached

    program = compile_program_cached(
        workload.source, workload.name, opt_level
    )
    if result is None:
        result = run_workload_campaign(
            workload,
            attacks=attacks,
            seed_prefix=seed_prefix,
            config=CampaignConfig(opt_level=opt_level, forensics=True),
            jobs=jobs,
        )
    return WorkloadSoundness(
        workload=workload.name,
        opt_level=opt_level,
        joins=join_outcomes(program, result.attacks, workload.name),
    )


def validate_registry(
    opt_levels: Sequence[int] = (0, 1, 2, 3),
    attacks: int = 30,
    seed_prefix: str = "",
    jobs: int = 1,
    names: Optional[Sequence[str]] = None,
) -> SoundnessReport:
    """The full soundness sweep: every registry workload at every
    requested opt level, same seeds throughout."""
    report = SoundnessReport()
    for name in names or workload_names():
        workload = get_workload(name)
        for opt_level in opt_levels:
            report.results.append(
                validate_workload(
                    workload,
                    opt_level=opt_level,
                    attacks=attacks,
                    seed_prefix=seed_prefix,
                    jobs=jobs,
                )
            )
    return report
