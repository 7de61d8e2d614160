"""Head-to-head: IPDS vs. syscall-granularity n-gram detection.

For one workload:

1. train the n-gram detector on ``train_sessions`` clean sessions;
2. measure its **false-positive rate** on fresh clean sessions (IPDS
   is zero-FP by construction, and every session of both sets is a
   monitored :func:`~repro.attacks.campaign.clean_run` that raises on
   an alarm, so any baseline FP is the contrast the paper draws);
3. run seeded attacks through the Figure 7 recipe itself
   (:func:`~repro.attacks.campaign.run_attack_detailed`, seed prefix
   ``"cmp:"``) with the syscall capture riding the attack run, and
   measure both detectors on the attacks that changed control flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..attacks.campaign import attack_rng, clean_run, run_attack_detailed
from ..ir.instructions import Call, Instruction
from ..pipeline import ProtectedProgram, compile_program
from ..runtime.observer import ExecutionObserver
from ..workloads.registry import Workload


class SyscallTraceObserver(ExecutionObserver):
    """Captures the coarse syscall-granularity view of one execution.

    Records every call — builtin "system calls" and user functions
    alike — as a call-site-aware symbol (Feng et al. [10] style: the
    same syscall from a different program point is a different
    symbol).  Rides the observer bus's instruction stream, so it can
    share a single execution with the IPDS and timing consumers.
    """

    def __init__(self) -> None:
        self.symbols: List[str] = []

    def on_instruction_batch(
        self,
        instructions: Sequence[Instruction],
        touched: Sequence[Optional[int]],
        count: int,
    ) -> None:
        # Scan the flat buffer for calls in one call frame instead of
        # paying a Python call per instruction.
        append = self.symbols.append
        for index in range(count):
            instruction = instructions[index]
            if instruction.__class__ is Call:
                append(f"{instruction.callee}@{instruction.address:x}")


@dataclass
class ComparisonResult:
    """Outcome of one workload's head-to-head."""

    workload: str
    ngram_n: int
    profile_size: int
    clean_sessions_tested: int
    ngram_false_positives: int
    attacks: int
    changed: int
    ipds_detected: int
    ngram_detected: int

    @property
    def ngram_fp_rate(self) -> float:
        if not self.clean_sessions_tested:
            return 0.0
        return 100.0 * self.ngram_false_positives / self.clean_sessions_tested

    @property
    def ipds_detection_of_changed(self) -> float:
        return 100.0 * self.ipds_detected / self.changed if self.changed else 0.0

    @property
    def ngram_detection_of_changed(self) -> float:
        return 100.0 * self.ngram_detected / self.changed if self.changed else 0.0


def compare_detectors(
    workload: Workload,
    attacks: int = 50,
    train_sessions: int = 40,
    test_sessions: int = 40,
    n: int = 5,
    program: Optional[ProtectedProgram] = None,
) -> ComparisonResult:
    """Run the full head-to-head for one workload.

    Every training and test session is a
    :func:`~repro.attacks.campaign.clean_run` with the syscall capture
    riding it, so an IPDS alarm on any of them, or on an attack's clean
    run, raises :class:`~repro.attacks.campaign.CampaignError` — the
    zero-false-positive guarantee is checked, not assumed.
    """
    from .ngram import NGramDetector

    if program is None:
        program = compile_program(workload.source, workload.name)
    detector = NGramDetector(n=n)

    def session_trace(prefix: str, index: int) -> List[str]:
        syscalls = SyscallTraceObserver()
        inputs = workload.make_inputs(attack_rng(prefix, workload.name, index))
        clean_run(program, inputs, observers=(syscalls,))
        return syscalls.symbols

    for index in range(train_sessions):
        detector.train(session_trace("train:", index))
    false_positives = sum(
        detector.detects(session_trace("test:", index))
        for index in range(test_sessions)
    )

    changed = ipds_hits = ngram_hits = 0
    for index in range(attacks):
        syscalls = SyscallTraceObserver()
        outcome = run_attack_detailed(
            program,
            workload,
            index,
            seed_prefix="cmp:",
            extra_observers=(syscalls,),
        ).outcome
        if outcome.control_flow_changed:
            changed += 1
            ipds_hits += int(outcome.detected)
            ngram_hits += int(detector.detects(syscalls.symbols))

    return ComparisonResult(
        workload=workload.name,
        ngram_n=n,
        profile_size=detector.profile_size,
        clean_sessions_tested=test_sessions,
        ngram_false_positives=false_positives,
        attacks=attacks,
        changed=changed,
        ipds_detected=ipds_hits,
        ngram_detected=ngram_hits,
    )
