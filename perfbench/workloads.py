"""The benchmark's three workloads.

Each workload is one process and one thread running a fixed list of
operations as a closed loop: the next operation starts when the last
one returns, and the list depends only on the seed and the number of
rounds, never on the clock.  A round is one pass over the ten registry
programs.  Set-up (``setup``) is a cold compile through the
content-addressed cache; every timed operation looks its program up in
that cache, so set-up work that leaks into a timed section shows as a
cache miss.

The entry points are the ones users and ``repro.reporting`` call, looked
up through their modules at call time so the traced run can wrap them:
``campaign.run_workload_campaign``, ``simulator.normalized_performance``,
``pipeline.compile_program_cached`` and ``staticcheck.run_passes``.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro import pipeline, staticcheck
from repro.attacks import campaign
from repro.cpu import simulator
from repro.staticcheck.diagnostics import Severity
from repro.workloads.registry import Workload as Program
from repro.workloads.registry import all_workloads

#: Attacks per program per fig7 round: the count behind
#: ``BENCH_fig7_detection.json``, so round 0 of the default seed
#: reproduces its 48.333% detected-of-changed.
ATTACKS_PER_ROUND = 30

#: Fig-9 input scale: one execution per program per round, tens of
#: thousands of simulated instructions each.
FIG9_SCALE = 40

DEFAULT_SEED = 0

SET_ACTIONS = ("SET_T", "SET_NT")


def set_action_reasons(program) -> Counter:
    """SET_T/SET_NT entries of one program's tables, by proof reason."""
    reasons: Counter = Counter()
    for tables in program.tables.by_function.values():
        for record in tables.provenance:
            if record.action in SET_ACTIONS:
                reasons[record.reason] += 1
    return reasons


def _matches(what: str, outputs, expected) -> bool:
    """Whether ``outputs`` equal the expected file's entry, if it has one."""
    if expected is None or outputs == expected:
        return True
    print(f"check failed: {what}: {outputs} != expected {expected}", file=sys.stderr)
    return False


@dataclass
class RoundResult:
    """The operations of one round and what their checks found."""

    ops: int = 0
    failed: int = 0
    #: Per-program outputs: compared with the untraced twin of a traced
    #: section and with the expected file.
    outputs: Dict[str, list] = field(default_factory=dict)
    #: Workload-specific sums for the metrics.
    totals: Counter = field(default_factory=Counter)


class Workload:
    """Common shape: cold set-up, then a fixed list of rounds."""

    name = ""
    opt_level = 0
    #: Operations per program per round.
    ops_per_program = 1
    #: Whether the seed changes the inputs (the expected file pins the
    #: default seed's outputs only).
    seeded = True
    #: Nominal host seconds of one round, used only to size the
    #: operation list from ``--seconds``; the run is never time-boxed.
    round_seconds = 1.0
    #: Traced sections only: a ``MetricsRegistry`` handed to the
    #: program for its own counters, and a callback told the id of each
    #: operation as it starts.
    metrics_registry = None
    on_operation = None

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        rounds: int = 1,
        programs: Optional[Sequence[str]] = None,
        expected: Optional[dict] = None,
    ) -> None:
        self.seed = seed
        self.rounds = rounds
        self.programs = [
            w for w in all_workloads() if programs is None or w.name in programs
        ]
        self.expected = expected or {}
        self.set_actions: Dict[str, Counter] = {}
        self.bad_programs: set = set()

    @classmethod
    def rounds_for(cls, seconds: int) -> int:
        return max(1, round(seconds / cls.round_seconds))

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """One cold compile of every program (plus workload inputs)."""
        self.set_actions = {}
        for program in self.programs:
            compiled = pipeline.compile_program_cached(
                program.source, program.name, self.opt_level
            )
            self.set_actions[program.name] = set_action_reasons(compiled)

    def check_setup(self) -> None:
        """Mark the programs whose SET-action counts differ from the
        expected file; all their operations fail.  The counts depend on
        source and opt level only, so every seed checks them."""
        expected = self.expected.get("set_actions", {})
        self.bad_programs = {
            name
            for name, reasons in self.set_actions.items()
            if not _matches(
                f"{self.name} {name} SET actions",
                sum(reasons.values()),
                expected.get(name),
            )
        }

    # -- timed operations -------------------------------------------------

    def run_round(
        self, index: int, programs: Optional[Sequence[Program]] = None
    ) -> RoundResult:
        """Every program's operations (or those of ``programs``), each
        checked; an exception fails that program's operations and the
        round goes on."""
        result = RoundResult()
        expected = {}
        if not self.seeded or self.seed == DEFAULT_SEED:
            pinned = self.expected.get("rounds", [])
            expected = pinned[index] if index < len(pinned) else {}
        for program in self.programs if programs is None else programs:
            what = f"{self.name} round {index} {program.name}"
            if self.on_operation is not None:
                self.on_operation(f"{index}:{program.name}")
            ops = self.ops_per_program
            result.ops += ops
            try:
                outputs, failed = self.run_program(index, program, result.totals)
            except Exception as error:
                print(f"operation failed: {what}: {error!r}", file=sys.stderr)
                result.failed += ops
                continue
            if program.name in self.bad_programs or not _matches(
                what, outputs, expected.get(program.name)
            ):
                failed = ops
            result.failed += min(failed, ops)
            result.outputs[program.name] = outputs
        return result

    def work(self, result: RoundResult) -> float:
        """The work ``ops_per_s`` counts in one round: its operations."""
        return result.ops

    def ops_per_s(self, results: Sequence[RoundResult], seconds: Sequence[float]) -> float:
        """Median over rounds of work per timed second."""
        return statistics.median(self.work(r) / s for r, s in zip(results, seconds))

    def run_program(self, index: int, program: Program, totals: Counter) -> Tuple[list, int]:
        """One program's operations of round ``index``: returns their
        outputs and how many failed their checks, and adds to ``totals``."""
        raise NotImplementedError

    def metrics(self, results: Sequence[RoundResult], seconds: Sequence[float]) -> list:
        """Workload-specific ``(name, value, unit)`` readings."""
        raise NotImplementedError

    def layer_values(self, results: Sequence[RoundResult]) -> Dict[str, float]:
        """Per-layer metrics read off the operations' own outputs."""
        return {}


class Fig7Campaign(Workload):
    """Seeded input-model attacks: a clean, a probe and an attack run each."""

    name = "fig7-campaign"
    ops_per_program = ATTACKS_PER_ROUND
    round_seconds = 2.4

    def prefix(self, index: int) -> str:
        """Campaign seed prefix of one round; ``""`` for round 0 of the
        default seed, the prefix of the committed Fig-7 bench."""
        if self.seed == DEFAULT_SEED and index == 0:
            return ""
        return f"{self.seed}.{index}:"

    def run_program(self, index, program, totals):
        outcome = campaign.run_workload_campaign(
            program,
            attacks=ATTACKS_PER_ROUND,
            seed_prefix=self.prefix(index),
            metrics=self.metrics_registry,
        )
        # A clean-run alarm raises inside the campaign.
        failed = ATTACKS_PER_ROUND - len(outcome.attacks)
        failed += sum(1 for a in outcome.attacks if a.detected and not a.control_flow_changed)
        if not outcome.detected <= outcome.changed <= ATTACKS_PER_ROUND:
            failed = ATTACKS_PER_ROUND
        totals["changed"] += outcome.changed
        totals["detected"] += outcome.detected
        return [outcome.changed, outcome.detected], failed

    def metrics(self, results, seconds) -> list:
        return [("detected_of_changed_pct", detected_of_changed_pct(results), "%")]

    def layer_values(self, results) -> Dict[str, float]:
        return {"attacks.detected_of_changed_pct": detected_of_changed_pct(results)}


class Fig9Timing(Workload):
    """One long execution per program driving both timing models."""

    name = "fig9-timing"
    round_seconds = 4.0

    def seed_string(self, index: int, program: str) -> str:
        """Input RNG seed of one execution; round 0 of the default seed
        uses the Fig-9 bench's ``bench:<program>``."""
        if self.seed == DEFAULT_SEED and index == 0:
            return f"bench:{program}"
        return f"bench{self.seed}.{index}:{program}"

    def setup(self) -> None:
        super().setup()
        self.inputs = {
            (index, p.name): p.make_inputs(
                random.Random(self.seed_string(index, p.name)), FIG9_SCALE
            )
            for index in range(self.rounds)
            for p in self.programs
        }

    def run_program(self, index, program, totals):
        compiled = pipeline.compile_program_cached(
            program.source, program.name, self.opt_level
        )
        comp = simulator.normalized_performance(
            compiled, self.inputs[(index, program.name)], program.name
        )
        totals["instructions"] += comp.instructions
        totals["baseline_cycles"] += comp.baseline_cycles
        totals["ipds_cycles"] += comp.ipds_cycles
        totals["commit_stalls"] += comp.commit_stalls
        totals["check_latency_cycles"] += comp.avg_check_latency
        totals["degradation_pct"] += comp.degradation_pct
        totals["executions"] += 1
        ok = 0 < comp.instructions and comp.baseline_cycles <= comp.ipds_cycles
        outputs = [comp.instructions, comp.baseline_cycles, comp.ipds_cycles, comp.commit_stalls]
        return outputs, 0 if ok else 1

    def work(self, result: RoundResult) -> float:
        """Simulated instructions: the seed changes how long each
        execution runs, so counting executions would mix input length
        into the rate."""
        return result.totals["instructions"]

    def metrics(self, results, seconds) -> list:
        return [("ipds_slowdown_pct", self.mean(results, "degradation_pct"), "%")]

    @staticmethod
    def mean(results, key: str) -> float:
        executions = sum(r.totals["executions"] for r in results)
        return sum(r.totals[key] for r in results) / executions if executions else 0.0

    def layer_values(self, results) -> Dict[str, float]:
        values = {
            f"cpu.{key}": sum(r.totals[key] for r in results)
            for key in ("baseline_cycles", "ipds_cycles", "commit_stalls")
        }
        values["cpu.check_latency_cycles"] = self.mean(results, "check_latency_cycles")
        values["cpu.ipds_slowdown_pct"] = self.mean(results, "degradation_pct")
        return values


class StaticOpt3(Workload):
    """``repro audit`` and ``repro predict`` over the opt-3 programs."""

    name = "static-opt3"
    opt_level = 3
    seeded = False
    round_seconds = 1e9  # one round whatever ``--seconds`` says

    def run_program(self, index, program, totals):
        compiled = pipeline.compile_program_cached(
            program.source, program.name, self.opt_level
        )
        start = time.perf_counter()
        audit = staticcheck.run_passes(compiled, names=staticcheck.AUDIT_PASSES)
        middle = time.perf_counter()
        predict = staticcheck.run_passes(compiled, names=staticcheck.PREDICT_PASSES)
        totals["predict_s"] += time.perf_counter() - middle
        totals["audit_s"] += middle - start
        errors = sum(1 for d in audit if d.severity is Severity.ERROR)
        totals["audit_errors"] += errors
        verdicts = Counter(d.code for d in predict)
        outputs = [errors] + [verdicts[code] for code in ("DET801", "DET802", "DET803")]
        return outputs, 0 if errors == 0 else 1

    def metrics(self, results, seconds) -> list:
        return [
            ("audit_s", sum(r.totals["audit_s"] for r in results), "s"),
            ("predict_s", sum(r.totals["predict_s"] for r in results), "s"),
        ]

    def layer_values(self, results) -> Dict[str, float]:
        return {"staticcheck.audit_errors": sum(r.totals["audit_errors"] for r in results)}


WORKLOADS = {w.name: w for w in (Fig7Campaign, Fig9Timing, StaticOpt3)}


def detected_of_changed_pct(results: Sequence[RoundResult]) -> float:
    """Detected ÷ control-flow-changing attacks, pooled over rounds (the
    Fig-7 average, since every program gets the same attack count)."""
    changed = sum(r.totals["changed"] for r in results)
    detected = sum(r.totals["detected"] for r in results)
    return 100.0 * detected / changed if changed else 0.0
