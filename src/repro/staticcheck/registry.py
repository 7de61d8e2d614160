"""Pass registry and orchestration for the static checks.

Each pass is a named :class:`CheckPass` mapping a compiled
:class:`~repro.pipeline.ProtectedProgram` to a list of diagnostics.
``run_passes`` shares the expensive lower-layer analyses (alias sets,
purity) across passes, times each pass in a
:class:`~repro.observability.tracing.Tracer` span
(``staticcheck.<pass>``), and returns all findings sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.alias import analyze_aliases
from ..analysis.purity import PurityResult, analyze_purity
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import Tracer, maybe_span
from .audit import audit_image, audit_program
from .coverage import coverage_report
from .deadcode import find_dead_branches
from .detectability import predict_detectability
from .diagnostics import Diagnostic
from .feasaudit import audit_feasible
from .interproc import audit_interproc
from .irverify import verify_module_diagnostics


@dataclass(frozen=True)
class CheckPass:
    """One registered static check."""

    name: str
    title: str
    runner: Callable[[object, PurityResult], List[Diagnostic]]


PASSES: Tuple[CheckPass, ...] = (
    CheckPass(
        "ir-verify",
        "IR structural verification",
        lambda program, purity: verify_module_diagnostics(program.module),
    ),
    CheckPass(
        "correlation-audit",
        "BAT/BCV soundness audit (independent reproof)",
        lambda program, purity: audit_program(program, purity),
    ),
    CheckPass(
        "interproc-audit",
        "interprocedural kill-suppression audit (IP5xx reproof)",
        lambda program, purity: audit_interproc(program, purity),
    ),
    CheckPass(
        "feasible-audit",
        "feasible-path action audit (FP7xx reproof)",
        lambda program, purity: audit_feasible(program, purity),
    ),
    CheckPass(
        "image-audit",
        "binary table image audit",
        lambda program, purity: audit_image(program),
    ),
    CheckPass(
        "dead-branch",
        "infeasible/dead branch and unreachable code detection",
        lambda program, purity: find_dead_branches(
            program.module,
            purity,
            opt_level=getattr(program, "opt_level", 0),
        ),
    ),
    CheckPass(
        "coverage",
        "static protection-coverage report",
        lambda program, purity: coverage_report(program, purity),
    ),
    CheckPass(
        "detectability",
        "static tamper-detectability prover (DET8xx verdicts)",
        lambda program, purity: predict_detectability(program, purity),
    ),
)

#: ``repro audit`` — soundness-bearing passes (errors gate CI).
AUDIT_PASSES: Tuple[str, ...] = (
    "ir-verify",
    "correlation-audit",
    "interproc-audit",
    "feasible-audit",
    "image-audit",
)

#: ``repro lint`` — advisory passes.
LINT_PASSES: Tuple[str, ...] = ("dead-branch",)

#: ``repro coverage`` — informational protection-coverage report.
COVERAGE_PASSES: Tuple[str, ...] = ("coverage",)

#: ``repro predict`` — static tamper-detectability verdicts.
PREDICT_PASSES: Tuple[str, ...] = ("detectability",)


def pass_by_name(name: str) -> CheckPass:
    for check in PASSES:
        if check.name == name:
            return check
    raise KeyError(f"unknown static check pass {name!r}")


def run_passes(
    program,
    names: Optional[Sequence[str]] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> List[Diagnostic]:
    """Run the selected passes over a compiled program: ``None`` runs
    every pass, an empty selection none.  ``metrics`` counts each
    pass's diagnostics, ``tracer`` times it."""
    selected = (
        list(PASSES) if names is None else [pass_by_name(n) for n in names]
    )
    analyze_aliases(program.module)
    purity = analyze_purity(program.module)
    diagnostics: List[Diagnostic] = []
    for check in selected:
        with maybe_span(tracer, f"staticcheck.{check.name}"):
            found = check.runner(program, purity)
        if metrics is not None:
            metrics.increment(
                f"staticcheck.{check.name}.diagnostics", len(found)
            )
        diagnostics.extend(found)
    return sorted(diagnostics, key=Diagnostic.sort_key)
