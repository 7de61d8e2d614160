"""Static soundness auditing and diagnostics for the IPDS toolchain.

The subsystem hosts three pass families behind one diagnostics engine:

* ``correlation-audit`` / ``image-audit`` — an independent reproof
  that every emitted BAT action holds on all feasible paths (the
  paper's zero-false-positive guarantee), plus binary image integrity;
* ``dead-branch`` — infeasible/dead branch and unreachable code
  warnings from fixpoint range reasoning;
* ``ir-verify`` — structural IR validation (every compile runs its
  raise-on-first-error form, :func:`~repro.staticcheck.irverify.verify_module`).

Entry points: :func:`run_passes` (programmatic), ``repro audit`` and
``repro lint`` (CLI), and ``compile_program(..., check=True)``.
"""

from .audit import audit_image, audit_program
from .coverage import coverage_report
from .deadcode import find_dead_branches
from .detectability import (
    DetectabilityAnalysis,
    POSSIBLY_DETECTED,
    PROVEN_DETECTED,
    PROVEN_UNDETECTED,
    predict_detectability,
)
from .feasaudit import audit_feasible
from .interproc import audit_interproc
from .diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticSink,
    Severity,
    Span,
    StaticCheckError,
    errors_in,
    max_severity,
)
from .emit import (
    diagnostics_to_json,
    diagnostics_to_sarif,
    json_report,
    render_text,
    sarif_report,
    write_output,
)
from .irverify import verify_module_diagnostics
from .registry import (
    AUDIT_PASSES,
    COVERAGE_PASSES,
    LINT_PASSES,
    PASSES,
    PREDICT_PASSES,
    CheckPass,
    pass_by_name,
    run_passes,
)

__all__ = [
    "AUDIT_PASSES",
    "CODES",
    "COVERAGE_PASSES",
    "CheckPass",
    "Diagnostic",
    "DiagnosticSink",
    "DetectabilityAnalysis",
    "LINT_PASSES",
    "PASSES",
    "POSSIBLY_DETECTED",
    "PREDICT_PASSES",
    "PROVEN_DETECTED",
    "PROVEN_UNDETECTED",
    "Severity",
    "Span",
    "StaticCheckError",
    "audit_feasible",
    "audit_image",
    "audit_interproc",
    "audit_program",
    "coverage_report",
    "diagnostics_to_json",
    "diagnostics_to_sarif",
    "errors_in",
    "find_dead_branches",
    "json_report",
    "max_severity",
    "pass_by_name",
    "predict_detectability",
    "render_text",
    "run_passes",
    "sarif_report",
    "verify_module_diagnostics",
    "write_output",
]
