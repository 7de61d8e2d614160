"""Alarm forensics: explain runtime alarms in compile-time terms.

The paper's pitch is *actionable* anomaly detection — an alarm means a
specific committed branch contradicted a specific compiler-proved
correlation.  This package closes that loop: it joins the runtime
flight recorder (:mod:`repro.runtime.flight_recorder`) with the
compiler's provenance records (:mod:`repro.correlation.provenance`)
into typed :class:`AlarmReport` objects with a human-readable causal
chain, JSON rendering, and staticcheck diagnostics for SARIF export.
"""

from .engine import (
    DEFAULT_HISTORY,
    explain_alarms,
    explain_ipds,
)
from .observatory import (
    UNEXPLAINED,
    CampaignObservation,
    ObservatoryError,
    WorkloadObservation,
    observe_log,
    observe_outcomes,
    observe_records,
)
from .report import (
    CODE_DEGRADED,
    CODE_EXPLAINED,
    AlarmReport,
    render_reports_text,
    reports_to_json,
)

__all__ = [
    "AlarmReport",
    "CODE_DEGRADED",
    "CODE_EXPLAINED",
    "CampaignObservation",
    "DEFAULT_HISTORY",
    "ObservatoryError",
    "UNEXPLAINED",
    "WorkloadObservation",
    "explain_alarms",
    "explain_ipds",
    "observe_log",
    "observe_outcomes",
    "observe_records",
    "render_reports_text",
    "reports_to_json",
]
