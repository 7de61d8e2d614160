"""IPDS: Infeasible Path Detection System.

A full reproduction of Zhuang, Zhang & Pande, "Using Branch Correlation
to Identify Infeasible Paths for Anomaly Detection" (MICRO 2006):
compiler-side branch-correlation analysis (BSV/BCV/BAT construction),
the hardware runtime checker, a tampering execution substrate, an
attack-campaign framework, and a SimpleScalar-style timing model.

Quick start::

    from repro import compile_program, monitored_run, TamperSpec

    program = compile_program(SOURCE)
    result, ipds = monitored_run(program, inputs=[...])
    print(ipds.alarms)
"""

from .interp.interpreter import RunResult, RunStatus, TamperSpec
from .pipeline import (
    ProtectedProgram,
    compile_program,
    compile_program_cached,
    monitored_run,
    observed_run,
)
from .runtime.ipds import IPDS, Alarm
from .runtime.observer import ExecutionObserver, ObserverBus

#: Fallback when neither pyproject.toml nor installed metadata is
#: reachable (e.g. a vendored source tree).  Keep in sync with
#: pyproject.toml — :func:`_resolve_version` prefers that file.
_FALLBACK_VERSION = "1.4.0"


def _resolve_version() -> str:
    """The package version, from the single source of truth.

    Checkout layouts (``PYTHONPATH=src``) read pyproject.toml two
    levels up from this file; installed layouts fall back to importlib
    metadata; the pinned constant covers everything else.
    """
    import re
    from pathlib import Path

    pyproject = Path(__file__).resolve().parent.parent.parent / "pyproject.toml"
    try:
        match = re.search(
            r'^version\s*=\s*"([^"]+)"',
            pyproject.read_text(encoding="utf-8"),
            re.MULTILINE,
        )
        if match:
            return match.group(1)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return _FALLBACK_VERSION


__version__ = _resolve_version()

__all__ = [
    "Alarm",
    "ExecutionObserver",
    "IPDS",
    "ObserverBus",
    "ProtectedProgram",
    "RunResult",
    "RunStatus",
    "TamperSpec",
    "compile_program",
    "compile_program_cached",
    "monitored_run",
    "observed_run",
    "__version__",
]
