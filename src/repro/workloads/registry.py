"""Workload registry: the ten vulnerable server programs (§6).

The paper attacks ten real servers with known vulnerabilities
(telnetd, wu-ftpd, xinetd, crond, sysklogd, atftpd, httpd, sendmail,
sshd, portmap).  We model each as a synthetic mini-C server with the
same *shape*: session/authentication state held in memory, a command
dispatch loop, and privilege or bounds checks that are evaluated
repeatedly — the structure that gives branch correlations teeth.
The vulnerability class matches the paper (format string for wu-ftpd
and sysklogd — arbitrary-address tampering; buffer overflow for the
rest — live-stack tampering).

Each workload provides an input generator so attack campaigns can
drive varied but realistic sessions from a seeded RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union


@dataclass(frozen=True)
class Workload:
    """One synthetic server program."""

    name: str
    vuln_kind: str  # "bof" (stack tampering) | "fmt" (arbitrary address)
    source: str
    make_inputs: Callable[[random.Random], List[int]]
    description: str
    #: Earliest input index eligible as the tamper trigger (the first
    #: few reads are typically connection setup the attacker cannot
    #: reach past).
    min_trigger_read: int = 2

    def __post_init__(self) -> None:
        if self.vuln_kind not in ("bof", "fmt"):
            raise ValueError(f"bad vulnerability kind {self.vuln_kind!r}")


_REGISTRY: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    """Add a workload to the global registry (import-time hook)."""
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r} (known: {known})") from None


def all_workloads() -> List[Workload]:
    """All registered workloads, in the paper's order."""
    _ensure_loaded()
    order = [
        "telnetd",
        "wu-ftpd",
        "xinetd",
        "crond",
        "sysklogd",
        "atftpd",
        "httpd",
        "sendmail",
        "sshd",
        "portmap",
    ]
    return [_REGISTRY[name] for name in order if name in _REGISTRY]


def workload_names() -> List[str]:
    return [w.name for w in all_workloads()]


def resolve_workloads(
    specs: Optional[Sequence[Union[Workload, str]]] = None,
) -> List[Workload]:
    """Normalize a mixed name/instance list to :class:`Workload` objects.

    ``None`` means every registered workload, in the paper's order —
    the shape every campaign entry point (serial CLI, sharded engine,
    reporting) funnels through.
    """
    if specs is None:
        return all_workloads()
    return [
        spec if isinstance(spec, Workload) else get_workload(spec)
        for spec in specs
    ]


def _ensure_loaded() -> None:
    """Import the workload modules so they self-register."""
    if _REGISTRY:
        return
    from . import (  # noqa: F401
        atftpd,
        crond,
        httpd,
        portmap,
        sendmail,
        sshd,
        sysklogd,
        telnetd,
        wu_ftpd,
        xinetd,
    )
