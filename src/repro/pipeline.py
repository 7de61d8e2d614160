"""End-to-end convenience API: source → protected program → monitored run.

This is the "whole system" wrapper a downstream user starts from::

    from repro import compile_program, monitored_run

    program = compile_program(source)
    result, ipds = monitored_run(program, inputs=[1, 2, 3])
    assert not ipds.detected

For multi-consumer runs, :func:`observed_run` executes the program
*once* and fans the committed event stream out to any set of
:class:`~repro.runtime.observer.ExecutionObserver` instances — the
IPDS checker, timing models, trace recorders and baseline capture all
ride the same execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .correlation.bat_builder import BuildStats, build_program_tables
from .correlation.tables import ProgramTables
from .interp.interpreter import Interpreter, RunResult, Tamper
from .ir.function import IRModule
from .ir.builder import lower_program
from .lang.parser import parse_program
from .runtime.ipds import IPDS
from .runtime.observer import ExecutionObserver
from .staticcheck.irverify import verify_module


@dataclass
class ProtectedProgram:
    """A compiled program plus its IPDS protection tables."""

    module: IRModule
    tables: ProgramTables
    build_stats: List[BuildStats]
    source_name: str = "<source>"
    #: The optimization level the tables were built at.  Static passes
    #: that consume level-gated facts (the opt-3 feasible-path pruning)
    #: key off this instead of re-deriving it from table contents.
    opt_level: int = 0

    def new_ipds(
        self,
        allow_unprotected: bool = False,
        flight_recorder=None,
        alarm_sink=None,
    ) -> IPDS:
        """A fresh IPDS instance for one monitored execution."""
        return IPDS(
            self.tables,
            allow_unprotected=allow_unprotected,
            flight_recorder=flight_recorder,
            alarm_sink=alarm_sink,
        )

    def to_image(self) -> bytes:
        """The §5.4 binary table image: function information table plus
        packed BCV/BAT blobs, as the compiler would attach to the
        program binary."""
        from .correlation.binary_image import pack_program

        entries = {
            fn.name: self.module.function_extent(fn.name)[0]
            for fn in self.module.functions
        }
        return pack_program(self.tables, entries)


def compile_program(
    source: str,
    name: str = "<source>",
    opt_level: int = 0,
    check: bool = False,
) -> ProtectedProgram:
    """Parse, lower, verify and protect a mini-C program.

    ``opt_level=1`` runs the standard optimization pipeline (constant
    propagation, store-to-load forwarding, DCE) before the correlation
    analysis — the configuration the paper notes "can remove some
    correlations, reducing the detection rate".

    ``opt_level=2`` additionally runs the bottom-up interprocedural
    summary analysis (:mod:`repro.analysis.summaries`), letting the BAT
    construction keep predictions alive across calls it proves harmless
    — strictly more actions, same zero-false-positive guarantee.

    ``opt_level=3`` additionally runs the feasible-path MFP
    (:mod:`repro.analysis.feasible`): infeasible CFG edges are pruned
    from the per-edge range propagation, so outcomes forced on every
    *feasible* path become SET actions (``reason=feasible-path``
    provenance with the pruned-edge witness) instead of being diluted
    by ranges flowing along paths that can never execute.

    ``check=True`` runs the static soundness auditor
    (:mod:`repro.staticcheck`) over the freshly emitted tables and
    raises :class:`~repro.staticcheck.StaticCheckError` on any
    error-severity diagnostic — a self-distrusting compile that refuses
    to ship tables it cannot independently re-prove.
    """
    ast = parse_program(source, name)
    module = lower_program(ast)
    verify_module(module)
    if opt_level > 0:
        from .opt import optimize_module

        optimize_module(module)
        verify_module(module)
    tables, stats = build_program_tables(
        module,
        interproc=opt_level >= 2,
        feasible=opt_level >= 3,
    )
    program = ProtectedProgram(
        module=module,
        tables=tables,
        build_stats=stats,
        source_name=name,
        opt_level=opt_level,
    )
    if check:
        from .staticcheck import AUDIT_PASSES, errors_in, run_passes
        from .staticcheck.diagnostics import StaticCheckError

        errors = errors_in(run_passes(program, names=AUDIT_PASSES))
        if errors:
            raise StaticCheckError(errors)
    return program


def compile_program_cached(
    source: str, name: str = "<source>", opt_level: int = 0
) -> ProtectedProgram:
    """:func:`compile_program` behind the in-process compile cache.

    Same result, but each distinct ``(name, opt_level, source)`` is
    compiled at most once per process.  Callers must treat the returned
    program as shared and immutable.  See :mod:`repro.parallel.cache`.
    """
    from .parallel.cache import cached_compile

    return cached_compile(source, name, opt_level)


def observed_run(
    program: ProtectedProgram,
    observers: Sequence[ExecutionObserver] = (),
    inputs: Sequence[int] = (),
    entry: str = "main",
    tamper: Optional[Tamper] = None,
    step_limit: int = 2_000_000,
    trace_branches: bool = True,
) -> RunResult:
    """Execute once, fanning events out to every observer.

    One execution drives any number of consumers simultaneously —
    checker, timing models, trace recorder, baseline capture — each
    event dispatched exactly once through the observer bus::

        ipds = program.new_ipds()
        recorder = TraceRecorder()
        result = observed_run(program, [ipds, recorder], inputs=[...])

    ``tamper`` is a fixed :class:`TamperSpec` or a
    :class:`~repro.interp.interpreter.LazyTamper` whose target hook
    picks the word when the trigger fires.
    """
    interpreter = Interpreter(
        program.module,
        inputs=inputs,
        entry=entry,
        tamper=tamper,
        step_limit=step_limit,
        observers=observers,
        trace_branches=trace_branches,
    )
    return interpreter.run()


def monitored_run(
    program: ProtectedProgram,
    inputs: Sequence[int] = (),
    entry: str = "main",
    tamper: Optional[Tamper] = None,
    step_limit: int = 2_000_000,
    allow_unprotected: bool = False,
    flight_recorder=None,
    observers: Sequence[ExecutionObserver] = (),
    alarm_sink=None,
) -> Tuple[RunResult, IPDS]:
    """Run a protected program with the IPDS attached.

    Extra ``observers`` (timing models, recorders) ride the same
    execution behind the IPDS on the bus.  ``alarm_sink`` is forwarded
    to the IPDS — the per-alarm hook an online alarm policy uses.
    """
    ipds = program.new_ipds(
        allow_unprotected=allow_unprotected,
        flight_recorder=flight_recorder,
        alarm_sink=alarm_sink,
    )
    result = observed_run(
        program,
        observers=[ipds, *observers],
        inputs=inputs,
        entry=entry,
        tamper=tamper,
        step_limit=step_limit,
    )
    return result, ipds


def resolve_target(target: str, read_files: bool = True) -> Tuple[str, str]:
    """Resolve a program spec to ``(source text, name)``.

    One rule shared by every front end (CLI verbs, the detection
    daemon): a registered workload name resolves from the registry;
    anything else is treated as a path to a mini-C file (when
    ``read_files``) or rejected.  Raises ``KeyError`` for an unknown
    workload when file reading is disabled, ``OSError`` for an
    unreadable path.
    """
    from .workloads.registry import get_workload, workload_names

    if target in workload_names():
        return get_workload(target).source, target
    if not read_files:
        raise KeyError(
            f"unknown workload {target!r} and file access is disabled"
        )
    with open(target, "r", encoding="utf-8") as handle:
        return handle.read(), target
