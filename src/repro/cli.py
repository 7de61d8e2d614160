"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``compile FILE``  — compile a mini-C file; dump the IR, the branch
  correlation tables, and their encoded sizes;
* ``run FILE``      — execute under IPDS monitoring with given inputs;
* ``attack FILE``   — execute with a single-word tampering injected and
  report whether control flow changed and whether the IPDS caught it;
* ``campaign NAME`` — run a Figure-7 style campaign against one of the
  built-in server workloads (or ``all``), optionally sharded across
  processes with ``--jobs``;
* ``timing NAME``   — baseline-vs-IPDS timing for one workload;
* ``audit TARGET``  — statically re-prove the soundness of the emitted
  correlation tables (file, workload name, or ``all``); exit 1 means
  diagnostics were found, exit 2 means the tool itself failed;
* ``lint TARGET``   — dead/infeasible-branch and unreachable-code
  warnings from fixpoint range reasoning (same exit convention);
* ``coverage TARGET`` — static protection-coverage report: per-function
  protected-branch fractions, a reason per unprotected branch, and the
  program's detectable tamper surface (informational; ``--fail-on
  never`` by default);
* ``explain FILE TRACE`` — replay a recorded trace through a session
  with a flight recorder attached and explain every alarm against the
  compiler's provenance records (exit 0 no alarms / 1 explained alarms
  / 2 tool error, the audit convention);
* ``bench-diff``    — compare fresh ``BENCH_*.json`` files against the
  committed baselines in ``benchmarks/baselines/`` (same convention);
* ``serve``         — long-lived detection daemon multiplexing many
  concurrent sessions over a local socket (NDJSON protocol, shared
  compile cache, per-session alarm policies; see DESIGN.md §4f);
* ``obs``           — campaign forensics observatory: aggregate a
  campaign's ``--forensics --trace-out`` outcome log into
  explained-correlation histograms (which compiler proofs caught the
  detected attacks, per reason and per workload).

``--version`` prints the package version (sourced from pyproject.toml).

Every ``FILE`` is a mini-C file or the name of a built-in workload
(:func:`repro.pipeline.resolve_target`).  A tool error in any verb — a
missing file, a parse error, a malformed trace — prints ``error: ...``
on stderr and exits 2.

Forensics: ``run``, ``attack`` and ``campaign`` accept ``--forensics``
(attach a bounded flight recorder and print a causal explanation for
every alarm) and ``--flight-recorder-depth N``, which ``explain`` takes
too; the single-run commands also take ``--forensics-out PATH`` for the
JSON ``AlarmReport`` document.

Observability: ``run``, ``attack``, ``campaign`` and ``timing`` accept
``--metrics-out PATH`` (a structured JSON run manifest, or append-mode
JSONL when the path ends in ``.jsonl``) and ``--trace-out PATH``
(committed control-flow events for the single-run commands — directly
replayable with ``repro.cli replay`` or ``explain`` — or a per-attack
outcome log for campaigns).  The same verbs accept ``--prom-out PATH`` (Prometheus
text-exposition rendering of the run's metrics, histograms included)
and ``--chrome-trace-out PATH`` (hierarchical spans as Chrome
trace-event JSON, loadable in Perfetto).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional, Sequence

from .attacks.campaign import CampaignConfig, run_workload_campaign
from .correlation.encoding import table_sizes
from .cpu.simulator import normalized_performance
from .interp.interpreter import TamperSpec
from .ir.printer import format_module
from .lang.errors import ReproError
from .observability import (
    JsonlWriter,
    MetricsRegistry,
    RunManifest,
    Tracer,
    write_manifest,
    write_prometheus,
    write_spans,
)
from .parallel.engine import run_campaign
from .pipeline import compile_program, compile_program_cached, resolve_target
from .runtime.flight_recorder import DEFAULT_DEPTH
from .runtime.replay import TraceRecorder, dump_trace, read_trace
from .workloads.registry import get_workload, workload_names


def _inputs(text: str) -> List[int]:
    try:
        return [int(piece) for piece in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a list of integers: {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0-65535, got {value}")
    return value


def _address(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a word address (decimal or 0x...): {text!r}"
        ) from None


def cmd_compile(args: argparse.Namespace) -> int:
    source, name = resolve_target(args.file)
    program = compile_program(source, name, args.opt, check=args.check)
    if args.ir:
        print(format_module(program.module, show_addresses=True))
        print()
    for tables in program.tables:
        print(tables.describe())
        sizes = table_sizes(tables)
        print(
            f"  sizes: BSV {sizes.bsv_bits}b, BCV {sizes.bcv_bits}b, "
            f"BAT {sizes.bat_bits}b"
        )
    for stats in program.build_stats:
        print(
            f"stats {stats.function_name}: {stats.branches} branches, "
            f"{stats.checked} checked, {stats.set_entries} sets, "
            f"{stats.kill_entries} kills, hash trials {stats.hash_trials}"
        )
    return 0


def _emit_telemetry(
    args: argparse.Namespace,
    manifest: RunManifest,
    tracer: Tracer,
    **results: object,
) -> None:
    """The shared ``--prom-out`` / ``--chrome-trace-out`` /
    ``--metrics-out`` sink block: one span tree, three renderings."""
    prom_out = getattr(args, "prom_out", None)
    if prom_out:
        write_prometheus(tracer.metrics, prom_out)
        print(f"metrics: prometheus -> {prom_out}")
    chrome_out = getattr(args, "chrome_trace_out", None)
    if chrome_out:
        count = write_spans(tracer.finished, chrome_out)
        print(f"spans: {count} -> {chrome_out}")
    if args.metrics_out:
        manifest.finish(tracer, **results)
        write_manifest(manifest, args.metrics_out)
        print(f"metrics: manifest -> {args.metrics_out}")


def _report_forensics(args: argparse.Namespace, session) -> None:
    """Print the session's alarm explanations (and write them to
    ``--forensics-out`` as JSON when requested) under ``--forensics``;
    the session explained its alarms once already."""
    if not args.forensics:
        return
    from .forensics import render_reports_text, reports_to_json
    from .staticcheck import write_output

    print("forensics:")
    print(render_reports_text(session.reports))
    if args.forensics_out:
        document = session.forensics_json or reports_to_json(session.reports)
        write_output(document, args.forensics_out)
        if args.forensics_out != "-":
            print(f"forensics report -> {args.forensics_out}")


def _run_session(spec):
    """Drive one CLI-owned detection session to a terminal state; the
    session's own span tree is the verb's."""
    from .service.engine import DetectionSession

    session = DetectionSession(spec)
    session.execute()
    return session


def cmd_run(args: argparse.Namespace) -> int:
    from .service.engine import SessionSpec

    manifest = RunManifest.begin(
        "run",
        file=args.file,
        inputs=args.inputs,
        opt=args.opt,
    )
    spec = SessionSpec(
        mode="run",
        workload=args.file,
        inputs=tuple(args.inputs),
        opt_level=args.opt,
        forensics=args.forensics,
        flight_recorder_depth=args.flight_recorder_depth,
        record_trace=bool(args.trace_out),
    )
    session = _run_session(spec)
    result = session.run_result
    ipds = session.ipds
    print(f"status : {result.status.value}")
    print(f"outputs: {result.outputs}")
    print(f"steps  : {result.steps}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            count = dump_trace(session.trace_events, handle)
        print(f"trace  : {count} events -> {args.trace_out}")
    _emit_telemetry(
        args,
        manifest,
        session.tracer,
        status=result.status.value,
        outputs=list(result.outputs),
        steps=result.steps,
        alarms=[str(alarm) for alarm in ipds.alarms],
    )
    if ipds.detected:
        for alarm in ipds.alarms:
            print(f"ALARM  : {alarm}")
        _report_forensics(args, session)
        return 2
    print("alarms : none")
    _report_forensics(args, session)
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    from .service.engine import SessionSpec

    manifest = RunManifest.begin(
        "attack",
        file=args.file,
        inputs=args.inputs,
        trigger_kind=args.trigger_kind,
        trigger=args.trigger,
        address=args.address,
        value=args.value,
        opt=args.opt,
    )
    tamper = TamperSpec(
        trigger_kind=args.trigger_kind,
        trigger_value=args.trigger,
        address=args.address,
        value=args.value,
    )
    spec = SessionSpec(
        mode="attack",
        workload=args.file,
        inputs=tuple(args.inputs),
        opt_level=args.opt,
        forensics=args.forensics,
        flight_recorder_depth=args.flight_recorder_depth,
        record_trace=bool(args.trace_out),
        tamper=tamper,
    )
    session = _run_session(spec)
    attack = session.attack
    outcome = attack.outcome
    print(f"tamper fired        : {outcome.fired}")
    print(f"control flow changed: {outcome.control_flow_changed}")
    print(f"outputs             : {attack.clean.outputs} -> {attack.attacked.outputs}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            count = dump_trace(session.trace_events, handle)
        print(f"trace               : {count} events -> {args.trace_out}")
    _emit_telemetry(
        args,
        manifest,
        session.tracer,
        tamper_fired=outcome.fired,
        control_flow_changed=outcome.control_flow_changed,
        detected=outcome.detected,
        alarms=list(outcome.alarms),
    )
    if outcome.detected:
        print(f"DETECTED            : {outcome.alarms[0]}")
        _report_forensics(args, session)
        return 2
    print("detected            : no")
    _report_forensics(args, session)
    return 0


#: ``audit``/``lint`` exit codes: 0 = clean, 1 = diagnostics at or above
#: the --fail-on severity, 2 = the tool itself failed (bad file, parse
#: error, ...; every verb maps ``OSError``/``ReproError`` to it in
#: :func:`main`).  Distinct from ``run``/``attack``, whose exit 2 means
#: "IPDS alarm" on an otherwise successful run.
EXIT_CLEAN = 0
EXIT_DIAGNOSTICS = 1
EXIT_TOOL_ERROR = 2


def _staticcheck_targets(args: argparse.Namespace):
    """Resolve the audit/lint target into [(label, source, name)]."""
    if args.target == "all":
        return [
            (f"{name}@opt{args.opt}", get_workload(name).source, name)
            for name in workload_names()
        ]
    source, name = resolve_target(args.target)
    return [(f"{name}@opt{args.opt}", source, name)]


def _run_staticcheck(args: argparse.Namespace, passes, fail_on: str) -> int:
    from .staticcheck import (
        Severity,
        json_report,
        render_text,
        run_passes,
        sarif_report,
        write_output,
    )

    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    manifest = RunManifest.begin(
        args.command, target=args.target, opt=args.opt, fail_on=fail_on
    )
    groups = []
    for label, source, name in _staticcheck_targets(args):
        with tracer.span("compile"):
            program = compile_program(source, name, args.opt)
        diagnostics = run_passes(
            program, names=passes, metrics=metrics, tracer=tracer
        )
        groups.append((label, diagnostics))

    for label, diagnostics in groups:
        print(f"== {label}")
        print(render_text(diagnostics))
    if args.json:
        write_output(json_report(groups), args.json)
    if args.sarif:
        write_output(sarif_report(groups), args.sarif)

    combined = [d for _, diagnostics in groups for d in diagnostics]
    _emit_telemetry(
        args,
        manifest,
        tracer,
        targets=len(groups),
        diagnostics=len(combined),
        errors=sum(1 for d in combined if d.severity is Severity.ERROR),
        warnings=sum(
            1 for d in combined if d.severity is Severity.WARNING
        ),
    )
    if fail_on != "never":
        threshold = Severity(fail_on)
        if any(d.severity.at_least(threshold) for d in combined):
            return EXIT_DIAGNOSTICS
    return EXIT_CLEAN


def cmd_audit(args: argparse.Namespace) -> int:
    from .staticcheck import AUDIT_PASSES

    return _run_staticcheck(args, AUDIT_PASSES, args.fail_on)


def cmd_lint(args: argparse.Namespace) -> int:
    from .staticcheck import LINT_PASSES

    return _run_staticcheck(args, LINT_PASSES, args.fail_on)


def cmd_coverage(args: argparse.Namespace) -> int:
    from .staticcheck import COVERAGE_PASSES

    if getattr(args, "compare_opt", False):
        return _coverage_compare_opt(args)
    return _run_staticcheck(args, COVERAGE_PASSES, args.fail_on)


def cmd_predict(args: argparse.Namespace) -> int:
    from .staticcheck import PREDICT_PASSES

    return _run_staticcheck(args, PREDICT_PASSES, args.fail_on)


def _protected_branch_labels(program) -> set:
    """The identity set ``--compare-opt`` tracks: (function, block) of
    every BCV-verified conditional branch."""
    labels = set()
    for fn_name, tables in program.tables.by_function.items():
        for meta in tables.branch_meta:
            if tables.is_checked(meta.pc):
                labels.add((fn_name, meta.block_label))
    return labels


def _coverage_compare_opt(args: argparse.Namespace) -> int:
    """``repro coverage --compare-opt``: protected-branch monotonicity
    across optimization levels.

    Levels 1→2→3 share one optimized IR and only deepen the analysis
    (interprocedural summaries, then feasible-path pruning), so their
    protected-branch *sets* must grow monotonically — any branch
    protected at opt N still protected at opt N+1.  A violation means
    a deeper analysis lost a correlation it already had, and exits 1.

    The 0→1 step is reported but not asserted: the optimizer rewrites
    the IR itself (folding stores that were correlation evidence), so
    branches protected at opt 0 can legitimately disappear.
    """
    tracer = Tracer(metrics=MetricsRegistry())
    manifest = RunManifest.begin(
        args.command, target=args.target, compare_opt=True
    )
    violations = []
    targets = _staticcheck_targets(args)
    for label, source, name in targets:
        with tracer.span("compile"):
            programs = {
                opt: compile_program(source, name, opt) for opt in (0, 1, 2, 3)
            }
        sets = {
            opt: _protected_branch_labels(program)
            for opt, program in programs.items()
        }
        totals = {
            opt: sum(
                len(tables.branch_pcs)
                for tables in program.tables.by_function.values()
            )
            for opt, program in programs.items()
        }
        print(f"== {name}")
        print("  opt  protected  total  pct     delta")
        for opt in (0, 1, 2, 3):
            count, total = len(sets[opt]), totals[opt]
            pct = 100.0 * count / total if total else 0.0
            if opt == 0:
                delta = ""
            else:
                gained = len(sets[opt] - sets[opt - 1])
                lost = len(sets[opt - 1] - sets[opt])
                delta = f"+{gained}/-{lost} vs opt{opt - 1}"
                if opt == 1:
                    delta += "  (informational: optimizer rewrites the IR)"
                elif lost:
                    missing = sorted(sets[opt - 1] - sets[opt])
                    violations.append((name, opt, missing))
                    delta += "  MONOTONICITY VIOLATION"
            print(
                f"  {opt}    {count:<9} {total:<6} {pct:5.1f}%  {delta}"
            )
    for name, opt, missing in violations:
        lost = ", ".join(f"{fn}/{block}" for fn, block in missing)
        print(
            f"VIOLATION: {name}: branches protected at opt{opt - 1} "
            f"lost at opt{opt}: {lost}",
            file=sys.stderr,
        )
    _emit_telemetry(
        args,
        manifest,
        tracer,
        targets=len(targets),
        violations=len(violations),
    )
    return EXIT_DIAGNOSTICS if violations else EXIT_CLEAN


def cmd_replay(args: argparse.Namespace) -> int:
    from .service.engine import SessionSpec

    spec = SessionSpec(
        mode="replay",
        workload=args.file,
        opt_level=args.opt,
        trace_text=read_trace(args.trace),
    )
    session = _run_session(spec)
    if session.alarms:
        for alarm in session.alarms:
            print(f"ALARM: {alarm}")
        return 2
    print("trace is clean (no infeasible paths)")
    return 0


def _dump_outcomes(results, path: str) -> int:
    """Write one JSONL record per attack outcome (campaign --trace-out)."""
    writer = JsonlWriter(path)
    for result in results:
        for outcome in result.attacks:
            writer.write(outcome.to_record(result.workload))
    return writer.records_written


def _print_campaign_forensics(results) -> None:
    """Per-attack explanation summaries for detected attacks."""
    explained = [
        (result.workload, outcome)
        for result in results
        for outcome in result.attacks
        if outcome.explanations
    ]
    if not explained:
        return
    print(f"forensics: {len(explained)} detected attack(s) explained")
    for workload, outcome in explained:
        for chain in outcome.explanations:
            print(f"  {workload}#{outcome.index} "
                  f"[{outcome.target_label}={outcome.value}]: {chain}")


def cmd_explain(args: argparse.Namespace) -> int:
    """Replay a recorded trace through a forensics session and explain
    its alarms offline.

    Exit codes follow the ``audit`` convention: 0 = no alarms, 1 =
    alarms were raised (and explained), 2 = tool error.
    """
    from .forensics import render_reports_text, reports_to_json
    from .service.engine import SessionSpec
    from .staticcheck import sarif_report, write_output

    manifest = RunManifest.begin(
        "explain", file=args.file, trace=args.trace, opt=args.opt
    )
    spec = SessionSpec(
        mode="replay",
        workload=args.file,
        opt_level=args.opt,
        forensics=True,
        flight_recorder_depth=args.flight_recorder_depth,
        trace_text=read_trace(args.trace),
    )
    session = _run_session(spec)
    reports = session.reports
    print(render_reports_text(reports))
    if args.json:
        write_output(reports_to_json(reports), args.json)
    if args.sarif:
        diagnostics = [report.to_diagnostic() for report in reports]
        write_output(
            sarif_report([(session.program_name, diagnostics)]), args.sarif
        )
    _emit_telemetry(
        args,
        manifest,
        session.tracer,
        events=len(session.trace_events),
        alarms=len(reports),
        explained=sum(1 for report in reports if report.explained),
    )
    return EXIT_DIAGNOSTICS if reports else EXIT_CLEAN


def cmd_bench_diff(args: argparse.Namespace) -> int:
    from .observability.benchdiff import run_diff

    return run_diff(args)


def cmd_obs(args: argparse.Namespace) -> int:
    """Aggregate a campaign outcome log into explained-correlation
    histograms (``repro obs``).  Exit 0 on success, 2 on tool error."""
    from .forensics.observatory import ObservatoryError, observe_log
    from .staticcheck import write_output

    try:
        observation = observe_log(args.outcomes)
    except (OSError, ObservatoryError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_TOOL_ERROR
    if args.json:
        write_output(observation.to_json(), args.json)
        if args.json != "-":
            print(f"observatory report -> {args.json}")
    if args.json != "-":
        print(observation.render_text())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    manifest = RunManifest.begin(
        "campaign",
        workload=args.workload,
        attacks=args.attacks,
        jobs=args.jobs,
        model=args.model,
        opt=args.opt,
        seed_prefix=args.seed_prefix,
        timed=args.timed,
    )
    config = CampaignConfig(
        attack_model=args.model,
        opt_level=args.opt,
        forensics=args.forensics,
        flight_recorder_depth=args.flight_recorder_depth,
        timed=args.timed,
    )
    if args.workload == "all":
        from .reporting import render_figure7

        summary = run_campaign(
            attacks=args.attacks,
            seed_prefix=args.seed_prefix,
            config=config,
            jobs=args.jobs,
            metrics=metrics,
            tracer=tracer,
        )
        print(render_figure7(summary))
        results = summary.results
        outcome_summary: dict = {
            "workloads": len(summary.results),
            "avg_pct_changed": summary.avg_pct_changed,
            "avg_pct_detected": summary.avg_pct_detected,
        }
    else:
        workload = get_workload(args.workload)
        result = run_workload_campaign(
            workload,
            attacks=args.attacks,
            seed_prefix=args.seed_prefix,
            config=config,
            jobs=args.jobs,
            metrics=metrics,
            tracer=tracer,
        )
        print(f"workload {workload.name} ({workload.vuln_kind}), "
              f"{result.total} attacks:")
        print(f"  control flow changed: {result.changed} "
              f"({result.pct_changed:.1f}%)")
        print(f"  detected            : {result.detected} "
              f"({result.pct_detected:.1f}%)")
        print(f"  detected of changed : "
              f"{result.pct_detected_of_changed:.1f}%")
        cycles = [a.cycles for a in result.attacks if a.cycles is not None]
        if cycles:
            print(f"  avg attack cycles   : {sum(cycles) / len(cycles):.0f}")
        results = [result]
        outcome_summary = {
            "total": result.total,
            "changed": result.changed,
            "detected": result.detected,
        }
    if args.forensics:
        _print_campaign_forensics(results)
    if args.trace_out:
        count = _dump_outcomes(results, args.trace_out)
        print(f"outcomes: {count} records -> {args.trace_out}")
    _emit_telemetry(args, manifest, tracer, **outcome_summary)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the long-lived detection daemon (``repro serve``)."""
    from .service.daemon import DetectionDaemon

    daemon = DetectionDaemon(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        quarantine_dir=args.quarantine_dir,
        default_policy=args.policy,
        trace_out=args.trace_out,
    )
    daemon.on_ready = lambda where: print(
        f"serving on {where} ({args.max_workers} workers)", flush=True
    )
    try:
        return daemon.run()
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down", file=sys.stderr)
        return 0


def cmd_timing(args: argparse.Namespace) -> int:
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    manifest = RunManifest.begin(
        "timing", workload=args.workload, scale=args.scale
    )
    workload = get_workload(args.workload)
    with tracer.span("timing", workload=args.workload, scale=args.scale):
        with tracer.span("compile"):
            program = compile_program_cached(workload.source, workload.name)
        inputs = workload.make_inputs(
            random.Random(f"cli:{workload.name}"), args.scale
        )
        observers: List[object] = []
        recorder: Optional[TraceRecorder] = None
        if args.trace_out:
            recorder = TraceRecorder()
            observers.append(recorder)
        with tracer.span("simulate"):
            comp = normalized_performance(
                program, inputs, workload.name, observers=observers
            )
    metrics.increment("timing.instructions", comp.instructions)
    metrics.increment("timing.baseline_cycles", comp.baseline_cycles)
    metrics.increment("timing.ipds_cycles", comp.ipds_cycles)
    print(f"workload {workload.name}: {comp.instructions} instructions")
    print(f"  baseline cycles : {comp.baseline_cycles}")
    print(f"  IPDS cycles     : {comp.ipds_cycles}")
    print(f"  normalized perf : {comp.normalized_performance:.4f} "
          f"({comp.degradation_pct:.3f}% degradation)")
    print(f"  check latency   : {comp.avg_check_latency:.1f} cycles")
    if recorder is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            count = dump_trace(recorder.events, handle)
        print(f"  trace           : {count} events -> {args.trace_out}")
    _emit_telemetry(
        args,
        manifest,
        tracer,
        instructions=comp.instructions,
        baseline_cycles=comp.baseline_cycles,
        ipds_cycles=comp.ipds_cycles,
        normalized_performance=comp.normalized_performance,
        avg_check_latency=comp.avg_check_latency,
    )
    return 0


def _add_opt_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--opt", type=int, default=0, choices=[0, 1, 2, 3],
                   help="optimization level: 0/1 intra-procedural, "
                        "2 adds summary-based interprocedural analysis, "
                        "3 adds feasible-path-sensitive correlation")


def _add_report_args(
    p: argparse.ArgumentParser,
    json_help: str = "write a JSON report ('-' for stdout)",
    sarif_help: str = "write a SARIF 2.1.0 report ('-' for stdout)",
    metrics: bool = True,
) -> None:
    """The shared report-output flag block (--json/--sarif[/--metrics-out])
    of the static-analysis subcommands."""
    p.add_argument("--json", default=None, metavar="PATH", help=json_help)
    p.add_argument("--sarif", default=None, metavar="PATH", help=sarif_help)
    if metrics:
        p.add_argument("--metrics-out", default=None,
                       help="write a JSON run manifest with per-pass "
                            "timing spans")


def _add_forensics_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--forensics", action="store_true",
                   help="attach a flight recorder and explain any alarms "
                        "(setting event, violated compiler correlation, "
                        "causal chain)")
    _add_flight_recorder_depth_arg(p)


def _add_flight_recorder_depth_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--flight-recorder-depth", type=_positive_int,
                   default=DEFAULT_DEPTH, metavar="N",
                   help=f"flight recorder ring size in committed events "
                        f"(default {DEFAULT_DEPTH})")


def _add_observability_args(
    p: argparse.ArgumentParser,
    trace_help: str = "write the control-flow event trace "
    "(replayable with the 'replay' subcommand)",
) -> None:
    p.add_argument("--metrics-out", default=None,
                   help="write a JSON run manifest (counters, spans, "
                        "results); appends one line if path ends in .jsonl")
    p.add_argument("--trace-out", default=None, help=trace_help)
    p.add_argument("--prom-out", default=None, metavar="PATH",
                   help="write the run's metrics (counters, gauges, "
                        "span-duration histograms) in Prometheus text "
                        "exposition format")
    p.add_argument("--chrome-trace-out", default=None, metavar="PATH",
                   help="write the run's hierarchical spans as Chrome "
                        "trace-event JSON (Perfetto-loadable; a .jsonl "
                        "path appends one span record per line instead)")


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="IPDS: infeasible-path anomaly detection toolkit.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile and dump tables")
    p.add_argument("file")
    p.add_argument("--ir", action="store_true", help="also dump the IR")
    _add_opt_arg(p)
    p.add_argument("--check", action="store_true",
                   help="run the static soundness auditor on the emitted "
                        "tables and fail on any error-severity diagnostic")
    p.set_defaults(func=cmd_compile)

    for name, help_text, default_fail, func in (
        ("audit", "statically re-prove table soundness", "error",
         cmd_audit),
        ("lint", "dead/infeasible branch and unreachable-code report",
         "warning", cmd_lint),
        ("coverage", "static protection-coverage report (COV6xx)",
         "never", cmd_coverage),
        ("predict", "static tamper-detectability verdicts (DET8xx)",
         "never", cmd_predict),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("target",
                       help="a mini-C file, a workload name, or 'all'")
        _add_opt_arg(p)
        p.add_argument("--fail-on", choices=["error", "warning", "never"],
                       default=default_fail,
                       help=f"exit 1 at/above this severity "
                            f"(default: {default_fail})")
        if name == "coverage":
            p.add_argument(
                "--compare-opt", action="store_true",
                help="compile at opt 0-3 and assert protected-branch "
                     "set monotonicity across the fixed-IR chain "
                     "1→2→3 (0→1 reported informationally)")
        _add_report_args(p)
        p.set_defaults(func=func)

    p = sub.add_parser("run", help="run a program under IPDS monitoring")
    p.add_argument("file")
    p.add_argument("--inputs", type=_inputs, default="", help="e.g. '1 2 3'")
    _add_opt_arg(p)
    _add_forensics_args(p)
    p.add_argument("--forensics-out", default=None, metavar="PATH",
                   help="write the alarm forensics report as JSON "
                        "('-' for stdout)")
    _add_observability_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack", help="run with a memory tampering")
    p.add_argument("file")
    p.add_argument("--inputs", type=_inputs, default="")
    _add_opt_arg(p)
    p.add_argument("--trigger-kind", choices=["read", "step"], default="read")
    p.add_argument("--trigger", type=_positive_int, required=True,
                   help="input index / step count that fires the tamper "
                        "(1-based)")
    p.add_argument("--address", type=_address, required=True,
                   help="word address to corrupt (accepts 0x..)")
    p.add_argument("--value", type=int, required=True)
    _add_forensics_args(p)
    p.add_argument("--forensics-out", default=None, metavar="PATH",
                   help="write the alarm forensics report as JSON "
                        "('-' for stdout)")
    _add_observability_args(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("replay", help="check a recorded trace offline")
    p.add_argument("file")
    p.add_argument("trace")
    _add_opt_arg(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("campaign", help="Figure-7 campaign on a workload")
    p.add_argument("workload", choices=workload_names() + ["all"],
                   help="one server, or 'all' for the full registry")
    p.add_argument("--attacks", type=_positive_int, default=100)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="shard attacks across N processes (same results "
                        "at any value; see docs on seed semantics)")
    _add_opt_arg(p)
    p.add_argument("--model", choices=["input", "process"], default="input")
    p.add_argument("--seed-prefix", default="",
                   help="campaign seed namespace (attack i draws from "
                        "seed '<prefix><workload>:<i>')")
    p.add_argument("--timed", action="store_true",
                   help="attach the timing model to every attack run and "
                        "record cycle counts (detection results are "
                        "identical either way)")
    _add_forensics_args(p)
    _add_observability_args(
        p, trace_help="append per-attack outcome records as JSONL"
    )
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "explain",
        help="replay a recorded trace and explain its alarms "
             "(exit 0 no alarms / 1 explained alarms / 2 tool error)",
    )
    p.add_argument("file", help="a mini-C file or a workload name")
    p.add_argument("trace", help="event trace from run/attack --trace-out")
    _add_opt_arg(p)
    _add_flight_recorder_depth_arg(p)
    _add_report_args(
        p,
        json_help="write the AlarmReport document ('-' for stdout)",
        sarif_help="write alarms as SARIF 2.1.0 FOR501/FOR502 "
                   "diagnostics ('-' for stdout)",
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "obs",
        help="campaign forensics observatory: which compiler proofs "
             "caught the detected attacks (reads a campaign "
             "--forensics --trace-out outcome log)",
    )
    p.add_argument("outcomes",
                   help="per-attack outcome JSONL from "
                        "'campaign --forensics --trace-out'")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the observatory report as JSON "
                        "('-' for stdout)")
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser(
        "bench-diff",
        help="compare BENCH_*.json against committed baselines "
             "(exit 0 ok / 1 regression / 2 tool error)",
    )
    from .observability.benchdiff import build_arg_parser as _bench_args

    _bench_args(p)
    p.set_defaults(func=cmd_bench_diff)

    p = sub.add_parser(
        "serve",
        help="long-lived detection daemon (line-delimited JSON over "
             "a local socket)",
    )
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="unix domain socket path (default: TCP)")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind address when no --socket is given")
    p.add_argument("--port", type=_port, default=0,
                   help="TCP port (0 = ephemeral, printed at startup)")
    p.add_argument("--max-workers", type=_positive_int, default=8,
                   metavar="N",
                   help="concurrently executing sessions (default 8)")
    p.add_argument("--quarantine-dir", default=None, metavar="DIR",
                   help="default directory for the quarantine policy's "
                        "replayable traces")
    p.add_argument("--policy", default=None,
                   choices=["log", "kill-session", "quarantine"],
                   help="default alarm policy for sessions that don't "
                        "name one (default: log)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record per-session spans under one daemon root "
                        "span and write them at shutdown (Chrome "
                        "trace-event JSON; .jsonl appends span records)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("timing", help="Figure-9 timing for a workload")
    p.add_argument("workload", choices=workload_names())
    p.add_argument("--scale", type=_positive_int, default=10)
    _add_observability_args(p)
    p.set_defaults(func=cmd_timing)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ReproError) as error:
        # A missing file, a parse error, a malformed trace or image:
        # the tool failed, whatever the verb.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_TOOL_ERROR
    except KeyboardInterrupt:
        # Ctrl-C during a campaign (or any verb) exits with the
        # conventional 130 instead of a executor traceback; in-flight
        # shard futures are cancelled by the engine's cleanup.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
