"""Where the traced run puts its wrappers, and the per-layer metrics.

Each wrapper names the module or class attribute a layer's callers look
up and the ledger key its self time is charged to.  A target that a
later refactor renames is reported in ``trace.missing_wrappers`` and its
time stays with its caller (or in ``trace.unattributed_s``); the run
does not fail.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional, Tuple

from ledger import Ledger

#: Ledger keys, in report order.  Each becomes the per-layer metric
#: ``<key>_s``; together with ``trace.unattributed_s`` they sum to
#: ``trace.wall_s``.
LEDGER_KEYS = (
    "attacks.clean",
    "attacks.probe",
    "attacks.attack",
    "attacks.other",
    "interp.other",
    "cpu.batch",
    "cpu.branch",
    "cpu.ipds_hw",
    "lang.parse",
    "ir.lower",
    "ir.verify",
    "opt.optimize",
    "analysis.alias",
    "analysis.purity",
    "analysis.summaries",
    "analysis.defs",
    "analysis.branches",
    "analysis.feasible",
    "correlation.hash",
    "correlation.tables",
    "parallel.cache",
    "staticcheck.ir-verify",
    "staticcheck.correlation-audit",
    "staticcheck.interproc-audit",
    "staticcheck.feasible-audit",
    "staticcheck.image-audit",
    "staticcheck.detectability",
    "staticcheck.other",
    "detectability.prep",
    "detectability.reachability",
    "detectability.walk",
)

#: Counters reported beside the ledger, with their units.
COUNTERS = (
    ("attacks.executions", "count"),
    ("attacks.detected_of_changed_pct", "%"),
    ("interp.steps", "count"),
    ("interp.steps_counted", "count"),
    ("interp.steps_per_s", "1/s"),
    ("runtime.ipds_events", "count"),
    ("runtime.ipds_checks", "count"),
    ("cpu.batches", "count"),
    ("cpu.baseline_cycles", "cycles"),
    ("cpu.ipds_cycles", "cycles"),
    ("cpu.check_latency_cycles", "cycles"),
    ("cpu.commit_stalls", "count"),
    ("cpu.ipds_slowdown_pct", "%"),
    ("analysis.feasible_seeds", "count"),
    ("analysis.feasible_productive_seeds", "count"),
    ("correlation.hash_trials", "count"),
    ("correlation.set_actions.subsumption", "count"),
    ("correlation.set_actions.feasible-path", "count"),
    ("correlation.set_actions.interproc", "count"),
    ("parallel.setup_cache_hits", "count"),
    ("parallel.setup_cache_misses", "count"),
    ("parallel.timed_cache_hits", "count"),
    ("parallel.timed_cache_misses", "count"),
    ("staticcheck.audit_errors", "count"),
    ("detectability.walks", "count"),
    ("detectability.points.DET801", "count"),
    ("detectability.points.DET802", "count"),
    ("detectability.points.DET803", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.missing_wrappers", "count"),
)


def _count_calls(counter: str):
    def after(ledger: Ledger, result, args, kwargs) -> None:
        ledger.count(counter)

    return after


def _feasible_seeds(ledger: Ledger, result, args, kwargs) -> None:
    """Two edge seeds per conditional branch; productive ones yield a
    finding."""
    fn = args[0]
    ledger.count(
        "analysis.feasible_seeds",
        2 * sum(1 for block in fn.blocks if block.ends_in_cond_branch()),
    )
    ledger.count("analysis.feasible_productive_seeds", len(result.findings))


def _hash_trials(ledger: Ledger, result, args, kwargs) -> None:
    ledger.count("correlation.hash_trials", result.trials)


def _points(ledger: Ledger, result, args, kwargs) -> None:
    for verdict in result:
        ledger.count(f"detectability.points.{verdict.verdict}")


_PIPELINE = "repro.pipeline"
_BUILDER = "repro.correlation.bat_builder"
_CAMPAIGN = "repro.attacks.campaign"
_TIMING = "repro.cpu.pipeline.TimingModel"
_IPDS_HW = "repro.cpu.ipds_hw.IPDSHardwareModel"
_REGISTRY = "repro.staticcheck.registry"
_PROVER = "repro.staticcheck.detectability"

#: (owner, attribute, ledger key, hot, counter hook).  Hot hooks run
#: per event, so they accumulate self time and keep no span records.
WRAPPERS: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    (_PIPELINE, "compile_program_cached", "parallel.cache", False, None),
    (_PIPELINE, "parse_program", "lang.parse", False, None),
    (_PIPELINE, "lower_program", "ir.lower", False, None),
    (_PIPELINE, "verify_module", "ir.verify", False, None),
    ("repro.opt", "optimize_module", "opt.optimize", False, None),
    (_PIPELINE, "build_program_tables", "correlation.tables", False, None),
    (_BUILDER, "analyze_aliases", "analysis.alias", False, None),
    (_BUILDER, "analyze_purity", "analysis.purity", False, None),
    (_BUILDER, "analyze_summaries", "analysis.summaries", False, None),
    (_BUILDER, "analyze_definitions", "analysis.defs", False, None),
    (_BUILDER, "analyze_branches", "analysis.branches", False, None),
    (_BUILDER, "analyze_feasible", "analysis.feasible", False, _feasible_seeds),
    (_BUILDER, "find_perfect_hash", "correlation.hash", False, _hash_trials),
    (_CAMPAIGN, "run_workload_campaign", "attacks.other", False, None),
    (_CAMPAIGN, "run_attack", "attacks.other", False, None),
    ("repro.cpu.simulator", "normalized_performance", "interp.other", False, None),
    (_TIMING, "on_instructions", "cpu.batch", True, _count_calls("cpu.batches")),
    (_TIMING, "on_branch_outcome", "cpu.branch", True, None),
    (_TIMING, "on_call", "cpu.branch", True, None),
    (_TIMING, "on_return", "cpu.branch", True, None),
    (_IPDS_HW, "on_branch", "cpu.ipds_hw", True, None),
    (_IPDS_HW, "maybe_context_switch", "cpu.ipds_hw", True, None),
    (_IPDS_HW, "on_call", "cpu.ipds_hw", True, None),
    (_IPDS_HW, "on_return", "cpu.ipds_hw", True, None),
    ("repro.staticcheck", "run_passes", "staticcheck.other", False, None),
    (_REGISTRY, "analyze_aliases", "analysis.alias", False, None),
    (_REGISTRY, "analyze_purity", "analysis.purity", False, None),
    (_REGISTRY, "verify_module_diagnostics", "staticcheck.ir-verify", False, None),
    (_REGISTRY, "audit_program", "staticcheck.correlation-audit", False, None),
    (_REGISTRY, "audit_interproc", "staticcheck.interproc-audit", False, None),
    (_REGISTRY, "audit_feasible", "staticcheck.feasible-audit", False, None),
    (_REGISTRY, "audit_image", "staticcheck.image-audit", False, None),
    (_REGISTRY, "predict_detectability", "staticcheck.detectability", False, None),
    (f"{_PROVER}.DetectabilityAnalysis", "__init__", "detectability.prep", False, None),
    (f"{_PROVER}.DetectabilityAnalysis", "report", "staticcheck.detectability", False, _points),
    (_PROVER, "must_bsv_states", "detectability.prep", False, None),
    (_PROVER, "analyze_branches", "analysis.branches", False, None),
    (_PROVER, "entry_reachability", "detectability.reachability", False, None),
    (
        f"{_PROVER}.WalkGraph",
        "walk",
        "detectability.walk",
        True,
        _count_calls("detectability.walks"),
    ),
)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``."""
    return [(f"{key}_s", "s") for key in LEDGER_KEYS] + list(COUNTERS)


def _resolve(path: str):
    """A module, or a class inside one (``pkg.mod.Class``); ``None``
    when it no longer exists."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module_path, _, attr = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module_path), attr, None)
        except ImportError:
            return None


def install(ledger: Ledger) -> None:
    """Wrap every layer boundary for one traced section."""
    for path, attr, key, hot, hook in WRAPPERS:
        owner = _resolve(path)
        if owner is None:
            ledger.missing.append(f"{path}.{attr}")
            continue
        after = (lambda r, a, k, hook=hook: hook(ledger, r, a, k)) if hook else None
        ledger.install(owner, attr, key, hot=hot, after=after)
    _install_monitored_runs(ledger)
    _install_interpreters(ledger)


def _install_monitored_runs(ledger: Ledger) -> None:
    """``campaign.monitored_run`` is the clean run without a tamper and
    the attack run with one."""
    campaign = importlib.import_module(_CAMPAIGN)
    original = getattr(campaign, "monitored_run", None)
    if original is None:
        ledger.missing.append(f"{_CAMPAIGN}.monitored_run")
        return

    def after(result, args, kwargs) -> None:
        run, ipds = result
        ledger.count("attacks.executions")
        ledger.count("interp.steps", run.steps)
        ledger.count("runtime.ipds_events", ipds.stats.events)
        ledger.count("runtime.ipds_checks", ipds.stats.checks)

    clean = ledger.timed("attacks.clean", original, after=after)
    attack = ledger.timed("attacks.attack", original, after=after)

    def monitored_run(*args, **kwargs):
        if kwargs.get("tamper") is None:
            return clean(*args, **kwargs)
        return attack(*args, **kwargs)

    ledger.replace(campaign, "monitored_run", monitored_run)


def _install_interpreters(ledger: Ledger) -> None:
    """Count the steps of the executions the benchmark cannot see.

    The probe run is the interpreter the campaign module builds itself
    (its construction and run are ``attacks.probe``); the fig9
    execution is the one the simulator builds, charged to
    ``interp.other`` like the ``normalized_performance`` call around it.
    """
    def steps(result, args, kwargs) -> None:
        ledger.count("interp.steps", result.steps)

    def probe_steps(result, args, kwargs) -> None:
        steps(result, args, kwargs)
        ledger.count("attacks.executions")
        # Not reported: the self-test checks that the program's own
        # step counter misses exactly these.
        ledger.count("interp.probe_steps", result.steps)

    for path, key, after in (
        (_CAMPAIGN, "attacks.probe", probe_steps),
        ("repro.cpu.simulator", "interp.other", steps),
    ):
        module = importlib.import_module(path)
        base = getattr(module, "Interpreter", None)
        if base is None:
            ledger.missing.append(f"{path}.Interpreter")
            continue
        namespace = {
            "__init__": ledger.timed(key, base.__init__),
            "run": ledger.timed(key, base.run, after=after),
        }
        ledger.replace(module, "Interpreter", type(base.__name__, (base,), namespace))


def layer_metrics(ledger: Ledger, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric value (zero where the layer was idle)."""
    values: Dict[str, float] = {
        f"{key}_s": ledger.self_s.get(key, 0.0) for key in LEDGER_KEYS
    }
    for name, _unit in COUNTERS:
        values[name] = ledger.counts.get(name, 0)
    values.update(extra)
    values["trace.wall_s"] = ledger.wall_s
    values["trace.unattributed_s"] = ledger.unattributed_s
    values["trace.missing_wrappers"] = len(ledger.missing)
    return values
