"""Figure and table renderers — regenerates every result in §6.

Each ``render_*`` function returns the text of one paper artifact;
``python -m repro.reporting <fig7|fig8|fig9|table1|latency|all>`` prints
them.  The benchmark harness under ``benchmarks/`` calls the same
underlying experiment functions, so the numbers here and there agree.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .attacks.campaign import CampaignSummary
from .correlation.encoding import SizeSummary, summarize_sizes
from .cpu.params import IPDSHardwareParams, ProcessorParams
from .cpu.simulator import PerformanceComparison, normalized_performance
from .observability import MetricsRegistry, RunManifest, Tracer, write_manifest
from .parallel.engine import run_campaign
from .pipeline import compile_program_cached
from .workloads.registry import Workload, all_workloads


# ----------------------------------------------------------------------
# Figure 7: detection rate for simulated attacks
# ----------------------------------------------------------------------


def render_figure7(summary: CampaignSummary) -> str:
    lines = [
        "Figure 7. Detection rate for simulated attacks",
        "(per benchmark: % of tamperings changing control flow, and % detected)",
        "",
        f"{'benchmark':12s} {'vuln':4s} {'ctrl-flow-chg':>13s} "
        f"{'detected':>9s} {'det/changed':>11s}",
    ]
    for result in summary.results:
        lines.append(
            f"{result.workload:12s} {result.vuln_kind:4s} "
            f"{result.pct_changed:12.1f}% {result.pct_detected:8.1f}% "
            f"{result.pct_detected_of_changed:10.1f}%"
        )
    lines.append("-" * 56)
    lines.append(
        f"{'average':12s}      {summary.avg_pct_changed:12.1f}% "
        f"{summary.avg_pct_detected:8.1f}% "
        f"{summary.avg_pct_detected_of_changed:10.1f}%"
    )
    lines.append("")
    lines.append(
        "paper: avg 49.4% of tamperings change control flow; IPDS detects"
    )
    lines.append("29.3% of all tamperings = 59.3% of control-flow-changing ones")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 8: average table sizes in bits
# ----------------------------------------------------------------------


@dataclass
class Fig8Row:
    workload: str
    avg_bsv: float
    avg_bcv: float
    avg_bat: float


def figure8_data(
    workloads: Optional[Sequence[Workload]] = None,
) -> Tuple[List[Fig8Row], Fig8Row]:
    """Per-workload and overall average table sizes."""
    chosen = list(workloads) if workloads is not None else all_workloads()
    rows: List[Fig8Row] = []
    all_sizes: List[SizeSummary] = []
    for workload in chosen:
        program = compile_program_cached(workload.source, workload.name)
        summary = summarize_sizes(program.tables)
        all_sizes.append(summary)
        rows.append(
            Fig8Row(
                workload.name,
                summary.avg_bsv_bits,
                summary.avg_bcv_bits,
                summary.avg_bat_bits,
            )
        )
    count = len(rows) or 1
    average = Fig8Row(
        "average",
        sum(r.avg_bsv for r in rows) / count,
        sum(r.avg_bcv for r in rows) / count,
        sum(r.avg_bat for r in rows) / count,
    )
    return rows, average


def render_figure8(rows: List[Fig8Row], average: Fig8Row) -> str:
    lines = [
        "Figure 8. Average sizes (in bits) of BSV, BCV and BAT tables",
        "",
        f"{'benchmark':12s} {'BSV':>8s} {'BCV':>8s} {'BAT':>10s}",
    ]
    for row in rows:
        lines.append(
            f"{row.workload:12s} {row.avg_bsv:8.1f} {row.avg_bcv:8.1f} "
            f"{row.avg_bat:10.1f}"
        )
    lines.append("-" * 42)
    lines.append(
        f"{average.workload:12s} {average.avg_bsv:8.1f} "
        f"{average.avg_bcv:8.1f} {average.avg_bat:10.1f}"
    )
    lines.append("")
    lines.append("paper: BSV 34 bits, BCV 17 bits, BAT 393 bits (averages)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 1: simulated processor parameters
# ----------------------------------------------------------------------


def render_table1(
    processor: ProcessorParams = ProcessorParams(),
    ipds: IPDSHardwareParams = IPDSHardwareParams(),
) -> str:
    l1 = processor.l1i
    l2 = processor.l2
    rows = [
        ("Clock frequency", f"{processor.clock_hz // 10**9} GHz"),
        ("Fetch queue", f"{processor.fetch_queue} entries"),
        ("Decode width", str(processor.decode_width)),
        ("Issue width", str(processor.issue_width)),
        ("Commit width", str(processor.commit_width)),
        ("RUU size", str(processor.ruu_size)),
        ("LSQ size", str(processor.lsq_size)),
        ("Branch predictor", "2 Level"),
        (
            "L1 I/D",
            f"{l1.size_bytes // 1024}K, {l1.associativity} way, "
            f"{l1.latency} cycle, {l1.block_bytes}B block",
        ),
        (
            "Unified L2",
            f"{l2.size_bytes // 1024}K, {l2.associativity} way, "
            f"{l2.block_bytes}B block, latency {l2.latency} cycles",
        ),
        ("Memory bus", f"200M, {processor.memory_bus_bytes} Byte wide"),
        (
            "Memory latency",
            f"first chunk: {processor.memory_first_chunk} cycles, "
            f"inter chunk: {processor.memory_inter_chunk} cycles",
        ),
        ("TLB miss", f"{processor.tlb_miss_latency} cycles"),
        ("BSV stack", f"{ipds.bsv_stack_bits // 1024}K bits"),
        ("BCV stack", f"{ipds.bcv_stack_bits // 1024}K bits"),
        ("BAT stack", f"{ipds.bat_stack_bits // 1024}K bits"),
    ]
    width = max(len(label) for label, _ in rows)
    lines = ["Table 1. Default parameters of the processor simulated", ""]
    lines.extend(f"{label:<{width}s}  {value}" for label, value in rows)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 9: normalized performance
# ----------------------------------------------------------------------


def figure9_data(
    scale: int = 20,
    workloads: Optional[Sequence[Workload]] = None,
    processor: ProcessorParams = ProcessorParams(),
    ipds_params: IPDSHardwareParams = IPDSHardwareParams(),
) -> List[PerformanceComparison]:
    """Baseline-vs-IPDS timing runs for every workload."""
    chosen = list(workloads) if workloads is not None else all_workloads()
    comparisons: List[PerformanceComparison] = []
    for workload in chosen:
        program = compile_program_cached(workload.source, workload.name)
        rng = random.Random(f"fig9:{workload.name}")
        inputs = workload.make_inputs(rng, scale)
        comparisons.append(
            normalized_performance(
                program,
                inputs,
                workload.name,
                processor=processor,
                ipds_params=ipds_params,
            )
        )
    return comparisons


def render_figure9(comparisons: List[PerformanceComparison]) -> str:
    lines = [
        "Figure 9. Normalized performance (baseline = 1.0)",
        "",
        f"{'benchmark':12s} {'normalized':>10s} {'degradation':>12s} "
        f"{'insns':>9s} {'chk-latency':>12s}",
    ]
    for comp in comparisons:
        lines.append(
            f"{comp.workload:12s} {comp.normalized_performance:10.4f} "
            f"{comp.degradation_pct:11.3f}% {comp.instructions:9d} "
            f"{comp.avg_check_latency:9.1f} cy"
        )
    count = len(comparisons) or 1
    avg_deg = sum(c.degradation_pct for c in comparisons) / count
    avg_lat = sum(c.avg_check_latency for c in comparisons) / count
    lines.append("-" * 60)
    lines.append(
        f"{'average':12s} {1 - avg_deg / 100:10.4f} {avg_deg:11.3f}% "
        f"{'':9s} {avg_lat:9.1f} cy"
    )
    lines.append("")
    lines.append(
        "paper: average degradation 0.79%; mean detection latency 11.7 cycles"
    )
    return "\n".join(lines)


def render_latency(comparisons: List[PerformanceComparison]) -> str:
    count = len(comparisons) or 1
    avg = sum(c.avg_check_latency for c in comparisons) / count
    lines = [
        "Detection latency (branch sent to IPDS -> infeasible-path verdict)",
        "",
    ]
    for comp in comparisons:
        lines.append(
            f"{comp.workload:12s} {comp.avg_check_latency:6.1f} cycles"
        )
    lines.append("-" * 24)
    lines.append(f"{'average':12s} {avg:6.1f} cycles   (paper: 11.7 cycles)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=["fig7", "fig8", "fig9", "table1", "latency", "all"],
    )
    parser.add_argument(
        "--attacks", type=int, default=100,
        help="attacks per benchmark for fig7 (default 100)",
    )
    parser.add_argument(
        "--scale", type=int, default=20,
        help="session-length multiplier for fig9 traces (default 20)",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="shard the fig7 campaign across N processes "
             "(byte-identical output at any value)",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="write a JSON (or append-mode .jsonl) run manifest with "
             "per-artifact spans and campaign counters",
    )
    args = parser.parse_args(argv)

    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    manifest = RunManifest.begin(
        "reporting",
        artifact=args.artifact,
        attacks=args.attacks,
        scale=args.scale,
        jobs=args.jobs,
    )
    wants = (
        ["fig7", "fig8", "table1", "fig9", "latency"]
        if args.artifact == "all"
        else [args.artifact]
    )
    blocks: List[str] = []
    fig9 = None
    for artifact in wants:
        with tracer.span(f"artifact.{artifact}"):
            if artifact == "fig7":
                blocks.append(
                    render_figure7(
                        run_campaign(
                            attacks=args.attacks,
                            jobs=args.jobs,
                            metrics=registry,
                            tracer=tracer,
                        )
                    )
                )
            elif artifact == "fig8":
                blocks.append(render_figure8(*figure8_data()))
            elif artifact == "table1":
                blocks.append(render_table1())
            elif artifact in ("fig9", "latency"):
                if fig9 is None:
                    fig9 = figure9_data(scale=args.scale)
                blocks.append(
                    render_figure9(fig9)
                    if artifact == "fig9"
                    else render_latency(fig9)
                )
    print("\n\n".join(blocks))
    if args.metrics_out:
        manifest.finish(tracer, artifacts=wants)
        write_manifest(manifest, args.metrics_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
