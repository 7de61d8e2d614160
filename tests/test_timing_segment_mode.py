"""Segment-mode accuracy matrix and campaign timing-mode plumbing.

``--timing-mode=segment`` is an opt-in approximation: straight-line
trace segments are timed exactly a few times, then replayed from a
memoized cycle delta.  Absolute cycle counts may drift (the memoized
delta is the segment's warm-cache steady state), but the quantity the
paper reports — the Figure 9 normalized-performance *ratio* between the
baseline and IPDS-attached models — must track the exact model within a
declared tolerance on every workload.  That tolerance is asserted here,
for all ten workloads, so any change to the segment heuristics that
degrades fidelity fails loudly.

The second half covers the campaign plumbing: ``timing_mode`` must be
validated, must not perturb detection outcomes, and shard merges must
refuse to mix timing modes.
"""

import random

import pytest

from repro.attacks.campaign import CampaignConfig, CampaignError, run_attack
from repro.cpu.simulator import normalized_performance
from repro.parallel.engine import ShardResult, merge_shard_results
from repro.pipeline import compile_program
from repro.workloads import all_workloads

#: Declared segment-mode tolerance: the Figure 9 ratio may deviate from
#: the exact model by at most this much, relative.  Worst observed
#: across the ten workloads at this scale is 1.81% (sendmail); the
#: margin absorbs benign retunings without letting a real fidelity
#: regression through.  Documented in EXPERIMENTS.md.
SEGMENT_RATIO_TOLERANCE = 0.025

#: Matrix parameters (seed namespace distinct from goldens/benches).
SCALE = 8
OPT_LEVEL = 1
SEED_PREFIX = "segacc:"

WORKLOADS = {workload.name: workload for workload in all_workloads()}


def _matrix_cell(name):
    workload = WORKLOADS[name]
    program = compile_program(workload.source, name, OPT_LEVEL)
    inputs = workload.make_inputs(
        random.Random(f"{SEED_PREFIX}{name}"), SCALE
    )
    exact = normalized_performance(program, inputs, name, timing_mode="exact")
    segment = normalized_performance(
        program, inputs, name, timing_mode="segment"
    )
    return exact, segment


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_segment_ratio_within_declared_tolerance(name):
    exact, segment = _matrix_cell(name)
    relative_error = abs(
        segment.normalized_performance - exact.normalized_performance
    ) / exact.normalized_performance
    assert relative_error <= SEGMENT_RATIO_TOLERANCE, (
        f"{name}: segment ratio {segment.normalized_performance:.6f} vs "
        f"exact {exact.normalized_performance:.6f} "
        f"({100 * relative_error:.2f}% > "
        f"{100 * SEGMENT_RATIO_TOLERANCE:.2f}%)"
    )
    # Instruction accounting is exact regardless of mode — only cycle
    # timing is approximated.
    assert segment.instructions == exact.instructions


# ----------------------------------------------------------------------
# Campaign plumbing
# ----------------------------------------------------------------------


def test_run_attack_rejects_unknown_timing_mode():
    # The campaign config validates once, before any attack runs.
    with pytest.raises(ValueError, match="unknown timing mode"):
        CampaignConfig(timing_mode="approximate")


def test_timed_attack_records_cycles_without_perturbing_outcome():
    """Attaching the timing model is purely observational: every
    detection field matches the untimed run; only ``cycles`` differs."""
    workload = WORKLOADS["telnetd"]
    program = compile_program(workload.source, workload.name, 0)
    for index in range(3):
        untimed = run_attack(program, workload, index, seed_prefix="segm:")
        timed = run_attack(
            program,
            workload,
            index,
            seed_prefix="segm:",
            config=CampaignConfig(timing_mode="segment"),
        )
        assert untimed.cycles is None
        assert isinstance(timed.cycles, int) and timed.cycles > 0
        for field in (
            "index",
            "trigger_read",
            "address",
            "target_label",
            "value",
            "fired",
            "control_flow_changed",
            "detected",
            "clean_status",
            "attack_status",
            "alarms",
        ):
            assert getattr(timed, field) == getattr(untimed, field), field


def test_merge_rejects_mixed_timing_modes():
    workload = WORKLOADS["telnetd"]
    shards = [
        ShardResult(outcomes=[], timing_mode="exact"),
        ShardResult(outcomes=[], timing_mode="segment"),
    ]
    with pytest.raises(CampaignError, match="mixed timing modes"):
        merge_shard_results(workload, 0, shards)
    # Timed + untimed is just as meaningless as two approximations.
    shards = [
        ShardResult(outcomes=[], timing_mode=None),
        ShardResult(outcomes=[], timing_mode="exact"),
    ]
    with pytest.raises(CampaignError, match="mixed timing modes"):
        merge_shard_results(workload, 0, shards)


def test_merge_accepts_uniform_timing_mode():
    workload = WORKLOADS["telnetd"]
    program = compile_program(workload.source, workload.name, 0)
    outcomes = [
        run_attack(
            program,
            workload,
            index,
            seed_prefix="segm:",
            config=CampaignConfig(timing_mode="exact"),
        )
        for index in range(4)
    ]
    shards = [
        ShardResult(outcomes=outcomes[:2], timing_mode="exact"),
        ShardResult(outcomes=outcomes[2:], timing_mode="exact"),
    ]
    result = merge_shard_results(workload, 4, shards)
    assert result.timing_mode == "exact"
    assert [outcome.index for outcome in result.attacks] == [0, 1, 2, 3]
    assert all(outcome.cycles is not None for outcome in result.attacks)
