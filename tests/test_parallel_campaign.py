"""Tests for the sharded campaign engine (repro.parallel.engine).

The engine's contract: for a fixed seed prefix, ``run_campaign`` merges
shard outcomes into *exactly* the serial campaign's outcome list at any
``jobs`` value, and the rendered Figure-7 report is byte-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import (
    AttackOutcome,
    CampaignConfig,
    CampaignError,
    run_attack,
    run_workload_campaign,
)
from repro.parallel import ShardResult, run_campaign, shard_indices
from repro.parallel.engine import merge_shard_results
from repro.pipeline import compile_program_cached
from repro.reporting import render_figure7
from repro.workloads import get_workload, workload_names

WORKLOADS = ["telnetd", "httpd"]
ATTACKS = 6
SEED = "ptest:"


@pytest.fixture(scope="module")
def serial_summary():
    return run_campaign(WORKLOADS, attacks=ATTACKS, seed_prefix=SEED, jobs=1)


# ----------------------------------------------------------------------
# Shard derivation
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(count=st.integers(0, 500), shards=st.integers(1, 64))
def test_shard_indices_partition_exactly(count, shards):
    blocks = shard_indices(count, shards)
    flat = [i for block in blocks for i in block]
    assert flat == list(range(count))
    assert len(blocks) <= shards
    assert all(block for block in blocks)
    if blocks:
        sizes = [len(block) for block in blocks]
        assert max(sizes) - min(sizes) <= 1


def test_shard_indices_deterministic():
    assert shard_indices(100, 4) == shard_indices(100, 4)
    assert shard_indices(0, 4) == []
    assert shard_indices(3, 8) == [(0,), (1,), (2,)]


# ----------------------------------------------------------------------
# Serial/sharded equivalence — the satellite's headline assertion
# ----------------------------------------------------------------------


def test_jobs4_equals_jobs1(serial_summary):
    sharded = run_campaign(WORKLOADS, attacks=ATTACKS, seed_prefix=SEED, jobs=4)
    assert [r.workload for r in sharded.results] == WORKLOADS
    for left, right in zip(serial_summary.results, sharded.results):
        assert left.workload == right.workload
        assert left.vuln_kind == right.vuln_kind
        assert left.attacks == right.attacks


def test_reports_are_byte_identical(serial_summary):
    sharded = run_campaign(WORKLOADS, attacks=ATTACKS, seed_prefix=SEED, jobs=3)
    assert render_figure7(serial_summary) == render_figure7(sharded)


def test_run_workload_campaign_jobs_delegates(serial_summary):
    workload = get_workload("telnetd")
    sharded = run_workload_campaign(
        workload, attacks=ATTACKS, seed_prefix=SEED, jobs=2
    )
    assert sharded.attacks == serial_summary.results[0].attacks


@pytest.mark.parametrize("name", workload_names())
def test_opt3_workload_campaign_is_the_same_at_any_job_count(name):
    """Every shard, in process or pooled, attacks the compile cache's
    build at ``config.opt_level``, so no build of another level can
    leak into one of them."""
    workload = get_workload(name)
    config = CampaignConfig(opt_level=3)
    serial = run_workload_campaign(workload, attacks=30, config=config, jobs=1)
    sharded = run_workload_campaign(workload, attacks=30, config=config, jobs=2)
    assert sharded.attacks == serial.attacks


def test_engine_serial_matches_legacy_loop(serial_summary):
    """The engine's jobs=1 shard is the classic per-index loop."""
    workload = get_workload("telnetd")
    program = compile_program_cached(workload.source, workload.name)
    legacy = [
        run_attack(program, workload, index, seed_prefix=SEED)
        for index in range(ATTACKS)
    ]
    assert legacy == serial_summary.results[0].attacks
    one_workload = run_workload_campaign(
        workload, attacks=ATTACKS, seed_prefix=SEED
    )
    assert one_workload.attacks == legacy


def test_seed_prefix_changes_outcomes():
    base = run_campaign(["telnetd"], attacks=4, seed_prefix="a:", jobs=1)
    other = run_campaign(["telnetd"], attacks=4, seed_prefix="b:", jobs=1)
    assert base.results[0].attacks != other.results[0].attacks


# ----------------------------------------------------------------------
# Merge validation and argument checking
# ----------------------------------------------------------------------


def _outcome(index):
    return AttackOutcome(
        index=index,
        trigger_read=2,
        address=0,
        target_label="f.x",
        value=1,
        fired=True,
        control_flow_changed=False,
        detected=False,
        clean_status=None,
        attack_status=None,
    )


def test_merge_outcomes_restores_index_order():
    workload = get_workload("telnetd")
    shards = [
        ShardResult(outcomes=[_outcome(2), _outcome(3)]),
        ShardResult(outcomes=[_outcome(0), _outcome(1)]),
    ]
    merged = merge_shard_results(workload, 4, shards)
    assert [o.index for o in merged.attacks] == [0, 1, 2, 3]
    assert merged.workload == "telnetd"


def test_merge_outcomes_rejects_lost_work():
    workload = get_workload("telnetd")
    with pytest.raises(CampaignError, match="lost outcomes"):
        merge_shard_results(
            workload, 3, [ShardResult(outcomes=[_outcome(0), _outcome(2)])]
        )


def test_merge_outcomes_rejects_duplicates():
    workload = get_workload("telnetd")
    with pytest.raises(CampaignError, match="lost outcomes"):
        merge_shard_results(
            workload,
            2,
            [ShardResult(outcomes=[_outcome(0)]), ShardResult(outcomes=[_outcome(0)])],
        )


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_campaign(["telnetd"], attacks=1, jobs=0)


def test_unknown_workload_fails_fast():
    with pytest.raises(KeyError, match="unknown workload"):
        run_campaign(["no-such-server"], attacks=1, jobs=2)


def test_zero_attacks_yields_empty_results():
    summary = run_campaign(["telnetd"], attacks=0, jobs=4)
    assert summary.results[0].attacks == []
