"""Differential equivalence harness for the batched timing stack.

The goldens in ``tests/golden/timing_equivalence.json`` were captured
from the pre-batching per-instruction delivery path.  Every cell —
cycle counts, Figure-9 normalized-performance inputs, and
full attack outcomes including rendered IPDS alarm strings — must stay
byte-identical under the batched event path, the ring-buffer RUU/LSQ
rewrite, and the branch-plan fast path.  A mismatch here means a
performance refactor changed reported numbers, which is exactly the
bug class this harness exists to catch; never "fix" it by
regenerating the goldens.

The second half is an in-process differential: an attached observer
that defines only ``on_instruction`` (:class:`OneAtATime`) selects the
reference per-instruction delivery, and both deliveries must produce
identical cycle accounting from the same execution.
"""

import json
from pathlib import Path

import pytest

from repro.attacks.campaign import run_attack
from repro.cpu.simulator import normalized_performance
from repro.pipeline import compile_program
from repro.workloads import all_workloads

from .test_event_buffer_properties import OneAtATime

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "timing_equivalence.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SCALE = GOLDEN["scale"]
ATTACKS = GOLDEN["attacks"]
SEED_PREFIX = GOLDEN["seed_prefix"]
OPT_LEVELS = (0, 1, 2)

WORKLOADS = {workload.name: workload for workload in all_workloads()}

_PROGRAM_CACHE = {}


def _program(name, opt):
    key = (name, opt)
    if key not in _PROGRAM_CACHE:
        workload = WORKLOADS[name]
        _PROGRAM_CACHE[key] = compile_program(workload.source, name, opt)
    return _PROGRAM_CACHE[key]


def _timing_inputs(name):
    import random

    return WORKLOADS[name].make_inputs(
        random.Random(f"{SEED_PREFIX}{name}"), SCALE
    )


def _timing_dict(comparison):
    return {
        "baseline_cycles": comparison.baseline_cycles,
        "ipds_cycles": comparison.ipds_cycles,
        "instructions": comparison.instructions,
        "avg_check_latency": repr(comparison.avg_check_latency),
        "commit_stalls": comparison.commit_stalls,
        "normalized_performance": repr(comparison.normalized_performance),
    }


def _outcome_dict(outcome):
    return {
        "index": outcome.index,
        "trigger_read": outcome.trigger_read,
        "address": outcome.address,
        "target_label": outcome.target_label,
        "value": outcome.value,
        "fired": outcome.fired,
        "control_flow_changed": outcome.control_flow_changed,
        "detected": outcome.detected,
        "clean_status": outcome.clean_status.value,
        "attack_status": outcome.attack_status.value,
        "alarms": list(outcome.alarms),
    }


CELLS = [
    (name, opt) for name in sorted(GOLDEN["workloads"]) for opt in OPT_LEVELS
]


def test_golden_covers_every_workload():
    assert sorted(GOLDEN["workloads"]) == sorted(WORKLOADS)
    for per_opt in GOLDEN["workloads"].values():
        assert sorted(per_opt) == [f"opt{o}" for o in OPT_LEVELS]


@pytest.mark.parametrize(
    "name,opt", CELLS, ids=[f"{n}-opt{o}" for n, o in CELLS]
)
def test_batched_timing_matches_pre_batching_golden(name, opt):
    """Batched delivery reproduces the pinned exact-model cycle counts."""
    golden = GOLDEN["workloads"][name][f"opt{opt}"]["timing"]
    comparison = normalized_performance(
        _program(name, opt), _timing_inputs(name), name
    )
    assert _timing_dict(comparison) == golden


@pytest.mark.parametrize(
    "name,opt", CELLS, ids=[f"{n}-opt{o}" for n, o in CELLS]
)
def test_unbatched_reference_matches_golden(name, opt):
    """The per-instruction reference path agrees with the same goldens —
    so batched and unbatched deliveries are transitively identical."""
    golden = GOLDEN["workloads"][name][f"opt{opt}"]["timing"]
    comparison = normalized_performance(
        _program(name, opt),
        _timing_inputs(name),
        name,
        observers=[OneAtATime()],
    )
    assert _timing_dict(comparison) == golden


@pytest.mark.parametrize(
    "name,opt", CELLS, ids=[f"{n}-opt{o}" for n, o in CELLS]
)
def test_attack_outcomes_and_alarms_match_golden(name, opt):
    """The campaign recipe — clean + probe + attack runs, IPDS alarm
    strings included — is byte-identical to the pre-batching capture."""
    golden = GOLDEN["workloads"][name][f"opt{opt}"]["attacks"]
    program = _program(name, opt)
    workload = WORKLOADS[name]
    recomputed = [
        _outcome_dict(
            run_attack(program, workload, index, seed_prefix=SEED_PREFIX)
        )
        for index in range(ATTACKS)
    ]
    assert recomputed == golden
