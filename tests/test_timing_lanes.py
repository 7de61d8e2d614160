"""The two-lane Figure-9 model equals two one-lane runs.

:func:`normalized_performance` times the baseline and the IPDS
configuration in one :class:`~repro.cpu.pipeline.TimingModel` with two
cycle lanes over one memory hierarchy and one branch predictor.  That is
exact only because the caches and the predictor depend on the committed
stream alone, a mispredict redirects both lanes, and only the IPDS lane
takes the IPDS hardware's stalls.  So each lane must report exactly what
a separate :func:`timed_run` of its configuration reports.

Checked on random programs and on every workload at opt 0 and 3, under
batched and per-instruction delivery (an attached :class:`OneAtATime`
selects the latter), and with an IPDS
configuration small enough that queue stalls, stack spills and context
switches all happen.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.params import IPDSHardwareParams
from repro.cpu.simulator import normalized_performance, timed_run
from repro.pipeline import compile_program, compile_program_cached
from repro.workloads import all_workloads

from .test_event_buffer_properties import OneAtATime
from .test_zero_false_positives import INPUT_STREAMS, programs

#: A 2-entry request queue, stack buffers of a few words and a short
#: context-switch interval: commit stalls, spills and switches all fire.
STRESS = IPDSHardwareParams(
    request_queue_size=2,
    bsv_stack_bits=64,
    bcv_stack_bits=32,
    bat_stack_bits=256,
    context_switch_interval=2000,
)
HARDWARE = {"default": IPDSHardwareParams(), "stress": STRESS}
CONFIGS = [
    (batched, hardware)
    for batched in (True, False)
    for hardware in sorted(HARDWARE)
]
SCALE = 3
WORKLOADS = {workload.name: workload for workload in all_workloads()}


def _assert_lanes_match_runs(program, inputs, batched, hardware):
    options = dict(
        ipds_params=HARDWARE[hardware],
        observers=[] if batched else [OneAtATime()],
        step_limit=20_000,
    )
    both = normalized_performance(program, inputs, **options)
    baseline = timed_run(program, inputs, with_ipds=False, **options)
    protected = timed_run(program, inputs, with_ipds=True, **options)
    assert baseline.timing.instructions == protected.timing.instructions
    assert (
        both.baseline_cycles,
        both.ipds_cycles,
        both.instructions,
        both.commit_stalls,
        repr(both.avg_check_latency),
    ) == (
        baseline.cycles,
        protected.cycles,
        protected.timing.instructions,
        protected.ipds_stats.commit_stalls,
        repr(protected.ipds_stats.avg_check_latency),
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=programs(),
    inputs=INPUT_STREAMS,
    config=st.sampled_from(CONFIGS),
)
def test_lanes_equal_separate_runs_on_random_programs(source, inputs, config):
    program = compile_program(source, "random.c")
    _assert_lanes_match_runs(program, inputs, *config)


@pytest.mark.parametrize("opt", (0, 3))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lanes_equal_separate_runs_on_workloads(name, opt):
    workload = WORKLOADS[name]
    program = compile_program_cached(workload.source, name, opt)
    inputs = workload.make_inputs(random.Random(f"lanes:{name}"), SCALE)
    for config in CONFIGS:
        _assert_lanes_match_runs(program, inputs, *config)


def test_stress_hardware_stalls_spills_and_switches():
    """The stress configuration reaches every IPDS hardware path the
    lanes must keep apart."""
    workload = WORKLOADS["crond"]
    program = compile_program_cached(workload.source, "crond", 0)
    inputs = workload.make_inputs(random.Random("lanes:crond"), SCALE)
    stats = timed_run(program, inputs, ipds_params=STRESS).ipds_stats
    assert stats.commit_stalls > 0
    assert stats.spill_events > 0
    assert stats.context_switches > 0
