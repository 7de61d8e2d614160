"""End-to-end table-stack spilling under deep call chains."""

import pytest

from repro.cpu import IPDSHardwareParams, timed_run
from repro.pipeline import compile_program, observed_run
from repro.runtime import IPDS
from repro.runtime.observer import ExecutionObserver

DEEP_RECURSION = """
int g;
int walk(int n) {
  if (g < 100) { emit(1); }
  if (n <= 0) { return 0; }
  if (n % 2 == 0) { emit(2); }
  return walk(n - 1) + 1;
}
void main() {
  g = read_int();
  emit(walk(read_int()));
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_program(DEEP_RECURSION)


class DepthProbe(ExecutionObserver):
    """Rides behind the IPDS and notes its deepest table stack."""

    def __init__(self, ipds):
        self.ipds = ipds
        self.deepest = 0

    def on_call(self, event):
        self.deepest = max(self.deepest, self.ipds.stack_depth)


def test_deep_recursion_is_functionally_clean(program):
    ipds = IPDS(program.tables)
    probe = DepthProbe(ipds)
    result = observed_run(program, [ipds, probe], inputs=[5, 40])
    assert result.ok
    assert not ipds.detected
    assert probe.deepest >= 41


def test_tiny_buffers_spill_under_recursion(program):
    params = IPDSHardwareParams(
        bsv_stack_bits=32, bcv_stack_bits=16, bat_stack_bits=256
    )
    result = timed_run(program, inputs=[5, 40], ipds_params=params)
    assert result.ipds_stats.spill_events > 0
    assert result.ipds_stats.spill_cycles > 0


def test_roomy_buffers_do_not_spill(program):
    result = timed_run(program, inputs=[5, 10], ipds_params=IPDSHardwareParams())
    assert result.ipds_stats.spill_events == 0


def test_spilling_costs_cycles_not_correctness(program):
    roomy = timed_run(program, inputs=[5, 40])
    tight = timed_run(
        program,
        inputs=[5, 40],
        ipds_params=IPDSHardwareParams(
            bsv_stack_bits=32, bcv_stack_bits=16, bat_stack_bits=256
        ),
    )
    # Same committed work, spills only slow the checker (and possibly
    # the core through the shared queue).
    assert tight.timing.instructions == roomy.timing.instructions
    assert tight.cycles >= roomy.cycles


def test_paper_sized_buffers_cover_workload_call_chains():
    """Table 1 buffers (2K/1K/32K bits) hold the active call chains of
    every workload, as §6 asserts — no spills in normal runs."""
    import random

    from repro.workloads import all_workloads

    for workload in all_workloads():
        program = compile_program(workload.source, workload.name)
        inputs = workload.make_inputs(random.Random(f"spill:{workload.name}"))
        result = timed_run(program, inputs)
        assert result.ipds_stats.spill_events == 0, workload.name
