"""Observer bus: protocol, fan-out, and single-pass equivalence.

The tentpole claim of the observer refactor is that one execution can
drive every consumer — IPDS checker, timing models, n-gram syscall
capture, trace recorder — and produce results *identical* to the old
one-consumer-per-run protocol.  These tests pin that equivalence
byte-for-byte.
"""

import io
import json
import random

import pytest

from repro.attacks.campaign import clean_run
from repro.baselines.compare import SyscallTraceObserver
from repro.correlation.tables import ProgramTables
from repro.cpu.params import ProcessorParams
from repro.cpu.pipeline import TimingModel
from repro.cpu.simulator import TimingObserver, normalized_performance, timed_run
from repro.interp.interpreter import Interpreter, RunStatus
from repro.ir import lower_program
from repro.ir.instructions import Load
from repro.lang import parse_program
from repro.pipeline import compile_program, monitored_run, observed_run
from repro.runtime.events import BranchEvent, CallEvent, ReturnEvent
from repro.runtime.ipds import IPDS, IPDSError
from repro.runtime.observer import ExecutionObserver, ObserverBus
from repro.runtime.replay import TraceRecorder, dump_trace
from repro.workloads.registry import get_workload

from .test_event_buffer_properties import OneAtATime

FIGURE1 = """
int user;
void main() {
  user = read_int();
  if (user == 0) { emit(100); } else { emit(200); }
  int someinput = read_int();
  if (user == 0) { emit(111); } else { emit(222); }
}
"""

WITH_HELPER = """
int user;
int helper(int x) {
  if (x > 3) { return x + 1; }
  return x;
}
void main() {
  user = read_int();
  if (user == 0) { emit(100); } else { emit(200); }
  int v = helper(read_int());
  emit(v);
  if (user == 0) { emit(111); } else { emit(222); }
}
"""


# ----------------------------------------------------------------------
# Protocol / bus unit behavior
# ----------------------------------------------------------------------


class Spy(ExecutionObserver):
    """Logs every control-flow event with the hook it came through."""

    def __init__(self):
        self.seen = []

    def on_call(self, event):
        self.seen.append((CallEvent, event))

    def on_return(self, event):
        self.seen.append((ReturnEvent, event))

    def on_branch(self, event):
        self.seen.append((BranchEvent, event))

    @property
    def events(self):
        return [event for _, event in self.seen]


class Batches(ExecutionObserver):
    """Batch hook only: records each delivered batch's size."""

    def __init__(self):
        self.counts = []

    def on_instruction_batch(self, instructions, touched, count):
        self.counts.append(count)


class BothHooks(Batches):
    """Takes batches, and single instructions when delivery needs them."""

    def __init__(self):
        super().__init__()
        self.singles = 0

    def on_instruction(self, instruction, touched):
        self.singles += 1


def test_bus_rejects_non_observers():
    for consumer in (42, lambda event: None, [].append):
        with pytest.raises(TypeError, match="not an ExecutionObserver"):
            ObserverBus([ExecutionObserver(), consumer])


def test_hook_sets_are_computed_once_per_class():
    assert ExecutionObserver._overrides == frozenset()
    assert Spy._overrides == {"on_call", "on_return", "on_branch"}
    assert Batches._overrides == {"on_instruction_batch"}
    assert BothHooks._overrides == {"on_instruction", "on_instruction_batch"}
    assert OneAtATime._overrides == {"on_instruction"}
    assert TimingObserver._overrides == {
        "on_call", "on_return", "on_branch", "on_instruction_batch",
    }


def test_bus_prefilters_instruction_subscribers():
    bus = ObserverBus([ExecutionObserver()])
    sinks = (bus.call_sink, bus.return_sink, bus.branch_sink)
    assert sinks == (None, None, None)
    assert bus.batch_sink is None and bus.instruction_sink is None

    spy, batches = Spy(), Batches()
    bus = ObserverBus([ExecutionObserver(), spy, batches])
    # A lone subscriber's bound hook is the sink itself.
    assert bus.branch_sink == spy.on_branch
    assert bus.batch_sink == batches.on_instruction_batch
    assert bus.instruction_sink is None


def test_instruction_delivery_follows_the_subscribers_hooks():
    """Batches while every instruction subscriber takes them; one
    observer with only ``on_instruction`` switches the whole run to
    one instruction at a time, and a batch-only subscriber then gets
    batches of one."""
    workload = get_workload("telnetd")
    program = compile_program(workload.source, workload.name)
    inputs = workload.make_inputs(random.Random("equiv:delivery"))

    batches, both = Batches(), BothHooks()
    result = observed_run(program, observers=[batches, both], inputs=inputs)
    assert max(batches.counts) > 1
    assert both.counts == batches.counts and both.singles == 0
    assert sum(batches.counts) == result.steps

    batches, both, single = Batches(), BothHooks(), OneAtATime()
    observed_run(program, observers=[batches, both, single], inputs=inputs)
    assert batches.counts == [1] * result.steps
    assert both.counts == [] and both.singles == result.steps


def test_one_at_a_time_observer_reads_memory_as_its_load_commits():
    """An observer with only ``on_instruction`` sees each instruction
    as it commits, so memory it reads at a load holds the loaded value,
    not what a later store wrote."""
    module = lower_program(
        parse_program(
            "int x; int y; void main() { x = read_int(); y = x; x = 5; }"
        )
    )
    (x,) = [var for var in module.globals if var.name == "x"]

    class LoadWatch(ExecutionObserver):
        def __init__(self):
            self.seen = []

        def on_instruction(self, instruction, touched):
            if touched == address and isinstance(instruction, Load):
                self.seen.append(interpreter.memory.read(touched))

    watch = LoadWatch()
    interpreter = Interpreter(module, inputs=[7], observers=[watch])
    address = interpreter.memory.global_addresses[x]
    assert interpreter.run().ok
    assert watch.seen == [7]
    assert interpreter.memory.read(address) == 5


def test_bus_dispatches_each_event_kind_to_the_right_hook():
    program = compile_program(WITH_HELPER, "helper.c")
    spy = Spy()
    observed_run(program, observers=[spy], inputs=[5, 9])
    assert all(type(event) is kind for kind, event in spy.seen)
    kinds = [kind for kind, _ in spy.seen]
    assert kinds[0] is CallEvent and kinds[-1] is ReturnEvent
    assert set(kinds) == {CallEvent, ReturnEvent, BranchEvent}
    calls = [event.function_name for kind, event in spy.seen if kind is CallEvent]
    assert calls == ["main", "helper"]


def test_finish_reaches_every_observer_after_run():
    class Flusher(ExecutionObserver):
        def __init__(self):
            self.finished = False

        def finish(self):
            self.finished = True

    program = compile_program(FIGURE1, "fig1.c")
    flusher = Flusher()
    observed_run(program, observers=[flusher], inputs=[5, 1])
    assert flusher.finished


# ----------------------------------------------------------------------
# Single-pass equivalence: each consumer vs. its dedicated-run twin
# ----------------------------------------------------------------------


def test_single_pass_timing_matches_two_pass():
    workload = get_workload("telnetd")
    program = compile_program(workload.source, workload.name)
    inputs = workload.make_inputs(random.Random("equiv:timing"), 3)

    baseline = timed_run(program, inputs, with_ipds=False)
    protected = timed_run(program, inputs, with_ipds=True)
    comp = normalized_performance(program, inputs, workload.name)

    assert comp.baseline_cycles == baseline.cycles
    assert comp.ipds_cycles == protected.cycles
    assert comp.instructions == protected.timing.instructions
    assert comp.avg_check_latency == protected.ipds_stats.avg_check_latency


def test_single_pass_capture_trace_matches_per_instruction_delivery():
    """The batched syscall capture (sharing a clean run with the IPDS)
    equals the per-instruction reference delivery of a dedicated run."""
    workload = get_workload("telnetd")
    program = compile_program(workload.source, workload.name)
    inputs = workload.make_inputs(random.Random("equiv:capture"))

    reference = SyscallTraceObserver()
    reference_result = Interpreter(
        program.module,
        inputs=inputs,
        observers=[reference, OneAtATime()],
    ).run()
    _, reference_ipds = monitored_run(program, inputs=inputs)

    syscalls = SyscallTraceObserver()
    result, ipds = clean_run(program, inputs, observers=(syscalls,))
    assert syscalls.symbols == reference.symbols
    assert any(symbol.startswith("read_int@") for symbol in syscalls.symbols)
    assert result.branch_trace == reference_result.branch_trace
    assert ipds.stats == reference_ipds.stats


def test_observer_recorder_matches_a_plain_spy():
    program = compile_program(FIGURE1, "fig1.c")
    spy = Spy()
    observed_run(program, observers=[spy], inputs=[5, 1])
    events = spy.events

    recorder = TraceRecorder()
    observed_run(program, observers=[recorder], inputs=[5, 1])

    assert events and recorder.events == events
    old, new = io.StringIO(), io.StringIO()
    dump_trace(events, old)
    dump_trace(recorder.events, new)
    assert new.getvalue() == old.getvalue()


def test_one_execution_feeds_all_four_consumers():
    """IPDS + timing + n-gram capture + recorder on ONE observed_run."""
    workload = get_workload("telnetd")
    program = compile_program(workload.source, workload.name)
    inputs = workload.make_inputs(random.Random("equiv:all4"))

    ipds = IPDS(program.tables)
    model = TimingModel(ProcessorParams(), None)
    syscalls = SyscallTraceObserver()
    recorder = TraceRecorder()
    result = observed_run(
        program,
        observers=[ipds, TimingObserver(model), syscalls, recorder],
        inputs=inputs,
    )
    assert result.status is RunStatus.OK

    ref_syscalls = SyscallTraceObserver()
    ref_result, ref_ipds = monitored_run(
        program, inputs=inputs, observers=[ref_syscalls]
    )
    ref_timed = timed_run(program, inputs, with_ipds=False)

    assert [str(a) for a in ipds.alarms] == [str(a) for a in ref_ipds.alarms]
    assert ipds.stats == ref_ipds.stats
    assert model.stats.cycles == ref_timed.cycles
    assert syscalls.symbols == ref_syscalls.symbols
    assert result.branch_trace == ref_result.branch_trace
    assert len(recorder.events) == ipds.stats.events


def test_tampered_single_pass_alarms_match_and_replay_offline():
    from repro.interp import GLOBAL_BASE
    from repro.interp.interpreter import TamperSpec

    program = compile_program(FIGURE1, "fig1.c")
    tamper = TamperSpec("read", 2, GLOBAL_BASE, 0)

    ipds = IPDS(program.tables)
    recorder = TraceRecorder()
    observed_run(
        program, observers=[ipds, recorder], inputs=[5, 1], tamper=tamper
    )
    assert ipds.detected

    _, ref_ipds = monitored_run(program, inputs=[5, 1], tamper=tamper)
    assert [str(a) for a in ipds.alarms] == [str(a) for a in ref_ipds.alarms]

    offline = IPDS(program.tables).run(recorder.events)
    assert [str(a) for a in offline] == [str(a) for a in ipds.alarms]


# ----------------------------------------------------------------------
# Every call needs tables: a function without them is an IPDSError
# ----------------------------------------------------------------------


def _drop_function(tables: ProgramTables, name: str) -> ProgramTables:
    return ProgramTables(
        by_function={
            fn: t for fn, t in tables.by_function.items() if fn != name
        }
    )


def test_unprotected_call_raises_by_default():
    program = compile_program(WITH_HELPER, "helper.c")
    partial = _drop_function(program.tables, "helper")
    strict = IPDS(partial)
    with pytest.raises(IPDSError, match="unprotected"):
        observed_run(program, observers=[strict], inputs=[5, 9])


def test_call_without_tables_stops_the_checker_at_the_call():
    program = compile_program(WITH_HELPER, "helper.c")
    recorder = TraceRecorder()
    observed_run(program, observers=[recorder], inputs=[5, 9])
    call = recorder.events.index(CallEvent("helper"))

    strict = IPDS(_drop_function(program.tables, "helper"))
    with pytest.raises(IPDSError, match="call into unprotected function 'helper'"):
        observed_run(program, observers=[strict], inputs=[5, 9])
    # The call is the last event it took, and it pushed no frame.
    assert strict.stats.events == call + 1
    assert strict.stack_depth == 1
    assert strict.current_frame().tables.function_name == "main"


def test_replay_into_a_function_without_tables_raises():
    program = compile_program(WITH_HELPER, "helper.c")
    recorder = TraceRecorder()
    observed_run(program, observers=[recorder], inputs=[5, 9])
    assert IPDS(program.tables).run(recorder.events) == []
    partial = _drop_function(program.tables, "helper")
    with pytest.raises(IPDSError, match="call into unprotected function 'helper'"):
        IPDS(partial).run(recorder.events)


# ----------------------------------------------------------------------
# Campaign-level equivalence with metrics attached
# ----------------------------------------------------------------------


def test_campaign_cli_report_identical_at_jobs_1_and_2_with_metrics(
    tmp_path, capsys
):
    from repro.cli import main

    serial_manifest = tmp_path / "j1.json"
    sharded_manifest = tmp_path / "j2.json"
    assert main(
        ["campaign", "telnetd", "--attacks", "3",
         "--metrics-out", str(serial_manifest)]
    ) == 0
    serial_out = capsys.readouterr().out
    assert main(
        ["campaign", "telnetd", "--attacks", "3", "--jobs", "2",
         "--metrics-out", str(sharded_manifest)]
    ) == 0
    sharded_out = capsys.readouterr().out

    def report(text):
        return [
            line for line in text.splitlines()
            if not line.startswith("metrics:")
        ]

    assert report(serial_out) == report(sharded_out)

    def work_counters(path):
        counters = json.loads(path.read_text())["metrics"]["counters"]
        # jobs/shards describe the schedule, not the work.
        return {
            name: value for name, value in counters.items()
            if name not in ("campaign.jobs", "campaign.shards")
        }

    assert work_counters(serial_manifest) == work_counters(sharded_manifest)
