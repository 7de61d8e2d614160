"""Property tests for the interpreter's flat event buffer.

The batched delivery path accumulates committed instructions in a
preallocated buffer and flushes it at control-flow and run boundaries.
Its contract (:mod:`repro.runtime.observer`): batching changes only the
*call granularity* — every observer sees the exact interleaving of
instructions and control-flow events the per-instruction path produced,
with nothing dropped, duplicated, or reordered.  These properties check
that over randomly generated mini-C programs, random tamperings (alarms
landing mid-segment), and a deliberately tiny flight recorder (ring
evictions during a flush).

The bus batches only when every instruction subscriber takes batches,
so a run picks the per-instruction reference by attaching
:class:`OneAtATime`.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TamperSpec, compile_program
from repro.interp import GLOBAL_BASE, STACK_BASE
from repro.interp.interpreter import Interpreter
from repro.runtime.flight_recorder import FlightRecorder
from repro.runtime.ipds import IPDS
from repro.runtime.observer import ExecutionObserver

from .test_zero_false_positives import programs

INPUT_STREAMS = st.lists(st.integers(-50, 50), min_size=0, max_size=20)


class OneAtATime(ExecutionObserver):
    """Defines only ``on_instruction``: attaching it makes the bus
    deliver every instruction as it commits."""

    def on_instruction(self, instruction, touched):
        pass


class FlatLog(ExecutionObserver):
    """Records the full event interleaving one entry per instruction.

    It defines only ``on_instruction``, so it is delivered one
    instruction at a time — the per-instruction reference.
    """

    def __init__(self):
        self.entries = []
        self.finished = 0

    def on_call(self, event):
        self.entries.append(("call", event.function_name))

    def on_return(self, event):
        self.entries.append(("return", event.function_name))

    def on_branch(self, event):
        self.entries.append(
            ("branch", event.function_name, event.pc, event.taken)
        )

    def on_instruction(self, instruction, touched):
        # Instruction objects are interned per module, so identity is a
        # sound equality for cross-run comparison of the same program.
        self.entries.append(("insn", id(instruction), touched))

    def finish(self):
        self.finished += 1


class BatchLog(FlatLog):
    """A batch-aware recorder: copies each batch out of the reused
    buffer itself, checking the producer's buffer discipline.  Alone
    (or beside other batch takers) it is delivered batches."""

    def __init__(self):
        super().__init__()
        self.batches = 0

    def on_instruction(self, instruction, touched):
        raise AssertionError("a batch taker was delivered one instruction")

    def on_instruction_batch(self, instructions, touched, count):
        assert 0 < count <= len(instructions)
        assert len(touched) == len(instructions)
        self.batches += 1
        entries = self.entries
        for index in range(count):
            entries.append(("insn", id(instructions[index]), touched[index]))


def _run(program, inputs, observers, batched, tamper=None):
    """One run; ``batched=False`` attaches :class:`OneAtATime`."""
    interpreter = Interpreter(
        program.module,
        inputs=inputs,
        tamper=tamper,
        step_limit=20_000,
        observers=observers if batched else [*observers, OneAtATime()],
        trace_branches=False,
    )
    return interpreter.run()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_batched_interleaving_identical_to_reference(source, inputs):
    """Random interleavings of branches/calls/instructions flush in
    order: the batched log equals the per-instruction log exactly."""
    program = compile_program(source, "random.c")
    reference = FlatLog()
    ref_result = _run(program, inputs, [reference], batched=False)
    log = BatchLog()
    result = _run(program, inputs, [log], batched=True)
    assert result.status is ref_result.status
    assert result.steps == ref_result.steps
    assert result.outputs == ref_result.outputs
    assert log.entries == reference.entries, source
    assert log.finished == reference.finished == 1
    insn_count = sum(1 for e in reference.entries if e[0] == "insn")
    assert insn_count == ref_result.steps


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=programs(),
    inputs=st.lists(st.integers(-50, 50), min_size=2, max_size=15),
    seed=st.integers(0, 10_000),
)
def test_buffer_survives_mid_segment_alarms(source, inputs, seed):
    """A tampered run can raise IPDS alarms between flushes; the event
    stream and the alarm set must stay delivery-invariant."""
    program = compile_program(source, "random.c")
    rng = random.Random(seed)
    address = rng.choice(
        [GLOBAL_BASE + rng.randrange(0, 8), STACK_BASE + rng.randrange(0, 12)]
    )
    tamper = TamperSpec(
        "step",
        rng.randrange(1, 200),
        address,
        rng.choice([0, 1, -1, 7, -999, 0x41414141]),
    )
    ref_ipds = IPDS(program.tables)
    reference = FlatLog()
    _run(program, inputs, [ref_ipds, reference], batched=False, tamper=tamper)

    ipds = IPDS(program.tables)
    log = BatchLog()
    _run(program, inputs, [ipds, log], batched=True, tamper=tamper)

    assert log.entries == reference.entries
    assert [str(a) for a in ipds.alarms] == [str(a) for a in ref_ipds.alarms]
    assert ipds.detected == ref_ipds.detected


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=programs(),
    inputs=st.lists(st.integers(-50, 50), min_size=2, max_size=15),
    seed=st.integers(0, 10_000),
    depth=st.integers(1, 4),
)
def test_buffer_survives_flight_recorder_eviction(source, inputs, seed, depth):
    """A tiny flight-recorder ring evicts constantly while the buffer
    flushes; its final contents must still be delivery-invariant."""
    program = compile_program(source, "random.c")
    rng = random.Random(seed)
    tamper = TamperSpec(
        "step",
        rng.randrange(1, 200),
        GLOBAL_BASE + rng.randrange(0, 8),
        rng.choice([0, -1, 0x41414141]),
    )

    def capture(batched):
        recorder = FlightRecorder(depth=depth)
        ipds = IPDS(program.tables, flight_recorder=recorder)
        _run(program, inputs, [ipds], batched=batched, tamper=tamper)
        return (
            [str(a) for a in ipds.alarms],
            [r.to_dict() for r in recorder.records],
            recorder.total_recorded,
            recorder.evictions,
        )

    assert capture(batched=True) == capture(batched=False)
