"""Glue: run a protected program through the timing model.

:class:`TimingObserver` adapts a :class:`TimingModel` to the
execution-observer protocol, so timing rides the same event bus as the
IPDS checker and trace recorders.  :func:`timed_run` executes one
program once under a one-lane model, with or without the IPDS hardware
attached, and returns timing plus IPDS statistics.
:func:`normalized_performance` performs the Figure 9 experiment for one
workload in a **single pass** through **one** model with two cycle
lanes, baseline and IPDS.  The model is trace-driven and its caches and
predictor depend only on the committed stream, so the lanes share one
memory hierarchy and one predictor and each computes exactly the
cycles of a separate one-lane run of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..interp.interpreter import DEFAULT_STEP_LIMIT, Interpreter, RunResult
from ..pipeline import ProtectedProgram
from ..runtime.events import BranchEvent, CallEvent, ReturnEvent
from ..runtime.observer import ExecutionObserver
from .ipds_hw import IPDSHardwareModel, IPDSTimingStats
from .params import IPDSHardwareParams, ProcessorParams
from .pipeline import TimingModel, TimingStats


class TimingObserver(ExecutionObserver):
    """Feeds one :class:`TimingModel` from the execution bus: each
    committed control-flow event and instruction is forwarded to the
    model's cycle-accounting hooks."""

    def __init__(self, model: TimingModel) -> None:
        self.model = model
        # The bus binds hooks per instance (``getattr`` at sink-build
        # time), so shadowing the class methods with the model's bound
        # methods removes one call frame from every dispatch.
        self.on_instruction_batch = model.on_instructions
        outcome = model.on_branch_outcome

        def _on_branch(event: BranchEvent, _outcome=outcome) -> None:
            _outcome(event.function_name, event.pc, event.taken)

        self.on_branch = _on_branch

    # The class-level hooks below are shadowed per instance; they exist
    # for the bus's override detection.
    def on_branch(self, event: BranchEvent) -> None:
        self.model.on_branch_outcome(event.function_name, event.pc, event.taken)

    def on_call(self, event: CallEvent) -> None:
        self.model.on_call(event.function_name)

    def on_return(self, event: ReturnEvent) -> None:
        self.model.on_return()

    def on_instruction_batch(self, instructions, touched, count) -> None:
        self.model.on_instructions(instructions, touched, count)


@dataclass
class TimedRun:
    """One program execution with cycle accounting."""

    run: RunResult
    timing: TimingStats
    ipds_stats: Optional[IPDSTimingStats]
    predictor_accuracy: float
    l1d_miss_rate: float

    @property
    def cycles(self) -> int:
        return self.timing.cycles

    @property
    def ipc(self) -> float:
        return self.timing.ipc


def timed_run(
    program: ProtectedProgram,
    inputs: Sequence[int] = (),
    with_ipds: bool = True,
    processor: ProcessorParams = ProcessorParams(),
    ipds_params: IPDSHardwareParams = IPDSHardwareParams(),
    step_limit: int = DEFAULT_STEP_LIMIT,
    observers: Sequence[ExecutionObserver] = (),
) -> TimedRun:
    """Execute once under the timing model.

    Extra ``observers`` share the same execution — e.g. a
    :class:`~repro.runtime.replay.TraceRecorder` for an audit trace of
    the timed run.
    """
    ipds_hw = (
        IPDSHardwareModel(program.tables, ipds_params) if with_ipds else None
    )
    model = TimingModel(processor, ipds_hw)
    interpreter = Interpreter(
        program.module,
        inputs=inputs,
        step_limit=step_limit,
        observers=[TimingObserver(model), *observers],
        trace_branches=False,
    )
    result = interpreter.run()
    return TimedRun(
        run=result,
        timing=model.stats,
        ipds_stats=ipds_hw.stats if ipds_hw else None,
        predictor_accuracy=model.predictor.stats.accuracy,
        l1d_miss_rate=model.memory.l1d.stats.miss_rate,
    )


@dataclass
class PerformanceComparison:
    """Figure 9 data point for one workload."""

    workload: str
    baseline_cycles: int
    ipds_cycles: int
    instructions: int
    avg_check_latency: float
    commit_stalls: int

    @property
    def normalized_performance(self) -> float:
        """IPDS performance relative to baseline (1.0 = no slowdown)."""
        if not self.ipds_cycles:
            return 1.0
        return self.baseline_cycles / self.ipds_cycles

    @property
    def degradation_pct(self) -> float:
        return 100.0 * (1.0 - self.normalized_performance)


def normalized_performance(
    program: ProtectedProgram,
    inputs: Sequence[int],
    workload_name: str = "",
    processor: ProcessorParams = ProcessorParams(),
    ipds_params: IPDSHardwareParams = IPDSHardwareParams(),
    step_limit: int = DEFAULT_STEP_LIMIT,
    observers: Sequence[ExecutionObserver] = (),
) -> PerformanceComparison:
    """Baseline and IPDS configurations measured from **one** execution.

    One two-lane :class:`TimingModel` times both configurations over
    one memory hierarchy and one predictor; each lane's cycles equal
    a separate :func:`timed_run` of its configuration.  Extra
    ``observers`` (recorders, metrics taps) ride the same pass.
    """
    ipds_hw = IPDSHardwareModel(program.tables, ipds_params)
    model = TimingModel(processor, ipds_hw, baseline_lane=True)
    interpreter = Interpreter(
        program.module,
        inputs=inputs,
        step_limit=step_limit,
        observers=[TimingObserver(model), *observers],
        trace_branches=False,
    )
    interpreter.run()
    return PerformanceComparison(
        workload=workload_name,
        baseline_cycles=model.baseline_stats.cycles,
        ipds_cycles=model.stats.cycles,
        instructions=model.stats.instructions,
        avg_check_latency=ipds_hw.stats.avg_check_latency,
        commit_stalls=ipds_hw.stats.commit_stalls,
    )
