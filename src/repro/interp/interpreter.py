"""Deterministic IR interpreter with tamper injection.

Stand-in for the paper's Bochs-based attack testbed (§6): runs a
program on a concrete memory map, feeds committed control-flow events
to any number of observers (the IPDS, tracers, the timing model) over
a single-dispatch :class:`~repro.runtime.observer.ObserverBus`, and
can corrupt one memory word mid-run to simulate a memory-tampering
attack.  One execution can drive every consumer simultaneously — the
checker, the timing model, an n-gram capture and an audit recorder
all see the same committed stream without re-running the program.

The attack trigger mirrors the paper's methodology: the tampering fires
when the program consumes its *n*-th input (the "malicious input"
moment) or at a raw step count, and overwrites a single chosen word —
"our attack tampers only a (randomly selected) specific local stack
location rather than a continuous memory block" (§6).

Execution runs over the module's pre-decoded form
(:mod:`repro.interp.decode`), one decoded block at a time.  The
observable behaviour is exact to the instruction: the step limit is
checked before every instruction, a step trigger fires right after
its instruction, and a block that would cross either runs only up to
that point before the check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..ir.function import IRModule
from ..ir.instructions import Instruction
from ..runtime.observer import ExecutionObserver, ObserverBus
from .decode import (
    ADD,
    ADDR_LOCAL,
    BRANCH,
    CALL,
    CMP,
    DIV,
    EMIT,
    JUMP,
    LOAD_GLOBAL,
    LOAD_INDIRECT,
    LOAD_LOCAL,
    MOD,
    MUL,
    NEG,
    NOT,
    READ,
    RETURN,
    STORE_GLOBAL,
    STORE_INDIRECT,
    STORE_LOCAL,
    SUB,
    DecodedFunction,
    InterpreterError,
    decoded_functions,
)
from .state import MemoryMap, STACK_BASE

#: Step budget of one run unless its caller sets another: a monitored,
#: timed or session run.  A campaign attack's budget is
#: ``CampaignConfig.step_limit``.
DEFAULT_STEP_LIMIT = 2_000_000


class RunStatus(enum.Enum):
    """How an execution ended."""

    OK = "ok"
    DIV_BY_ZERO = "div_by_zero"
    STEP_LIMIT = "step_limit"
    CALL_DEPTH = "call_depth"


@dataclass(frozen=True)
class TamperSpec:
    """One simulated memory-tampering attack.

    ``trigger_kind`` is ``"read"`` (fire right after the program
    consumes its ``trigger_value``-th input — the buffer overflow /
    format-string moment) or ``"step"`` (fire after N executed
    instructions).  Both counts are 1-based, so ``trigger_value`` is at
    least 1; a smaller one raises :class:`ValueError`.
    ``address``/``value`` say which word is corrupted and with what.
    """

    trigger_kind: str
    trigger_value: int
    address: int
    value: int

    def __post_init__(self) -> None:
        _check_trigger(self.trigger_kind, self.trigger_value)


#: A live stack word: ``(address, function, variable)``.
Slot = Tuple[int, str, str]


@dataclass(frozen=True)
class LazyTamper:
    """A tampering whose target word is chosen when the trigger fires.

    Same trigger as :class:`TamperSpec`; at the trigger moment the
    interpreter calls ``choose(live_slots, memory)`` with the live
    stack words of every active frame (outer→inner) and the memory
    map, and writes the ``(address, value)`` it returns — the attacker
    picking a target from the attack surface as it stands then.
    """

    trigger_kind: str
    trigger_value: int
    choose: Callable[[List[Slot], MemoryMap], Tuple[int, int]]

    def __post_init__(self) -> None:
        _check_trigger(self.trigger_kind, self.trigger_value)


def _check_trigger(kind: str, value: int) -> None:
    if kind not in ("read", "step"):
        raise ValueError(f"bad trigger kind {kind!r}")
    if value < 1:
        raise ValueError(f"trigger must be >= 1 (1-based), got {value}")


#: Either tampering shape: a fixed target or one chosen at the trigger.
Tamper = Union[TamperSpec, LazyTamper]


@dataclass
class RunResult:
    """Everything observable about one execution."""

    status: RunStatus
    steps: int
    outputs: List[int]
    branch_trace: List[Tuple[int, bool]]
    return_value: Optional[int]
    tamper_fired: bool
    reads_consumed: int
    #: Frame stack at the tamper moment, outer→inner:
    #: ``(function, block label, instruction index, frame base)`` per
    #: live activation.  ``None`` when no tampering fired.  The indices
    #: are the *resume* points — each frame's next instruction after
    #: the corruption lands (the static prover's program point Q).
    tamper_site: Optional[Tuple[Tuple[str, str, int, int], ...]] = None

    @property
    def ok(self) -> bool:
        return self.status is RunStatus.OK


#: Capacity of the flat instruction-event buffer (entries).  A batch is
#: flushed before every control-flow event that has a subscriber, when
#: the buffer is full and at the end of the run, so the capacity only
#: caps straight-line runs between events; 512 comfortably covers them
#: while keeping the buffer in cache.
EVENT_BUFFER_CAPACITY = 512

#: A step count no run reaches: the trigger point of "no trigger".
_NEVER = 1 << 62


class _Frame:
    """One activation: its function, frame base and register slots.

    ``call`` is the call operation the frame is suspended in while a
    callee runs; its continuation block is where the frame resumes.
    """

    __slots__ = ("function", "base", "regs", "call")

    def __init__(self, function: DecodedFunction, base: int, regs: list) -> None:
        self.function = function
        self.base = base
        self.regs = regs
        self.call: tuple = ()


class Interpreter:
    """Executes one module from its ``main`` function.

    Consumers attach through ``observers`` —
    :class:`~repro.runtime.observer.ExecutionObserver` instances.  Each
    event is dispatched exactly once through one bus.
    """

    def __init__(
        self,
        module: IRModule,
        inputs: Sequence[int] = (),
        step_limit: int = DEFAULT_STEP_LIMIT,
        call_depth_limit: int = 256,
        tamper: Optional[Tamper] = None,
        trace_branches: bool = True,
        observers: Sequence[ExecutionObserver] = (),
    ):
        if not module.finalized:
            raise InterpreterError("module must be finalized before execution")
        if call_depth_limit < 1:
            raise ValueError(
                f"call depth limit must be >= 1, got {call_depth_limit}"
            )
        self._module = module
        self._inputs = list(inputs)
        self._input_cursor = 0
        self._step_limit = step_limit
        self._call_depth_limit = call_depth_limit
        self._tamper = tamper
        self._tamper_fired = False
        self._tamper_site: Optional[
            Tuple[Tuple[str, str, int, int], ...]
        ] = None
        # Instruction delivery follows the subscribers' hooks: the bus
        # sets ``batch_sink`` when every instruction subscriber takes
        # batches, and then the loop appends committed instructions into
        # a preallocated flat buffer (two parallel lists — object refs
        # and touched addresses, no per-event allocation) and flushes it
        # through one call; otherwise ``instruction_sink`` takes each
        # instruction as it commits.
        self._bus = ObserverBus(observers)
        size = EVENT_BUFFER_CAPACITY if self._bus.batch_sink is not None else 0
        self._buffer_instructions: List[Optional[Instruction]] = [None] * size
        self._buffer_touched: List[Optional[int]] = [None] * size
        self._buffer_count = 0
        self._trace_branches = trace_branches
        self.memory = MemoryMap(module)
        self._stack: List[_Frame] = []
        self._outputs: List[int] = []
        self._branch_trace: List[Tuple[int, bool]] = []
        self._steps = 0

    # -- public API -----------------------------------------------------

    def run(self) -> RunResult:
        """Execute until ``main`` returns or a fault occurs."""
        functions = decoded_functions(self._module)
        entry_fn = functions.get("main")
        if entry_fn is None:
            self._module.function("main")  # raises the IRError
        status, return_value = self._execute(entry_fn)
        # Deliver any instructions still buffered at exit (normal
        # return, step/depth limits, faults) before end-of-execution.
        if self._buffer_count:
            self._bus.batch_sink(
                self._buffer_instructions, self._buffer_touched, self._buffer_count
            )
            self._buffer_count = 0
        self._bus.finish()
        return RunResult(
            status=status,
            steps=self._steps,
            outputs=self._outputs,
            branch_trace=self._branch_trace,
            return_value=return_value,
            tamper_fired=self._tamper_fired,
            reads_consumed=self._input_cursor,
            tamper_site=self._tamper_site,
        )

    def live_activations(self) -> List[Tuple[str, int]]:
        """(function, frame base) of every live frame, outer→inner."""
        return [(frame.function.name, frame.base) for frame in self._stack]

    # -- machinery ---------------------------------------------------------

    def _fire_tamper(self, label: str, index: int) -> None:
        """Corrupt the target word and snapshot the frame stack.

        ``label``/``index`` are the innermost frame's position: its
        resume point for a step trigger, the ``read_int`` call itself
        for a read trigger (the call only writes a register, so taking
        it as the resume point is conservative and correct for the
        prover).  Every other frame resumes after its call.
        """
        tamper = self._tamper
        if isinstance(tamper, LazyTamper):
            address, value = tamper.choose(
                self.memory.live_stack_slots(self.live_activations()),
                self.memory,
            )
        else:
            address, value = tamper.address, tamper.value
        self.memory.write(address, value)
        self._tamper_fired = True
        stack = self._stack
        site = []
        for frame in stack[:-1]:
            resume = frame.call[5]  # the call's continuation block
            site.append((frame.function.name, resume.label, resume.start, frame.base))
        if stack:
            site.append((stack[-1].function.name, label, index, stack[-1].base))
        self._tamper_site = tuple(site)

    def _halt(
        self,
        status: RunStatus,
        steps: int,
        cursor: int,
        count: int,
        value: Optional[int] = None,
    ) -> Tuple[RunStatus, Optional[int]]:
        self._steps = steps
        self._input_cursor = cursor
        self._buffer_count = count
        return status, value

    # -- the main loop ----------------------------------------------------------

    def _execute(
        self, entry: DecodedFunction
    ) -> Tuple[RunStatus, Optional[int]]:
        """Run decoded blocks until the entry function returns.

        A block's body is straight-line code, so it runs as one ``for``
        loop and its steps are counted in one addition; its tail then
        moves control.  A block that would reach the step limit or a
        pending step trigger runs only up to that point, and the rest
        of it becomes a block of its own.  A faulting division counts
        as a step but is never delivered.
        """
        # Everything the loop touches lives in locals.
        words = self.memory.words
        read = words.get
        stack = self._stack
        outputs = self._outputs
        inputs = self._inputs
        input_count = len(inputs)
        cursor = 0
        branch_trace = self._branch_trace if self._trace_branches else None
        bus = self._bus
        emit_call = bus.call_sink
        emit_return = bus.return_sink
        emit_branch = bus.branch_sink
        sink = bus.batch_sink
        emit_instruction = bus.instruction_sink
        batching = sink is not None
        deliver = batching or emit_instruction is not None
        buffer_instructions = self._buffer_instructions
        buffer_touched = self._buffer_touched
        capacity = EVENT_BUFFER_CAPACITY
        count = 0
        step_limit = self._step_limit
        depth_limit = self._call_depth_limit
        tamper = self._tamper
        trigger_at = read_at = _NEVER
        if tamper is not None:
            if tamper.trigger_kind == "step":
                trigger_at = tamper.trigger_value
            else:
                read_at = tamper.trigger_value
        # No instruction runs once ``steps`` reaches the limit, and the
        # trigger fires right after the instruction that reaches it.
        horizon = min(step_limit + 1, trigger_at)

        frame = _Frame(entry, STACK_BASE, entry.template[:])
        next_base = STACK_BASE + entry.frame_size
        stack.append(frame)
        if emit_call is not None:
            emit_call(entry.call_event)
        regs = frame.regs
        base = frame.base
        block = entry.entry
        steps = 0
        while True:
            entered = steps
            steps += block.steps
            cut = 0
            if steps < horizon:
                run = block.body
            else:
                steps = entered
                if steps >= step_limit:
                    return self._halt(RunStatus.STEP_LIMIT, steps, cursor, count)
                # Run up to the limit or the trigger, whichever comes
                # first; if that falls inside the body, stop there.
                room = min(step_limit, trigger_at) - steps
                if room < block.steps:
                    cut = room
                    run = block.body[:cut]
                    steps += cut
                else:
                    run = block.body
                    steps += block.steps
            for op in run:
                code = op[0]
                touched = None
                if code == LOAD_LOCAL:
                    touched = base + op[3]
                    regs[op[2]] = read(touched, 0)
                elif code == ADD:
                    regs[op[2]] = regs[op[3]] + regs[op[4]]
                elif code == ADDR_LOCAL:
                    regs[op[2]] = base + op[3]
                elif code == LOAD_INDIRECT:
                    touched = regs[op[3]]
                    regs[op[2]] = read(touched, 0)
                elif code == EMIT:
                    outputs.append(regs[op[2]])
                elif code == STORE_LOCAL:
                    touched = base + op[2]
                    words[touched] = regs[op[3]]
                elif code == READ:
                    regs[op[2]] = inputs[cursor] if cursor < input_count else 0
                    cursor += 1
                    if cursor >= read_at:
                        read_at = _NEVER
                        self._fire_tamper(block.label, op[3])
                elif code == LOAD_GLOBAL:
                    touched = op[3]
                    regs[op[2]] = read(touched, 0)
                elif code == STORE_INDIRECT:
                    touched = regs[op[2]]
                    words[touched] = regs[op[3]]
                elif code == STORE_GLOBAL:
                    touched = op[2]
                    words[touched] = regs[op[3]]
                elif code == SUB:
                    regs[op[2]] = regs[op[3]] - regs[op[4]]
                elif code == MUL:
                    regs[op[2]] = regs[op[3]] * regs[op[4]]
                elif code == DIV or code == MOD:
                    lhs = regs[op[3]]
                    rhs = regs[op[4]]
                    if rhs == 0:
                        steps = entered + op[5] - block.start + 1
                        return self._halt(
                            RunStatus.DIV_BY_ZERO, steps, cursor, count
                        )
                    # C semantics: truncation toward zero.
                    quotient = abs(lhs) // abs(rhs)
                    if (lhs < 0) != (rhs < 0):
                        quotient = -quotient
                    regs[op[2]] = (
                        quotient if code == DIV else lhs - quotient * rhs
                    )
                elif code == NEG:
                    regs[op[2]] = -regs[op[3]]
                elif code == NOT:
                    regs[op[2]] = int(regs[op[3]] == 0)
                elif code == CMP:
                    regs[op[2]] = int(op[3](regs[op[4]], regs[op[5]]))
                else:  # SET
                    regs[op[2]] = op[3]
                if deliver:
                    if batching:
                        buffer_instructions[count] = op[1]
                        buffer_touched[count] = touched
                        count += 1
                        if count == capacity:
                            sink(buffer_instructions, buffer_touched, count)
                            count = 0
                    else:
                        emit_instruction(op[1], touched)
            if cut:
                if steps >= trigger_at:
                    trigger_at = _NEVER
                    horizon = step_limit + 1
                    self._fire_tamper(block.label, block.start + cut)
                block = block.rest(cut)
                continue

            # The tail: its event (if any) is dispatched before the
            # instruction itself enters the buffer.
            tail = block.tail
            code = tail[0]
            if code == BRANCH:
                if tail[4](regs[tail[2]], regs[tail[3]]):
                    if branch_trace is not None:
                        branch_trace.append(tail[9])
                    if emit_branch is not None:
                        if count:
                            sink(buffer_instructions, buffer_touched, count)
                            count = 0
                        emit_branch(tail[7])
                    block = tail[5]
                else:
                    if branch_trace is not None:
                        branch_trace.append(tail[10])
                    if emit_branch is not None:
                        if count:
                            sink(buffer_instructions, buffer_touched, count)
                            count = 0
                        emit_branch(tail[8])
                    block = tail[6]
            elif code == JUMP:
                block = tail[2]
            elif code == RETURN:
                value = None if tail[2] is None else regs[tail[2]]
                finished = stack.pop()
                next_base = finished.base
                if emit_return is not None:
                    if count:
                        sink(buffer_instructions, buffer_touched, count)
                        count = 0
                    emit_return(finished.function.return_event)
                if stack:
                    frame = stack[-1]
                    call = frame.call
                    regs = frame.regs
                    base = frame.base
                    regs[call[4]] = 0 if value is None else value
                    block = call[5]
            else:  # CALL
                callee = tail[2]
                args = [regs[slot] for slot in tail[3]]
                frame.call = tail
                base = next_base
                next_base += callee.frame_size
                for offset, arg in zip(callee.param_offsets, args):
                    words[base + offset] = arg
                regs = callee.template[:]
                frame = _Frame(callee, base, regs)
                stack.append(frame)
                if emit_call is not None:
                    if count:
                        sink(buffer_instructions, buffer_touched, count)
                        count = 0
                    emit_call(callee.call_event)
                block = callee.entry
            if deliver:
                if batching:
                    buffer_instructions[count] = tail[1]
                    buffer_touched[count] = None
                    count += 1
                    if count == capacity:
                        sink(buffer_instructions, buffer_touched, count)
                        count = 0
                else:
                    emit_instruction(tail[1], None)
            if steps >= trigger_at:
                trigger_at = _NEVER
                horizon = step_limit + 1
                self._fire_tamper(block.label, block.start)
            # Only a call deepens the stack, and only a return empties it.
            if code == CALL:
                if len(stack) > depth_limit:
                    return self._halt(RunStatus.CALL_DEPTH, steps, cursor, count)
            elif code == RETURN and not stack:
                return self._halt(RunStatus.OK, steps, cursor, count, value)
