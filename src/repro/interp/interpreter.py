"""Deterministic IR interpreter with tamper injection.

Stand-in for the paper's Bochs-based attack testbed (§6): runs a
program on a concrete memory map, feeds committed control-flow events
to any number of observers (the IPDS, tracers, the timing model) over
a single-dispatch :class:`~repro.runtime.observer.ObserverBus`, and
can corrupt one memory word mid-run to simulate a memory-tampering
attack.  One execution can drive every consumer simultaneously — the
checker, two timing models, an n-gram capture and an audit recorder
all see the same committed stream without re-running the program.

The attack trigger mirrors the paper's methodology: the tampering fires
when the program consumes its *n*-th input (the "malicious input"
moment) or at a raw step count, and overwrites a single chosen word —
"our attack tampers only a (randomly selected) specific local stack
location rather than a continuous memory block" (§6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..ir.function import IRFunction, IRModule
from ..ir.instructions import (
    AddrOf,
    BinOp,
    Call,
    Cmp,
    CondBranch,
    Const,
    Instruction,
    Jump,
    Load,
    LoadIndirect,
    Operand,
    Reg,
    Return,
    Store,
    StoreIndirect,
    UnOp,
)
from ..lang.errors import ReproError
from ..runtime.events import BranchEvent, CallEvent, Event, ReturnEvent
from ..runtime.observer import build_bus
from .state import MemoryMap, STACK_BASE


class InterpreterError(ReproError):
    """Structural problem (bad module, missing entry), not a program fault."""


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
    consumes its ``trigger_value``-th input, 1-based — the buffer
    overflow / format-string moment) or ``"step"`` (fire after N
    executed instructions).  ``address``/``value`` say which word is
    corrupted and with what.
    """

    trigger_kind: str
    trigger_value: int
    address: int
    value: int

    def __post_init__(self) -> None:
        _check_trigger_kind(self.trigger_kind)


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
        _check_trigger_kind(self.trigger_kind)


def _check_trigger_kind(kind: str) -> None:
    if kind not in ("read", "step"):
        raise ValueError(f"bad trigger kind {kind!r}")


#: Either tampering shape: a fixed target or one chosen at the trigger.
Tamper = Union[TamperSpec, LazyTamper]


@dataclass
class _Activation:
    function: IRFunction
    frame_base: int
    regs: Dict[Reg, int] = field(default_factory=dict)
    block_label: str = ""
    index: int = 0
    return_reg: Optional[Reg] = None
    #: The current block's instruction list, cached so the hot loop
    #: indexes a list instead of re-resolving ``function.block(label)``
    #: every step.  Kept in lockstep with ``block_label``.
    instructions: List[Instruction] = field(default_factory=list)


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


#: Listener signature: receives each control-flow event as it commits.
EventListener = Callable[[Event], None]
#: Optional per-instruction listener (used by the timing model).
InstructionListener = Callable[[Instruction, Optional[int]], None]

#: Capacity of the flat instruction-event buffer (entries).  Batches
#: also flush at every basic-block / control-flow boundary, so the
#: capacity only caps straight-line runs; 512 comfortably covers the
#: longest block any workload lowers to while keeping the buffer in
#: cache.
EVENT_BUFFER_CAPACITY = 512


class Interpreter:
    """Executes one module from its entry function.

    Consumers attach through ``observers`` — objects implementing the
    :class:`~repro.runtime.observer.ExecutionObserver` protocol.  The
    legacy ``event_listeners`` / ``instruction_listener`` kwargs are
    still accepted and are wrapped onto the same bus, so every event is
    dispatched exactly once regardless of consumer style.
    """

    def __init__(
        self,
        module: IRModule,
        inputs: Sequence[int] = (),
        entry: str = "main",
        step_limit: int = 2_000_000,
        call_depth_limit: int = 256,
        tamper: Optional[Tamper] = None,
        event_listeners: Sequence[EventListener] = (),
        instruction_listener: Optional[InstructionListener] = None,
        trace_branches: bool = True,
        syscall_listener: Optional[Callable[[str, int], None]] = None,
        observers: Sequence[object] = (),
        batched_delivery: bool = True,
    ):
        if not module.finalized:
            raise InterpreterError("module must be finalized before execution")
        self._module = module
        self._entry = entry
        self._inputs = list(inputs)
        self._input_cursor = 0
        self._step_limit = step_limit
        self._call_depth_limit = call_depth_limit
        self._tamper = tamper
        self._tamper_fired = False
        self._tamper_site: Optional[
            Tuple[Tuple[str, str, int, int], ...]
        ] = None
        self._bus = build_bus(observers, event_listeners, instruction_listener)
        # Dispatch targets are resolved once per hook: None means "no
        # subscriber", so the hot paths skip both the call and the
        # event allocation.
        self._emit_call = self._bus.call_sink()
        self._emit_return = self._bus.return_sink()
        self._emit_branch = self._bus.branch_sink()
        self._emit_instruction = self._bus.instruction_sink()
        # Batched delivery: the hot loop appends committed instructions
        # into a preallocated flat buffer (two parallel lists — object
        # refs and touched addresses, no per-event allocation) and
        # flushes it through one instruction_batch_sink call at every
        # basic-block boundary and before any control-flow event, so
        # consumers see the exact per-instruction interleaving.  The
        # legacy per-instruction path stays available
        # (``batched_delivery=False``) as the differential-equivalence
        # reference.
        self._batch_sink = (
            self._bus.instruction_batch_sink() if batched_delivery else None
        )
        if self._batch_sink is not None:
            self._emit_instruction = None
            self._buffer_instructions: List[Optional[Instruction]] = (
                [None] * EVENT_BUFFER_CAPACITY
            )
            self._buffer_touched: List[Optional[int]] = (
                [None] * EVENT_BUFFER_CAPACITY
            )
        else:
            self._buffer_instructions = []
            self._buffer_touched = []
        self._buffer_count = 0
        # Coarse-grained observation channel for baseline anomaly
        # detectors: called with (callee name, call-site PC) of every
        # call — builtin "system calls" and user functions alike.  The
        # call-site PC matches the call-stack-augmented detectors of
        # Feng et al. [10].
        self._syscall_listener = syscall_listener
        self._trace_branches = trace_branches
        self.memory = MemoryMap(module)
        self._stack: List[_Activation] = []
        self._next_frame_base = STACK_BASE
        self._outputs: List[int] = []
        self._branch_trace: List[Tuple[int, bool]] = []
        self._steps = 0

    # -- public API -----------------------------------------------------

    def run(self) -> RunResult:
        """Execute until the entry function returns or a fault occurs."""
        entry_fn = self._module.function(self._entry)
        status, return_value = self._execute(entry_fn)
        # Deliver any instructions still buffered at exit (normal
        # return, step/depth limits, faults) before end-of-execution.
        if self._buffer_count:
            self._flush_events()
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
        return [(a.function.name, a.frame_base) for a in self._stack]

    # -- machinery ---------------------------------------------------------

    def _flush_events(self) -> None:
        """Deliver the buffered instruction events in one batch call.

        Invoked before every control-flow event (call/return/branch),
        before the syscall listener, at buffer capacity and at
        end-of-execution — so no consumer can observe an event out of
        the order the per-instruction path produced.  The count is
        cleared before dispatch so a re-entrant producer never
        re-delivers the same batch.
        """
        count = self._buffer_count
        if count:
            self._buffer_count = 0
            self._batch_sink(
                self._buffer_instructions, self._buffer_touched, count
            )

    def _push_activation(
        self, fn: IRFunction, args: Sequence[int], return_reg: Optional[Reg]
    ) -> _Activation:
        base = self._next_frame_base
        self._next_frame_base += self.memory.frame_size(fn.name)
        entry_block = fn.entry
        activation = _Activation(
            function=fn,
            frame_base=base,
            block_label=entry_block.label,
            index=0,
            return_reg=return_reg,
            instructions=entry_block.instructions,
        )
        for param, value in zip(fn.params, args):
            self.memory.write(
                self.memory.address_of(param, base), value
            )
        self._stack.append(activation)
        if self._emit_call is not None:
            if self._buffer_count:
                self._flush_events()
            self._emit_call(CallEvent(fn.name))
        return activation

    def _pop_activation(self, value: Optional[int]) -> Optional[int]:
        finished = self._stack.pop()
        self._next_frame_base = finished.frame_base
        if self._emit_return is not None:
            if self._buffer_count:
                self._flush_events()
            self._emit_return(ReturnEvent(finished.function.name))
        if self._stack and finished.return_reg is not None:
            self._stack[-1].regs[finished.return_reg] = (
                value if value is not None else 0
            )
        return value

    def _value(self, activation: _Activation, operand: Operand) -> int:
        if isinstance(operand, Reg):
            return activation.regs[operand]
        return operand

    def _maybe_tamper_after_read(self) -> None:
        if (
            self._tamper is not None
            and not self._tamper_fired
            and self._tamper.trigger_kind == "read"
            and self._input_cursor >= self._tamper.trigger_value
        ):
            self._fire_tamper()

    def _fire_tamper(self) -> None:
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
        self._record_tamper_site()

    def _record_tamper_site(self) -> None:
        """Snapshot the frame stack at the corruption moment.

        Step triggers run after ``_step`` returns, so every frame's
        ``index`` already points at its next instruction.  Read
        triggers run inside the ``Call(read_int)`` arm: the innermost
        index still names the call itself — which only writes a
        register, so treating it as the resume point is conservative
        and correct for the prover (the call is v-clean).
        """
        self._tamper_site = tuple(
            (a.function.name, a.block_label, a.index, a.frame_base)
            for a in self._stack
        )

    def _read_input(self) -> int:
        if self._input_cursor < len(self._inputs):
            value = self._inputs[self._input_cursor]
        else:
            value = 0
        self._input_cursor += 1
        self._maybe_tamper_after_read()
        return value

    # -- the main loop ----------------------------------------------------------

    def _execute(self, entry_fn: IRFunction) -> Tuple[RunStatus, Optional[int]]:
        self._push_activation(entry_fn, [], None)
        final_value: Optional[int] = None
        # Per-instruction work: hoist everything resolvable out of the
        # loop so each iteration pays local loads only.
        stack = self._stack
        step = self._step
        step_limit = self._step_limit
        depth_limit = self._call_depth_limit
        emit_instruction = self._emit_instruction
        # Only a step trigger needs a check after every instruction.
        tamper = self._tamper
        step_trigger = (
            tamper.trigger_value
            if tamper is not None and tamper.trigger_kind == "step"
            else None
        )
        batching = self._batch_sink is not None
        buffer_instructions = self._buffer_instructions
        buffer_touched = self._buffer_touched
        flush = self._flush_events
        while stack:
            if self._steps >= step_limit:
                return RunStatus.STEP_LIMIT, None
            activation = stack[-1]
            instruction = activation.instructions[activation.index]
            self._steps += 1
            try:
                outcome = step(activation, instruction)
            except ZeroDivisionError:
                return RunStatus.DIV_BY_ZERO, None
            if batching:
                # Append into the flat buffer; _step already flushed it
                # ahead of any control-flow event this instruction
                # produced, so the committed order is preserved.
                count = self._buffer_count
                buffer_instructions[count] = instruction
                buffer_touched[count] = outcome
                count += 1
                self._buffer_count = count
                if count == EVENT_BUFFER_CAPACITY:
                    flush()
            elif emit_instruction is not None:
                emit_instruction(instruction, outcome)
            if (
                step_trigger is not None
                and self._steps >= step_trigger
                and not self._tamper_fired
            ):
                self._fire_tamper()
            if not stack:
                # Entry function returned; final value captured below.
                final_value = self._final_value
            if len(stack) > depth_limit:
                return RunStatus.CALL_DEPTH, None
        return RunStatus.OK, final_value

    _final_value: Optional[int] = None

    def _step(
        self, activation: _Activation, instruction: Instruction
    ) -> Optional[int]:
        """Execute one instruction.

        Returns the data address the instruction touched (for the
        timing model's cache simulation) or None.

        Dispatch compares ``instruction.__class__`` by identity —
        cheaper than an isinstance chain, and exact because the IR
        instruction set is closed (no concrete class is subclassed).
        Arms are ordered by dynamic frequency in the workload suite.
        """
        regs = activation.regs
        cls = instruction.__class__
        touched: Optional[int] = None
        advance = True

        if cls is BinOp:
            lhs = instruction.lhs
            if lhs.__class__ is Reg:
                lhs = regs[lhs]
            rhs = instruction.rhs
            if rhs.__class__ is Reg:
                rhs = regs[rhs]
            regs[instruction.dest] = self._binop(instruction.op, lhs, rhs)
        elif cls is Const:
            regs[instruction.dest] = instruction.value
        elif cls is Cmp:
            lhs = instruction.lhs
            if lhs.__class__ is Reg:
                lhs = regs[lhs]
            rhs = instruction.rhs
            if rhs.__class__ is Reg:
                rhs = regs[rhs]
            regs[instruction.dest] = int(instruction.op.evaluate(lhs, rhs))
        elif cls is Load:
            address = self.memory.address_of(
                instruction.var, activation.frame_base
            )
            regs[instruction.dest] = self.memory.read(address)
            touched = address
        elif cls is Store:
            address = self.memory.address_of(
                instruction.var, activation.frame_base
            )
            src = instruction.src
            self.memory.write(
                address, regs[src] if src.__class__ is Reg else src
            )
            touched = address
        elif cls is CondBranch:
            lhs = regs[instruction.lhs]
            rhs = instruction.rhs
            if rhs.__class__ is Reg:
                rhs = regs[rhs]
            taken = instruction.op.evaluate(lhs, rhs)
            if self._trace_branches:
                self._branch_trace.append((instruction.address, taken))
            if self._emit_branch is not None:
                if self._buffer_count:
                    self._flush_events()
                self._emit_branch(
                    BranchEvent(
                        activation.function.name, instruction.address, taken
                    )
                )
            target = instruction.taken if taken else instruction.fallthrough
            activation.block_label = target
            activation.instructions = activation.function.block(
                target
            ).instructions
            activation.index = 0
            advance = False
        elif cls is Jump:
            target = instruction.target
            activation.block_label = target
            activation.instructions = activation.function.block(
                target
            ).instructions
            activation.index = 0
            advance = False
        elif cls is Call:
            advance = self._call(activation, instruction)
        elif cls is UnOp:
            src = instruction.src
            if src.__class__ is Reg:
                src = regs[src]
            regs[instruction.dest] = -src if instruction.op == "-" else int(src == 0)
        elif cls is AddrOf:
            regs[instruction.dest] = self.memory.address_of(
                instruction.var, activation.frame_base
            )
        elif cls is LoadIndirect:
            address = regs[instruction.addr]
            regs[instruction.dest] = self.memory.read(address)
            touched = address
        elif cls is StoreIndirect:
            address = regs[instruction.addr]
            src = instruction.src
            self.memory.write(
                address, regs[src] if src.__class__ is Reg else src
            )
            touched = address
        elif cls is Return:
            value = (
                self._value(activation, instruction.value)
                if instruction.value is not None
                else None
            )
            if len(self._stack) == 1:
                self._final_value = value
            self._pop_activation(value)
            advance = False
        else:  # pragma: no cover - defensive
            raise InterpreterError(f"unknown instruction {instruction!r}")

        if advance:
            activation.index += 1
        return touched

    def _call(self, activation: _Activation, instruction: Call) -> bool:
        args = [self._value(activation, a) for a in instruction.args]
        if self._syscall_listener is not None:
            # Keep the coarse syscall channel interleaved exactly as the
            # per-instruction path would: drain buffered events first.
            if self._buffer_count:
                self._flush_events()
            self._syscall_listener(instruction.callee, instruction.address)
        if instruction.callee == "read_int":
            activation.regs[instruction.dest] = self._read_input()
            return True
        if instruction.callee == "emit":
            self._outputs.append(args[0])
            return True
        callee = self._module.function(instruction.callee)
        # Advance the caller past the call before transferring control.
        activation.index += 1
        self._push_activation(callee, args, instruction.dest)
        return False

    @staticmethod
    def _binop(op: str, lhs: int, rhs: int) -> int:
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if rhs == 0:
            raise ZeroDivisionError
        # C semantics: truncation toward zero.
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        if op == "/":
            return quotient
        if op == "%":
            return lhs - quotient * rhs
        raise InterpreterError(f"unknown binop {op!r}")


def run_program(
    module: IRModule,
    inputs: Sequence[int] = (),
    entry: str = "main",
    tamper: Optional[Tamper] = None,
    event_listeners: Sequence[EventListener] = (),
    step_limit: int = 2_000_000,
    observers: Sequence[object] = (),
) -> RunResult:
    """Convenience wrapper: build an interpreter and run it."""
    interpreter = Interpreter(
        module,
        inputs=inputs,
        entry=entry,
        tamper=tamper,
        event_listeners=event_listeners,
        step_limit=step_limit,
        observers=observers,
    )
    return interpreter.run()
