"""The execution-observer protocol and the event bus.

The paper's runtime is a single committed-control-flow stream fanned
out to consumers (§5.4: the IPDS checker, the timing hardware, the
audit log).  :class:`ExecutionObserver` is the typed contract every
consumer implements; :class:`ObserverBus` is the fan-out point the
interpreter drives — each event is dispatched exactly once to every
observer that overrides its hook.

Hooks (all optional — the base class implementations are no-ops):

* ``on_call(event)``    — a function activation was pushed;
* ``on_return(event)``  — a function activation was popped;
* ``on_branch(event)``  — a conditional branch committed;
* ``on_instruction(instruction, touched)`` — one instruction committed
  (``touched`` is the data address it accessed, or ``None``);
* ``on_instruction_batch(instructions, touched, count)`` — a *batch*
  of consecutive committed instructions (see below);
* ``finish()``          — the execution ended; flush/aggregate.

The bus pre-filters subscribers per hook: observers that keep a
base-class no-op never pay that hook's dispatch, and when *no* observer
overrides a hook its sink is None, so the interpreter skips even
allocating the event.  This is what makes attaching control-flow-only
consumers (IPDS, trace recorders) essentially free on the instruction
hot path, and instruction-only consumers free on the control-flow
stream.  Which hooks a class overrides is worked out once, when the
class is defined.

Instruction delivery follows the subscribers' hooks.  When every
instruction subscriber overrides ``on_instruction_batch``, the
interpreter buffers committed instructions and delivers them in
batches (``batch_sink``); a batch is always flushed *before* any
control-flow event is dispatched, so every observer still sees the
exact interleaving of instructions and events — batching changes the
call granularity, never the order.  The buffers passed to a batch hook
are owned by the producer and reused after the call returns —
consumers must copy anything they keep.  Otherwise each instruction is
delivered as it commits (``instruction_sink``), so an observer that
defines only ``on_instruction`` may read the machine state its
instruction left behind; a subscriber with only a batch hook then
receives one-instruction batches.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Sequence

from .events import BranchEvent, CallEvent, ReturnEvent

_HOOKS = (
    "on_call", "on_return", "on_branch", "on_instruction", "on_instruction_batch"
)


class ExecutionObserver:
    """Base class for committed-execution consumers.

    Subclass and override the hooks you need; every default is a no-op
    so observers state only what they consume.
    """

    #: The hooks this class overrides (set once per subclass).
    _overrides: FrozenSet[str] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._overrides = frozenset(
            hook
            for hook in _HOOKS
            if getattr(cls, hook) is not getattr(ExecutionObserver, hook)
        )

    def on_call(self, event: CallEvent) -> Any:
        """A function activation was pushed."""

    def on_return(self, event: ReturnEvent) -> Any:
        """A function activation was popped."""

    def on_branch(self, event: BranchEvent) -> Any:
        """A conditional branch committed."""

    def on_instruction(self, instruction: Any, touched: Optional[int]) -> Any:
        """One instruction committed (``touched`` = data address or None)."""

    def on_instruction_batch(
        self,
        instructions: Sequence[Any],
        touched: Sequence[Optional[int]],
        count: int,
    ) -> Any:
        """A batch of consecutive committed instructions.

        ``instructions[:count]`` / ``touched[:count]`` are the valid
        entries (the producer reuses a preallocated buffer, so the
        lists may be longer than ``count`` and are overwritten after
        this call returns).
        """

    def finish(self) -> None:
        """The observed execution ended."""


class ProgressObserver(ExecutionObserver):
    """Periodic liveness callback for long executions.

    Counts committed control-flow events (calls, returns, branches) and
    invokes ``callback(events_seen)`` every ``every`` events — the hook
    the detection daemon uses to stream step progress for a running
    session and to poll for operator kill requests.  Purely
    observational: it subscribes only to the control-flow stream, so
    instruction-hot-path cost is zero and detection results are
    untouched.
    """

    def __init__(
        self, callback: Callable[[int], None], every: int = 10_000
    ) -> None:
        if every < 1:
            raise ValueError(f"progress interval must be >= 1, got {every}")
        self._callback = callback
        self._every = every
        self.events_seen = 0

    def _tick(self) -> None:
        self.events_seen += 1
        if self.events_seen % self._every == 0:
            self._callback(self.events_seen)

    def on_call(self, event: CallEvent) -> None:
        self._tick()

    def on_return(self, event: ReturnEvent) -> None:
        self._tick()

    def on_branch(self, event: BranchEvent) -> None:
        self._tick()


def _fan_out(targets: List[Callable[..., None]]) -> Optional[Callable[..., None]]:
    """One dispatch target for a hook's bound subscribers.

    None when there are none; the lone target itself when there is
    exactly one (the common case, no fan-out loop); a small fan-out
    closure otherwise.
    """
    if len(targets) < 2:
        return targets[0] if targets else None

    def fan_out(*args: Any) -> None:
        for target in targets:
            target(*args)

    return fan_out


def _one_at_a_time(observer: ExecutionObserver) -> Callable[[Any, Optional[int]], None]:
    """An observer's per-instruction target: its ``on_instruction``,
    or one-instruction batches for a batch-only observer."""
    if "on_instruction" in observer._overrides:
        return observer.on_instruction
    batch = observer.on_instruction_batch

    def single(instruction: Any, touched: Optional[int]) -> None:
        batch((instruction,), (touched,), 1)

    return single


class ObserverBus:
    """Single-dispatch fan-out for one execution's event stream.

    ``call_sink`` / ``return_sink`` / ``branch_sink`` take one event;
    at most one of ``batch_sink`` (batched delivery) and
    ``instruction_sink`` (one instruction as it commits) is set.  Each
    is None when nobody subscribes.
    """

    __slots__ = (
        "observers",
        "call_sink",
        "return_sink",
        "branch_sink",
        "batch_sink",
        "instruction_sink",
    )

    def __init__(self, observers: Iterable[ExecutionObserver] = ()) -> None:
        self.observers: List[ExecutionObserver] = list(observers)
        for observer in self.observers:
            if not isinstance(observer, ExecutionObserver):
                raise TypeError(f"not an ExecutionObserver: {observer!r}")

        def bound(hook: str) -> List[Callable[..., None]]:
            return [
                getattr(observer, hook)
                for observer in self.observers
                if hook in observer._overrides
            ]

        self.call_sink = _fan_out(bound("on_call"))
        self.return_sink = _fan_out(bound("on_return"))
        self.branch_sink = _fan_out(bound("on_branch"))
        subscribers = [
            observer
            for observer in self.observers
            if "on_instruction" in observer._overrides
            or "on_instruction_batch" in observer._overrides
        ]
        if all("on_instruction_batch" in o._overrides for o in subscribers):
            self.batch_sink = _fan_out(bound("on_instruction_batch"))
            self.instruction_sink = None
        else:
            self.batch_sink = None
            self.instruction_sink = _fan_out(
                [_one_at_a_time(observer) for observer in subscribers]
            )

    def finish(self) -> None:
        """Signal end-of-execution to every observer."""
        for observer in self.observers:
            observer.finish()
