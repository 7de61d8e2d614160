"""The execution-observer protocol and the event bus.

The paper's runtime is a single committed-control-flow stream fanned
out to consumers (§5.4: the IPDS checker, the timing hardware, the
audit log).  :class:`ExecutionObserver` is the typed contract every
consumer implements; :class:`ObserverBus` is the fan-out point the
interpreter drives — each event is dispatched exactly once, through
``event.dispatch(observer)``, instead of every consumer re-classifying
the event with its own isinstance chain.

Hooks (all optional — the base class implementations are no-ops):

* ``on_call(event)``    — a function activation was pushed;
* ``on_return(event)``  — a function activation was popped;
* ``on_branch(event)``  — a conditional branch committed;
* ``on_instruction(instruction, touched)`` — any instruction committed
  (``touched`` is the data address it accessed, or ``None``);
* ``on_instruction_batch(instructions, touched, count)`` — a *batch*
  of consecutive committed instructions (see below);
* ``finish()``          — the execution ended; flush/aggregate.

The bus pre-filters subscribers per hook: observers that keep a
base-class no-op never pay that hook's dispatch, and when *no* observer
overrides a hook the producer-facing sink (``call_sink`` /
``return_sink`` / ``branch_sink`` / ``instruction_sink``) is None, so
the interpreter skips even allocating the event.  This is what makes
attaching control-flow-only consumers (IPDS, trace recorders)
essentially free on the instruction hot path, and instruction-only
consumers free on the control-flow stream.

Batched instruction delivery: producers that buffer committed
instructions (the interpreter's flat event buffer) deliver them through
``instruction_batch_sink()`` instead of one ``emit_instruction`` call
per step.  A batch is always flushed *before* any control-flow event
is dispatched, so every observer still sees the exact interleaving the
per-instruction path produced — batching changes the call granularity,
never the order.  Observers override ``on_instruction_batch`` to
process the whole buffer in one call (the timing model's fast path);
the base-class default loops over ``on_instruction``, so plain
per-instruction observers ride batches unchanged.  The buffers passed
to a batch hook are owned by the producer and reused after the call
returns — consumers must copy anything they keep.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence

from .events import BranchEvent, CallEvent, Event, ReturnEvent


class ExecutionObserver:
    """Base class for committed-execution consumers.

    Subclass and override the hooks you need; every default is a no-op
    so observers state only what they consume.
    """

    def on_call(self, event: CallEvent) -> Any:
        """A function activation was pushed."""

    def on_return(self, event: ReturnEvent) -> Any:
        """A function activation was popped."""

    def on_branch(self, event: BranchEvent) -> Any:
        """A conditional branch committed."""

    def on_instruction(self, instruction: Any, touched: Optional[int]) -> Any:
        """Any instruction committed (``touched`` = data address or None)."""

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
        this call returns).  The default unrolls the batch through
        ``on_instruction`` in order, so observers that only implement
        the per-instruction hook see an identical event sequence.
        """
        on_instruction = self.on_instruction
        for index in range(count):
            on_instruction(instructions[index], touched[index])

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


class CallbackObserver(ExecutionObserver):
    """Adapts a bare ``Callable[[Event], None]`` to the bus.

    The callable receives every control-flow event, in order.
    """

    def __init__(self, callback: Callable[[Event], None]) -> None:
        self._callback = callback

    def on_call(self, event: CallEvent) -> None:
        self._callback(event)

    def on_return(self, event: ReturnEvent) -> None:
        self._callback(event)

    def on_branch(self, event: BranchEvent) -> None:
        self._callback(event)


def as_observer(consumer: Any) -> ExecutionObserver:
    """Coerce a consumer to the observer protocol.

    Observers pass through; bare callables (control-flow event
    listeners) are wrapped in a :class:`CallbackObserver`.
    """
    if isinstance(consumer, ExecutionObserver):
        return consumer
    if callable(consumer):
        return CallbackObserver(consumer)
    raise TypeError(
        f"not an ExecutionObserver or event callable: {consumer!r}"
    )


class ObserverBus:
    """Single-dispatch fan-out for one execution's event stream."""

    __slots__ = (
        "observers",
        "_instruction_observers",
        "_call_observers",
        "_return_observers",
        "_branch_observers",
    )

    def __init__(self, observers: Iterable[Any] = ()) -> None:
        self.observers: List[ExecutionObserver] = [
            as_observer(observer) for observer in observers
        ]
        # Per-hook pre-filtering: only observers that actually override
        # a hook pay its dispatch — and when nobody overrides it, the
        # producer's sink is None and the event is never even built.
        # Overriding either instruction hook subscribes to the
        # instruction stream (the default batch hook unrolls into
        # on_instruction, and vice versa a batch-only observer still
        # consumes per-instruction emission through its batch hook).
        self._instruction_observers = self._overriders(
            "on_instruction", "on_instruction_batch"
        )
        self._call_observers = self._overriders("on_call")
        self._return_observers = self._overriders("on_return")
        self._branch_observers = self._overriders("on_branch")

    def _overriders(self, *hooks: str) -> List[ExecutionObserver]:
        bases = tuple(getattr(ExecutionObserver, hook) for hook in hooks)
        return [
            observer
            for observer in self.observers
            if any(
                getattr(type(observer), hook) is not base
                for hook, base in zip(hooks, bases)
            )
        ]

    def __len__(self) -> int:
        return len(self.observers)

    @property
    def wants_instructions(self) -> bool:
        return bool(self._instruction_observers)

    def emit(self, event: Event) -> None:
        """Dispatch one control-flow event to every observer, once."""
        for observer in self.observers:
            event.dispatch(observer)

    @staticmethod
    def _instruction_target(
        observer: ExecutionObserver,
    ) -> Callable[[Any, Optional[int]], None]:
        """Per-instruction dispatch target for one subscriber.

        Observers that override ``on_instruction`` get it directly; a
        batch-only observer gets an adapter that wraps each instruction
        in a one-element batch, so no event is ever dropped on the
        unbatched delivery path.
        """
        if (
            type(observer).on_instruction
            is not ExecutionObserver.on_instruction
        ):
            return observer.on_instruction
        batch_hook = observer.on_instruction_batch

        def single(instruction: Any, touched: Optional[int]) -> None:
            batch_hook([instruction], [touched], 1)

        return single

    def emit_instruction(self, instruction: Any, touched: Optional[int]) -> None:
        """Dispatch one committed instruction to subscribers only."""
        for observer in self._instruction_observers:
            self._instruction_target(observer)(instruction, touched)

    @staticmethod
    def _sink(
        subscribers: List[ExecutionObserver], hook: str
    ) -> Optional[Callable[..., None]]:
        """Pre-bound dispatch target for one hook's subscriber list.

        None when nobody overrides the hook — the producer then skips
        the call *and* the event allocation.  The lone subscriber's
        bound method when there is exactly one (the common case),
        cutting out the fan-out loop; a small fan-out closure otherwise.
        """
        if not subscribers:
            return None
        if len(subscribers) == 1:
            return getattr(subscribers[0], hook)
        hooks = [getattr(subscriber, hook) for subscriber in subscribers]

        def fan_out(*args: Any) -> None:
            for bound in hooks:
                bound(*args)

        return fan_out

    def call_sink(self) -> Optional[Callable[[CallEvent], None]]:
        return self._sink(self._call_observers, "on_call")

    def return_sink(self) -> Optional[Callable[[ReturnEvent], None]]:
        return self._sink(self._return_observers, "on_return")

    def branch_sink(self) -> Optional[Callable[[BranchEvent], None]]:
        return self._sink(self._branch_observers, "on_branch")

    def instruction_sink(
        self,
    ) -> Optional[Callable[[Any, Optional[int]], None]]:
        subscribers = self._instruction_observers
        if not subscribers:
            return None
        targets = [
            self._instruction_target(subscriber) for subscriber in subscribers
        ]
        if len(targets) == 1:
            return targets[0]

        def fan_out(instruction: Any, touched: Optional[int]) -> None:
            for target in targets:
                target(instruction, touched)

        return fan_out

    def instruction_batch_sink(
        self,
    ) -> Optional[Callable[[Sequence[Any], Sequence[Optional[int]], int], None]]:
        """Pre-bound dispatch target for batched instruction delivery.

        None when nobody subscribes to the instruction stream.  Every
        subscriber receives the whole batch through its
        ``on_instruction_batch`` hook — the base-class default unrolls
        into ``on_instruction``, so per-instruction observers see the
        identical event sequence at batch granularity.
        """
        return self._sink(self._instruction_observers, "on_instruction_batch")

    def finish(self) -> None:
        """Signal end-of-execution to every observer."""
        for observer in self.observers:
            observer.finish()
