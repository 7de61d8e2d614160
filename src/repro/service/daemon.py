"""The ``repro serve`` daemon: one process, many detection sessions.

An asyncio server (unix socket by default, TCP optional) multiplexes
any number of concurrent detection sessions over one process.  The
socket protocol is line-delimited JSON (:mod:`repro.service.protocol`);
sessions themselves are plain synchronous
:class:`~repro.service.engine.DetectionSession` objects executed on a
bounded thread pool, so the event loop only ever routes messages.

Threading model:

* the loop thread owns the server, the per-connection writer queues,
  the session registry bookkeeping and the daemon metrics;
* each session runs entirely on one worker thread; its streamed events
  (state / progress / alarm / policy / result) hop back to the loop via
  ``call_soon_threadsafe`` onto the submitting connection's queue;
* compiled tables are shared across sessions (and threads) through the
  in-process single-flight cache in :mod:`repro.parallel.cache` — N
  sessions on the same workload compile once, and the ``metrics`` op
  reports the cache's hits, misses, lookups and hit rate since daemon
  start.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, Optional

from ..observability.metrics import MetricsRegistry
from ..observability.prometheus import render_prometheus
from ..observability.tracing import TraceContext, Tracer, write_spans
from ..parallel.cache import compile_cache_stats
from .engine import DetectionSession
from .policy import AlarmPolicy, make_policy
from .protocol import PROTOCOL_VERSION, ProtocolError, decode, encode, spec_from_payload
from .registry import SessionRegistry

#: Default cap on concurrently executing sessions (threads).
DEFAULT_MAX_WORKERS = 8


class DetectionDaemon:
    """The long-lived detection service.

    Listens on ``socket_path`` (unix domain socket) or ``host:port``
    (TCP, when ``socket_path`` is None).  :meth:`run` blocks serving
    until a client sends ``shutdown``; tests run it on a background
    thread and synchronize on :meth:`wait_ready`.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = DEFAULT_MAX_WORKERS,
        quarantine_dir: Optional[str] = None,
        default_policy: Optional[str] = None,
        trace_out: Optional[str] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.max_workers = max_workers
        self.quarantine_dir = quarantine_dir
        self.default_policy = default_policy
        self.trace_out = trace_out
        #: Daemon-lifetime tracer (None = tracing off).  Each session
        #: records spans into its own tracer, parented under the daemon
        #: root span when tracing; finished session spans are adopted
        #: here on the loop thread and exported to ``trace_out`` at
        #: shutdown.
        self.tracer: Optional[Tracer] = (
            Tracer(service="repro-serve") if trace_out else None
        )
        self._trace_root: Optional[TraceContext] = None
        self.registry = SessionRegistry()
        self.metrics = MetricsRegistry()
        #: Optional callback invoked with the bound address once the
        #: server is listening (the CLI prints its startup line here —
        #: with TCP port 0 the real port is only known at bind time).
        self.on_ready: Optional[Any] = None
        self._ready = threading.Event()
        self._started = time.monotonic()
        self._cache_baseline = compile_cache_stats()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._executor = None  # created inside run()

    # -- lifecycle --------------------------------------------------------

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the server is accepting connections."""
        return self._ready.wait(timeout)

    def run(self) -> int:
        """Serve until shutdown; returns 0 (the CLI exit code)."""
        try:
            asyncio.run(self._serve())
        finally:
            self._ready.set()
        return 0

    async def _serve(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-session",
        )
        self._started = time.monotonic()
        self._cache_baseline = compile_cache_stats()
        if self.socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path
            )
        else:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        if self.on_ready is not None:
            self.on_ready(self.socket_path or f"{self.host}:{self.port}")
        try:
            if self.tracer is not None:
                with self.tracer.span(
                    "serve",
                    address=self.socket_path or f"{self.host}:{self.port}",
                    max_workers=self.max_workers,
                ) as root:
                    self._trace_root = root.context
                    async with server:
                        await self._stop.wait()
            else:
                async with server:
                    await self._stop.wait()
            # One scheduling beat for connection handlers to flush
            # their final acks before the loop tears the tasks down.
            await asyncio.sleep(0.05)
        finally:
            self._executor.shutdown(wait=True)
            if self.tracer is not None and self.trace_out:
                write_spans(
                    self.tracer.finished, self.trace_out, service="repro-serve"
                )

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.increment("serve.connections")
        queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        sender = asyncio.ensure_future(self._drain(queue, writer))
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode(line)
                except ProtocolError as error:
                    queue.put_nowait(
                        encode({"event": "error", "error": str(error)})
                    )
                    continue
                stop = self._dispatch(message, queue)
                if stop:
                    break
        finally:
            # Shutdown races loop teardown: asyncio.run cancels this
            # task while it flushes the last ack, so treat cancellation
            # like a dropped connection rather than letting it surface
            # as an "exception in callback" on stderr.
            queue.put_nowait(None)
            try:
                await sender
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _drain(
        self, queue: "asyncio.Queue[Optional[bytes]]", writer: asyncio.StreamWriter
    ) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            writer.write(item)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return

    def _dispatch(
        self, message: Dict[str, Any], queue: "asyncio.Queue[Optional[bytes]]"
    ) -> bool:
        """Handle one request; True means close this connection (and,
        for shutdown, stop the daemon)."""
        op = message["op"]
        req_id = message.get("id")

        def reply(event: str, **payload: Any) -> None:
            body: Dict[str, Any] = {"event": event}
            if req_id is not None:
                body["id"] = req_id
            body.update(payload)
            queue.put_nowait(encode(body))

        try:
            if op == "hello":
                reply(
                    "hello",
                    protocol=PROTOCOL_VERSION,
                    max_workers=self.max_workers,
                )
            elif op == "submit":
                self._handle_submit(message, queue, reply)
            elif op == "sessions":
                reply("sessions", sessions=self._sessions_payload())
            elif op == "metrics":
                # "format" is a protocol-v1 additive field: absent or
                # "json" keeps the historical payload; "prometheus"
                # adds the text-exposition rendering alongside it.
                fmt = message.get("format", "json")
                if fmt == "prometheus":
                    reply(
                        "metrics",
                        metrics=self.metrics_payload(),
                        prometheus=render_prometheus(self.metrics),
                    )
                elif fmt == "json":
                    reply("metrics", metrics=self.metrics_payload())
                else:
                    raise ProtocolError(
                        f"unknown metrics format {fmt!r} "
                        "(expected 'json' or 'prometheus')"
                    )
            elif op == "kill":
                session_id = message.get("session", "")
                reply(
                    "killed",
                    session=session_id,
                    ok=self.registry.kill(session_id),
                )
            elif op == "reap":
                session_id = message.get("session", "")
                reply(
                    "reaped",
                    session=session_id,
                    ok=self.registry.reap(session_id),
                )
            elif op == "shutdown":
                reply("shutdown")
                assert self._stop is not None
                self._stop.set()
                return True
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except (ProtocolError, ValueError) as error:
            self.metrics.increment("serve.errors")
            reply("error", error=str(error))
        return False

    # -- sessions ---------------------------------------------------------

    def _handle_submit(
        self,
        message: Dict[str, Any],
        queue: "asyncio.Queue[Optional[bytes]]",
        reply,
    ) -> None:
        spec = spec_from_payload(message.get("spec"))
        policy_spec = message.get("policy", self.default_policy)
        policy: AlarmPolicy = make_policy(policy_spec, self.quarantine_dir)
        session_id = self.registry.allocate_id()
        req_id = message.get("id")
        loop = self._loop
        assert loop is not None

        def emit(kind: str, payload: Dict[str, Any]) -> None:
            body: Dict[str, Any] = {"event": kind, "session": session_id}
            if req_id is not None:
                body["id"] = req_id
            body.update(payload)
            data = encode(body)
            try:
                if kind == "result":
                    # Fold the session before its result is queued, so
                    # a ``metrics`` request sent after it counts it.
                    loop.call_soon_threadsafe(self._on_session_done, session)
                loop.call_soon_threadsafe(queue.put_nowait, data)
            except RuntimeError:
                pass  # loop already closed (daemon shutting down)

        # Distributed-trace propagation (protocol v1 additive field): a
        # client may hand its own trace context in the submit message;
        # otherwise traced sessions hang under the daemon root span.
        trace_parent = self._trace_root
        client_trace = message.get("trace")
        if isinstance(client_trace, dict) and client_trace.get("trace_id"):
            trace_parent = TraceContext.from_dict(client_trace)
        session = DetectionSession(
            spec,
            session_id=session_id,
            policy=policy,
            emit=emit,
            trace_parent=trace_parent,
        )
        self.registry.add(session)
        self.metrics.increment("serve.submitted")
        reply("accepted", session=session_id, mode=spec.mode)
        submitted = time.monotonic()

        def run_session():
            # Runs on the worker thread; the queue wait lands in the
            # session-local registry and is merged on the loop thread at
            # completion, so the daemon registry is never touched here.
            session.metrics.observe_histogram(
                "serve.queue_wait",
                max(time.monotonic() - submitted, 0.0),
            )
            return session.run()

        loop.run_in_executor(self._executor, run_session)

    def _on_session_done(self, session: DetectionSession) -> None:
        """Fold a finished session's telemetry into the daemon registry
        (runs on the loop thread, just before its ``result`` is queued)."""
        self.metrics.merge_snapshot(session.metrics.snapshot())
        self.metrics.increment(f"serve.sessions.{session.state.value}")
        if session.alarms:
            self.metrics.increment(
                f"serve.alarms.{session.program_name}", len(session.alarms)
            )
        if self.tracer is not None:
            self.tracer.adopt(session.tracer.span_dicts())

    def _sessions_payload(self) -> list:
        return [
            {
                "session": session.session_id,
                "mode": session.spec.mode,
                "program": session.program_name,
                "state": session.state.value,
                "alarms": len(session.alarms),
                "policy": session.policy.name,
            }
            for session in self.registry.list()
        ]

    # -- observability ----------------------------------------------------

    def metrics_payload(self) -> Dict[str, Any]:
        """The ``metrics`` op body: daemon counters, session states,
        shared-cache effectiveness, and aggregate throughput.

        ``uptime_monotonic_seconds`` is the raw monotonic-clock reading
        (unrounded), so clients can rate-compute without re-deriving the
        clock; ``steps_per_second`` guards the zero-uptime window
        explicitly instead of dividing by a clamped epsilon (which
        reported absurd throughput on a freshly started daemon).
        """
        uptime = max(time.monotonic() - self._started, 0.0)
        active = self.registry.active()
        self.metrics.set_gauge("serve.sessions_active", active)
        self.metrics.set_gauge(
            "serve.uptime_seconds", round(uptime, 3)
        )
        steps = self.metrics.value("interp.steps")
        snapshot = self.metrics.snapshot()
        cache = compile_cache_stats().since(self._cache_baseline)
        return {
            "uptime_seconds": round(uptime, 3),
            "uptime_monotonic_seconds": uptime,
            "sessions": self.registry.counts(),
            "sessions_active": active,
            "steps_per_second": (
                round(steps / uptime, 1) if uptime > 0 else 0.0
            ),
            "compile_cache": cache.to_dict(),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
        }
