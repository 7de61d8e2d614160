"""A small blocking client for the ``repro serve`` socket protocol.

For scripts, tests and CI — no asyncio required on the client side.
One connection can keep many sessions in flight; the client buffers
out-of-order daemon messages internally, so you can submit N sessions
and then collect their results in any order::

    with ServeClient(socket_path=path) as client:
        sid = client.submit({"mode": "attack", "workload": "echo_server",
                             "attack_index": 3, "forensics": True})
        result = client.result(sid)
        print(client.metrics()["compile_cache"]["hit_rate"])
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from .protocol import ProtocolError


class ServeClient:
    """Blocking NDJSON client for a running detection daemon.

    Connects to ``socket_path`` (unix) or ``host``/``port`` (TCP),
    retrying until ``connect_timeout`` elapses — so it can race a
    just-spawned daemon.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: float = 120.0,
        connect_timeout: float = 10.0,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("need a socket_path or a port")
        self._sock = self._connect(
            socket_path, host, port, connect_timeout
        )
        self._sock.settimeout(timeout)
        self._reader = self._sock.makefile("rb")
        self._backlog: List[Dict[str, Any]] = []
        self._next_id = 0

    @staticmethod
    def _connect(
        socket_path: Optional[str],
        host: str,
        port: Optional[int],
        connect_timeout: float,
    ) -> socket.socket:
        deadline = time.monotonic() + connect_timeout
        while True:
            try:
                if socket_path is None:
                    return socket.create_connection((host, port))
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.connect(socket_path)
                except OSError:
                    sock.close()
                    raise
                return sock
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    # -- context manager --------------------------------------------------

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    # -- wire plumbing ----------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        self._sock.sendall(
            (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")
        )

    def _read(self) -> Dict[str, Any]:
        line = self._reader.readline()
        if not line:
            raise ProtocolError("daemon closed the connection")
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"bad daemon line: {error}") from None
        if not isinstance(message, dict):
            raise ProtocolError(f"bad daemon message: {message!r}")
        return message

    def wait_for(
        self, predicate: Callable[[Dict[str, Any]], bool]
    ) -> Dict[str, Any]:
        """The first message (buffered or fresh) matching ``predicate``;
        everything else read along the way stays buffered in order."""
        for position, message in enumerate(self._backlog):
            if predicate(message):
                return self._backlog.pop(position)
        while True:
            message = self._read()
            if predicate(message):
                return message
            self._backlog.append(message)

    def _request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one op and wait for its direct (id-echoed) response."""
        self._next_id += 1
        req_id = f"r{self._next_id}"
        self._send({"op": op, "id": req_id, **fields})
        message = self.wait_for(
            lambda m: m.get("id") == req_id
            and m.get("event") not in ("state", "progress", "alarm", "policy")
        )
        if message.get("event") == "error":
            raise ProtocolError(message.get("error", "daemon error"))
        return message

    # -- the protocol ops -------------------------------------------------

    def hello(self) -> Dict[str, Any]:
        return self._request("hello")

    def submit(
        self,
        spec: Dict[str, Any],
        policy: Optional[Any] = None,
        trace: Optional[Dict[str, str]] = None,
    ) -> str:
        """Submit one session; returns its assigned session id.

        ``trace`` is an optional :class:`TraceContext` dict
        (``trace_id`` / ``span_id``): the daemon parents the session's
        spans under the *client's* trace instead of its own root.
        """
        fields: Dict[str, Any] = {"spec": spec}
        if policy is not None:
            fields["policy"] = policy
        if trace is not None:
            fields["trace"] = trace
        message = self._request("submit", **fields)
        if message.get("event") != "accepted":
            raise ProtocolError(f"unexpected submit response: {message}")
        return message["session"]

    def result(self, session_id: str) -> Dict[str, Any]:
        """Block until ``session_id``'s terminal result event arrives."""
        message = self.wait_for(
            lambda m: m.get("event") == "result"
            and m.get("session") == session_id
        )
        return message["result"]

    def results(
        self, session_ids: Sequence[str]
    ) -> Dict[str, Dict[str, Any]]:
        """Results for many in-flight sessions, keyed by session id."""
        return {sid: self.result(sid) for sid in session_ids}

    def events(self, session_id: str) -> List[Dict[str, Any]]:
        """Buffered stream events (state/progress/alarm/policy) seen so
        far for one session; drains them from the backlog."""
        mine = [
            message
            for message in self._backlog
            if message.get("session") == session_id
        ]
        self._backlog = [
            message
            for message in self._backlog
            if message.get("session") != session_id
        ]
        return mine

    def metrics(self) -> Dict[str, Any]:
        return self._request("metrics")["metrics"]

    def metrics_prometheus(self) -> str:
        """The daemon's registry as Prometheus text exposition
        (``metrics`` op with ``format: "prometheus"``)."""
        return self._request("metrics", format="prometheus")["prometheus"]

    def sessions(self) -> List[Dict[str, Any]]:
        return self._request("sessions")["sessions"]

    def kill(self, session_id: str) -> bool:
        return bool(self._request("kill", session=session_id).get("ok"))

    def reap(self, session_id: str) -> bool:
        return bool(self._request("reap", session=session_id).get("ok"))

    def shutdown(self) -> None:
        self._request("shutdown")
