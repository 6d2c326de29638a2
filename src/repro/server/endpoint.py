"""One serving endpoint: transports, control plane and drain.

``rowpoly serve`` runs either a :class:`~repro.server.daemon.Daemon` or,
with ``--shards N``, a :class:`~repro.server.router.Router`.  Everything
the two do alike lives here, once:

* the **transports** — newline-delimited JSON-RPC over stdio or TCP,
  frames bounded by :func:`~repro.server.protocol.iter_frames`;
* **frame rejection** — an unparseable or oversized frame is answered
  with a structured error (RP0997) and the connection survives;
* the **control plane** — ``stats``, ``ping``, ``shutdown`` and unknown
  methods, answered inline so they work even when the work queue is
  saturated;
* the **drain** — ``shutdown`` RPC, stdin EOF and SIGTERM converge on
  one drain that runs exactly once; and the text dump of
  :meth:`stats_snapshot` written at the end of it.

A subclass supplies only what differs: :meth:`serve_request` (the
daemon's scheduler versus the router's raw-line forwarding),
:meth:`start`, :meth:`drain_work` and :meth:`stats_snapshot`.
"""

from __future__ import annotations

import socketserver
import sys
import threading
from typing import Any, Callable, Optional

from ..diag import codes as diag_codes
from . import protocol
from .metrics import ServerMetrics, render_snapshot

Respond = Callable[[dict[str, Any]], None]


class Connection:
    """One client connection: serialised writes of whole response lines.

    Its identity also namespaces request ids, so two clients may both
    send ``"id": 1``.  A write to a client that went away is dropped;
    the work it asked for still finishes.
    """

    def __init__(self, write: Callable[[str], None]) -> None:
        self._write = write
        self._write_lock = threading.Lock()

    def respond_raw(self, line: str) -> None:
        with self._write_lock:
            try:
                self._write(line)
            except (OSError, ValueError):
                pass  # ValueError: the file object is already closed

    def respond(self, message: dict[str, Any]) -> None:
        self.respond_raw(protocol.encode(message))


class Endpoint:
    """The serving loop both ``rowpoly serve`` servers share."""

    def __init__(self, metrics: ServerMetrics) -> None:
        self.metrics = metrics
        self.shutdown_requested = threading.Event()
        self.drained = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._tcp_server: Optional[socketserver.ThreadingTCPServer] = None

    # -- supplied by the subclass --------------------------------------
    def start(self) -> None:
        """Start the machinery behind the transports (idempotent)."""
        raise NotImplementedError

    def serve_request(
        self,
        request: protocol.Request,
        line: str,
        respond: Respond,
        client: Any,
    ) -> None:
        """Serve one ``check``/``recheck``/``cancel``; ``line`` is raw."""
        raise NotImplementedError

    def drain_work(self) -> bool:
        """Finish accepted work and retire; False if it timed out."""
        raise NotImplementedError

    def stats_snapshot(self) -> dict[str, Any]:
        """The ``stats`` RPC payload (also the ``--metrics-dump``)."""
        raise NotImplementedError

    def connect(self, write: Callable[[str], None]) -> Connection:
        """Per-connection state for a new client."""
        return Connection(write)

    def disconnect(self, conn: Connection) -> None:
        """The client's stream ended."""

    # -- request handling ----------------------------------------------
    def handle_line(
        self, line: str, respond: Respond, client: Any = None
    ) -> None:
        """Decode and dispatch one request line (transport-agnostic)."""
        stripped = line.strip()
        if not stripped:
            return
        try:
            request = protocol.parse_request(stripped)
        except protocol.ProtocolError as error:
            self.reject_frame(error, respond)
            return
        method = request.method
        if method in ("check", "recheck", "cancel"):
            self.serve_request(request, line, respond, client)
        elif method == "stats":
            self.metrics.record_request("stats", "ok")
            respond(protocol.ok_response(request.id, self.stats_snapshot()))
        elif method == "ping":
            respond(protocol.ok_response(request.id, {"pong": True}))
        elif method == "shutdown":
            # Answer first — the drain below may be the last thing we do.
            respond(
                protocol.ok_response(
                    request.id, {"ok": True, "draining": True}
                )
            )
            self.request_shutdown()
        else:
            # Counted under "?" like malformed frames: a method name is
            # client-chosen, and per-name counters would grow without
            # bound.
            self.metrics.record_request("?", "invalid")
            respond(
                protocol.error_response(
                    request.id,
                    protocol.METHOD_NOT_FOUND,
                    f"unknown method {method!r}",
                )
            )

    def reject_frame(
        self, error: protocol.ProtocolError, respond: Respond
    ) -> None:
        """Answer an unparseable/oversized frame without dispatching it."""
        self.metrics.record_request("?", "invalid")
        self.metrics.record_robustness("frames_rejected")
        respond(
            protocol.error_response(
                error.request_id,
                error.code,
                str(error),
                {"rp": diag_codes.MALFORMED_FRAME},
            )
        )

    def refuse_draining(
        self, request: protocol.Request, respond: Respond
    ) -> None:
        """Answer new work that arrives once the drain has begun."""
        self.metrics.record_request(request.method, "rejected")
        respond(
            protocol.error_response(
                request.id,
                protocol.SHUTTING_DOWN,
                "daemon is draining; no new requests accepted",
            )
        )

    def render_text(self) -> str:
        """The human-readable dump written at shutdown."""
        return render_snapshot(self.stats_snapshot())

    # -- transports ----------------------------------------------------
    def _pump(self, stream, conn: Connection) -> None:
        for line, frame_error in protocol.iter_frames(stream):
            if frame_error is not None:
                self.reject_frame(frame_error, conn.respond)
            else:
                self.handle_line(line, conn.respond, conn)
            if self.shutdown_requested.is_set():
                break

    def serve_stdio(self, stdin=None, stdout=None) -> None:
        """Serve newline-delimited JSON-RPC on stdio until EOF/shutdown."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout

        def write(text: str) -> None:
            stdout.write(text)
            stdout.flush()

        self.start()
        conn = self.connect(write)
        try:
            self._pump(stdin, conn)
            self._drain()  # in-flight responses still reach stdout
        finally:
            self.disconnect(conn)

    def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0, background: bool = False
    ) -> tuple[str, int]:
        """Serve over TCP; returns the bound (host, port).

        ``background=True`` runs the accept loop on a thread (tests and
        benchmarks); otherwise this blocks until shutdown.
        """
        endpoint = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                def write(text: str) -> None:
                    self.wfile.write(text.encode())
                    self.wfile.flush()

                conn = endpoint.connect(write)
                try:
                    endpoint._pump(self.rfile, conn)
                finally:
                    endpoint.disconnect(conn)

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self.start()
        server = _Server((host, port), _Handler)
        self._tcp_server = server
        bound = server.server_address[:2]
        if background:
            threading.Thread(
                target=server.serve_forever,
                name="rowpoly-acceptor",
                daemon=True,
            ).start()
        else:
            try:
                server.serve_forever()
            finally:
                server.server_close()
        return bound

    # -- shutdown ------------------------------------------------------
    def request_shutdown(self) -> None:
        """Begin a graceful shutdown without blocking the caller.

        Safe from RPC dispatch, signal handlers and tests alike; the
        actual drain runs on its own thread and is done exactly once.
        """
        with self._shutdown_lock:
            if self.shutdown_requested.is_set():
                return
            self.shutdown_requested.set()
        threading.Thread(
            target=self._drain, name="rowpoly-drain", daemon=False
        ).start()

    def _drain(self) -> None:
        with self._shutdown_lock:
            if self.drained.is_set():
                return
            self.shutdown_requested.set()
            clean = self.drain_work()
            server, self._tcp_server = self._tcp_server, None
            if server is not None:
                server.shutdown()
                server.server_close()
            self.drained.set()
        if not clean:  # pragma: no cover - only on wedged work
            print(
                "rowpoly serve: drain timed out with requests in flight",
                file=sys.stderr,
            )

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        return self.drained.wait(timeout)
