"""The thin client: ``rowpoly client`` and ``rowpoly check --server``.

A :class:`ServeClient` speaks the newline-delimited JSON-RPC of
:mod:`repro.server.protocol` over one TCP connection, synchronously: send
a request, read lines until the matching ``id`` comes back.  (The daemon
may interleave responses to pipelined requests; matching by id keeps the
client correct either way.)

:func:`check_files_batch` is the fleet path of the one batch executor
(:func:`repro.audit.execute.execute`) behind ``rowpoly check --server
ADDR`` and ``rowpoly audit run --server``: it ships each source, already
read by the caller, to the daemon and reassembles payloads of exactly
the shape the offline path produces — so the downstream printing and
exit-code logic is shared and the ``--json`` output is byte-identical by
construction.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from contextlib import ExitStack
from random import Random
from typing import Any, Callable, Optional

from ..infer.state import FlowOptions
from .protocol import RETRYABLE_CODES
from .service import CheckOutcome, unchecked_outcome
from .supervisor import backoff_delay


class ServeError(Exception):
    """An error response from the daemon, with its structured payload."""

    def __init__(self, code: int, name: str, message: str,
                 data: Optional[dict] = None) -> None:
        super().__init__(message)
        self.code = code
        self.name = name
        self.data = data or {}


def parse_address(address: str) -> tuple[str, int]:
    """``HOST:PORT``, ``:PORT`` or bare ``PORT`` → (host, port)."""
    host, _, port_text = address.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad server address {address!r} (expected HOST:PORT)"
        ) from None
    return host, port


class ServeClient:
    """One synchronous JSON-RPC connection to a running daemon."""

    def __init__(self, address: str, timeout: Optional[float] = None) -> None:
        host, port = parse_address(address)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._writer = self._sock.makefile("w", encoding="utf-8")
        self._lock = threading.Lock()
        self._next_id = 0

    def close(self) -> None:
        for closable in (self._reader, self._writer, self._sock):
            try:
                closable.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # raw RPC
    # ------------------------------------------------------------------
    def call(
        self, method: str, params: Optional[dict[str, Any]] = None
    ) -> dict[str, Any]:
        """One round trip; returns the raw response object."""
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            line = json.dumps(
                {"id": request_id, "method": method, "params": params or {}},
                separators=(",", ":"),
                sort_keys=True,
            )
            self._writer.write(line + "\n")
            self._writer.flush()
            while True:
                response_line = self._reader.readline()
                if not response_line:
                    raise ConnectionError(
                        "server closed the connection mid-request"
                    )
                response = json.loads(response_line)
                if response.get("id") == request_id:
                    return response

    def request(
        self, method: str, params: Optional[dict[str, Any]] = None
    ) -> Any:
        """One round trip; unwraps ``result`` or raises :class:`ServeError`."""
        response = self.call(method, params)
        if "error" in response:
            error = response["error"]
            raise ServeError(
                error.get("code", 0),
                error.get("name", "error"),
                error.get("message", "server error"),
                error.get("data"),
            )
        return response.get("result")

    # ------------------------------------------------------------------
    # convenience methods
    # ------------------------------------------------------------------
    def check(
        self,
        path: str,
        source: Optional[str] = None,
        engine: Optional[str] = None,
        options: Optional[dict[str, Any]] = None,
        deadline_ms: Optional[float] = None,
        budget: Optional[dict[str, Any]] = None,
        retry: Optional[int] = None,
        fingerprint: Optional[str] = None,
    ) -> dict[str, Any]:
        params: dict[str, Any] = {"path": path}
        if source is not None:
            params["source"] = source
        if engine is not None:
            params["engine"] = engine
        if options is not None:
            params["options"] = options
        if deadline_ms is not None:
            params["deadline_ms"] = deadline_ms
        if budget is not None:
            params["budget"] = budget
        if retry:
            params["retry"] = retry
        if fingerprint is not None:
            params["fingerprint"] = fingerprint
        return self.request("check", params)

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def cancel(self, request_id: object) -> bool:
        return bool(
            self.request("cancel", {"id": request_id}).get("cancelled")
        )

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")


def request_fingerprint(path: str, source: str, engine: str) -> str:
    """Stable identity of one check request, for idempotent retries.

    A retried request carries the same fingerprint as the original, so
    the daemon's replay cache recognises it — a response lost to a
    connection reset is recomputed as a warm replay hit, not a second
    full inference.
    """
    digest = hashlib.sha256(
        f"{path}\x00{engine}\x00{source}".encode()
    ).hexdigest()
    return digest[:24]


class RetryingClient:
    """A :class:`ServeClient` wrapper with bounded, jittered retries.

    Retries exactly the *retryable-unavailable* answers
    (:data:`repro.server.protocol.RETRYABLE_CODES`: 423/429/502/503) and
    transport failures (connection reset/refused), with exponential
    backoff, seeded jitter, and the server's ``retry_after_ms`` hint as a
    floor.  Requests are idempotent by fingerprint, so a retry after a
    lost response is safe.  Everything else — type errors, timeouts,
    invalid params — is the *answer* and is never retried.
    """

    def __init__(
        self,
        address: str,
        retries: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        seed: int = 0,
        timeout: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.address = address
        self.retries = retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.timeout = timeout
        self._sleep = sleep
        self._rng = Random(seed)
        self._client: Optional[ServeClient] = None
        #: Total retry round trips performed (soak-test accounting).
        self.retries_performed = 0

    # -- connection management -----------------------------------------
    def connect(self) -> "RetryingClient":
        """Connect eagerly (no retry): callers that want unreachable
        servers reported up front, not retried per request."""
        self._connected()
        return self

    def _connected(self) -> ServeClient:
        if self._client is None:
            self._client = ServeClient(self.address, timeout=self.timeout)
        return self._client

    def _disconnect(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "RetryingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the retry loop ------------------------------------------------
    def check(
        self,
        path: str,
        source: str,
        engine: str = "flow",
        options: Optional[dict[str, Any]] = None,
        deadline_ms: Optional[float] = None,
        budget: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        """One check with retries; raises the last error when exhausted.

        Retries also stop — raising the error in hand — once the caller's
        *overall* deadline has expired: sleeping and resending a request
        whose ``deadline_ms`` is already spent can only earn another
        rejection, so an overloaded fleet sheds that client instead of
        absorbing its futile retry storm.
        """
        fingerprint = request_fingerprint(path, source, engine)
        deadline_at: Optional[float] = None
        if deadline_ms is not None:
            deadline_at = time.monotonic() + deadline_ms / 1000.0
        attempt = 0
        while True:
            retry_after: Optional[float] = None
            last_error: BaseException
            try:
                return self._connected().check(
                    path,
                    source,
                    engine=engine,
                    options=options,
                    deadline_ms=deadline_ms,
                    budget=budget,
                    retry=attempt,
                    fingerprint=fingerprint,
                )
            except ServeError as error:
                if error.code not in RETRYABLE_CODES or (
                    attempt >= self.retries
                ):
                    raise
                hint = error.data.get("retry_after_ms")
                if isinstance(hint, (int, float)) and hint > 0:
                    retry_after = hint / 1000.0
                last_error = error
            except (ConnectionError, OSError) as error:
                self._disconnect()
                if attempt >= self.retries:
                    raise
                last_error = error
            attempt += 1
            delay = backoff_delay(
                attempt, self.base_delay, self.max_delay, self._rng
            )
            if retry_after is not None:
                delay = max(delay, retry_after)
            if deadline_at is not None and (
                time.monotonic() + delay >= deadline_at
            ):
                raise last_error
            self.retries_performed += 1
            self._sleep(delay)


def check_files_batch(
    address: str,
    items: list[tuple[str, str]],
    *,
    engine: str = "flow",
    options: Optional[FlowOptions] = None,
    budget: Optional[dict[str, Any]] = None,
    deadline_ms: Optional[float] = None,
    retries: int = 4,
    retry_seed: int = 0,
    concurrency: int = 1,
) -> list[dict[str, Any]]:
    """Fan ``(path, source)`` pairs across a daemon with N connections.

    The fleet path of :func:`repro.audit.execute.execute`, behind
    ``rowpoly check --server`` and ``rowpoly audit run --server``:
    sources are already in hand, so this only ships and reassembles.
    ``concurrency`` worker threads each own one :class:`RetryingClient`
    (seeded ``retry_seed + worker``, so retry jitter stays deterministic
    per worker) and take the statically interleaved slice
    ``items[worker::concurrency]`` — a deterministic partition, with
    results placed by original index so the payload list is in input
    order no matter how the threads are scheduled.  Against a sharded
    router every connection can land on a different shard, which is
    what keeps a fleet busy from one audit process.

    Every client connects in the calling thread before any work fans
    out, so an unreachable or malformed address raises here
    (``OSError``/``ValueError``) instead of failing item by item.  After
    that, per-item failures degrade to a structured error payload with
    the usage exit, never an exception that loses the rest of the batch.
    """
    if options is None:
        options = FlowOptions()
    wire_options = {"track_fields": options.track_fields, "gc": options.gc}
    workers = max(1, min(concurrency, len(items) or 1))
    payloads: list[Optional[dict[str, Any]]] = [None] * len(items)

    def run_worker(client: RetryingClient, worker: int) -> None:
        for index in range(worker, len(items), workers):
            path, source = items[index]
            try:
                result = client.check(
                    path,
                    source,
                    engine=engine,
                    options=wire_options,
                    deadline_ms=deadline_ms,
                    budget=budget,
                )
            except ServeError as error:
                outcome = unchecked_outcome(
                    path, error, kind=f"Server{error.name}"
                )
            except (ConnectionError, OSError) as error:
                outcome = unchecked_outcome(
                    path, error, kind="ServerConnectionError"
                )
            else:
                outcome = CheckOutcome(
                    report=result["report"],
                    exit=result["exit"],
                    trace=result.get("trace", {}),
                )
            payloads[index] = outcome.payload(path)

    with ExitStack() as stack:
        clients = [
            stack.enter_context(
                RetryingClient(
                    address, retries=retries, seed=retry_seed + worker
                ).connect()
            )
            for worker in range(workers)
        ]
        if workers == 1:
            run_worker(clients[0], 0)
        else:
            threads = [
                threading.Thread(
                    target=run_worker, args=(client, worker), daemon=True
                )
                for worker, client in enumerate(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    # Positional integrity over convenience: a payload must exist for
    # every input (the Judge stage zips them against the plan), so a
    # slot a dying worker never filled degrades to an error payload.
    return [
        payload
        if payload is not None
        else unchecked_outcome(
            items[index][0], "no response (worker died)", kind="ServerError"
        ).payload(items[index][0])
        for index, payload in enumerate(payloads)
    ]

