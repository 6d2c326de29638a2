"""The front router of the process-sharded daemon (``serve --shards N``).

The single-process daemon keeps all inference behind one GIL: a thread
pool of any size serves ~1 core.  ``rowpoly serve --shards N`` splits the
daemon into this **router** process plus N **shard** processes
(:mod:`repro.server.shard`), shared-nothing: each shard is a complete
:class:`~repro.server.daemon.Daemon` — warm sessions, budgets,
quarantine, thread supervisor — on its own loopback port, and the router
is a thin line-forwarding plane:

* **affinity** — ``check``/``recheck`` requests are routed by rendezvous
  hashing of the warm-session key (:mod:`repro.server.routing`) over the
  *live* shard set, so a module's warm :class:`~repro.infer.InferSession`
  stays pinned to one shard, and a dead shard's keys spill to their
  second-choice shard (cold but correct) until it respawns;
* **byte parity** — responses from shards are passed through as the raw
  wire line, unparsed and unmodified.  The shard runs the same
  :func:`~repro.server.service.check_source` as the offline checker, so
  ``check --server --json`` stays byte-identical to offline for every
  shard count — parity by construction, twice over;
* **one endpoint** — transports, frame rejection, the control methods
  and the drain are the :class:`~repro.server.endpoint.Endpoint` the
  daemon runs too; the router supplies raw-line forwarding for
  ``check``/``recheck``/``cancel``, and its ``stats`` aggregates all
  shards (plus the router's own counters) via
  :func:`~repro.server.metrics.aggregate_snapshots`;
* **failure containment** — the PR 5 :class:`WorkerSupervisor` monitors
  the shard *processes* (same jittered-backoff respawn loop that it runs
  over worker threads inside each shard): a dead shard is respawned, its
  in-flight requests are answered with a retryable ``worker-crashed``
  (502) as their forwarding links break, and an optional process-level
  hang watchdog (``shard_hang_seconds``) kills a shard that stops
  answering entirely.

Per client connection the router keeps at most one TCP link per shard;
requests are pipelined down the link and responses matched by id on the
way back, so one slow module does not serialise a client's other
requests.  The router itself does no inference — its CPU cost per
request is one ``json.loads`` for routing and one for response
bookkeeping — which is what lets N shards scale to N cores.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Optional

from . import protocol
from ..testing.faults import fault_point
from .client import ServeClient
from .daemon import DaemonConfig
from .endpoint import Connection, Endpoint, Respond
from .metrics import ServerMetrics, aggregate_snapshots
from .overload import BreakerConfig, HealthProber
from .routing import routing_key, shard_for
from .shard import shard_main, spawn_context
from .supervisor import WorkerSupervisor


@dataclass
class RouterConfig(DaemonConfig):
    """Tunables of one sharded-serving fleet.

    The inherited :class:`DaemonConfig` fields are every shard's
    configuration — ``workers`` threads, ``sessions`` LRU slots,
    ``queue_limit`` backlog *each*, and one ``store_dir`` shared by all
    shards (the store is multi-process safe: atomic-rename writes,
    advisory locking on gc only).  The fields below are the fleet's own.
    """

    shards: int = 2
    #: Router-level process watchdog: kill a shard whose forwarded
    #: request has been unanswered this long (``None`` = trust the
    #: shard-local mechanisms).  This is the last line of defence — it
    #: fires only when a whole shard process is wedged.
    shard_hang_seconds: Optional[float] = None
    #: Shard ready-handshake timeout (spawn + import + bind).
    start_timeout: float = 60.0
    #: Router→shard connect timeout for forwarding links.
    connect_timeout: float = 10.0
    supervisor_seed: int = 0
    #: Health-probe cadence (seconds); ``0`` disables probing and the
    #: per-shard circuit breakers with it — routing then reacts only to
    #: process death, the pre-overload-control behaviour.
    probe_interval: float = 0.0
    #: Per-probe RPC timeout (a hung probe is a strike).
    probe_timeout: float = 2.0
    #: Consecutive probe strikes that open a shard's breaker.
    breaker_failures: int = 3
    #: Probe round-trip latency counted as a strike.
    breaker_latency_ms: float = 250.0
    #: Open → half-open recovery timer.
    breaker_recovery_seconds: float = 5.0

    def breaker_config(self) -> BreakerConfig:
        return BreakerConfig(
            failures=self.breaker_failures,
            latency_ms=self.breaker_latency_ms,
            recovery_seconds=self.breaker_recovery_seconds,
        )

    def daemon_config(self) -> DaemonConfig:
        """The :class:`DaemonConfig` every shard process runs."""
        return DaemonConfig(
            **{f.name: getattr(self, f.name) for f in fields(DaemonConfig)}
        )


class ShardStartError(RuntimeError):
    """A shard process failed its ready handshake."""


@dataclass
class ShardHandle:
    """One live (or recently dead) shard process."""

    index: int
    generation: int
    process: Any
    address: tuple[str, int]
    pid: int

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def address_text(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class ShardPool:
    """Lifecycle of the N shard processes (spawn, respawn, retire).

    Routing reads :meth:`live`; the supervisor drives
    :meth:`dead_workers`/:meth:`respawn`; the router's hang watchdog
    uses :meth:`kill`.  Every process comes from the pinned ``spawn``
    context (:func:`repro.server.shard.spawn_context`).
    """

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.context = spawn_context()
        self._lock = threading.Lock()
        self._handles: dict[int, ShardHandle] = {}
        self._generations: dict[int, int] = {}
        self._draining = threading.Event()

    def start(self) -> None:
        for index in range(self.config.shards):
            handle = self._launch(index)
            with self._lock:
                self._handles[index] = handle

    def _launch(self, index: int) -> ShardHandle:
        generation = self._generations.get(index, 0) + 1
        self._generations[index] = generation
        receiver, sender = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=shard_main,
            args=(index, self.config.daemon_config(), sender, generation),
            name=f"rowpoly-shard-{index}",
            daemon=True,
        )
        process.start()
        sender.close()
        try:
            if not receiver.poll(self.config.start_timeout):
                raise ShardStartError(
                    f"shard {index} did not report ready within "
                    f"{self.config.start_timeout}s"
                )
            message = receiver.recv()
        except (EOFError, OSError) as error:
            process.kill()
            process.join(5.0)
            raise ShardStartError(
                f"shard {index} died during startup: {error}"
            ) from error
        finally:
            receiver.close()
        if not (isinstance(message, tuple) and message[0] == "ready"):
            process.kill()
            process.join(5.0)
            raise ShardStartError(f"shard {index} failed: {message!r}")
        _, host, port, pid = message
        return ShardHandle(
            index=index,
            generation=generation,
            process=process,
            address=(host, port),
            pid=pid,
        )

    # -- routing reads --------------------------------------------------
    def live(self) -> list[ShardHandle]:
        with self._lock:
            return [h for h in self._handles.values() if h.alive]

    def handle(self, index: int) -> Optional[ShardHandle]:
        with self._lock:
            handle = self._handles.get(index)
        return handle if handle is not None and handle.alive else None

    # -- supervisor hooks ----------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def dead_workers(self) -> list[int]:
        if self._draining.is_set():
            return []
        with self._lock:
            return [
                index
                for index, handle in self._handles.items()
                if not handle.alive
            ]

    def respawn(self, index: int) -> None:
        if self._draining.is_set():
            return
        with self._lock:
            current = self._handles.get(index)
            if current is not None and current.alive:
                return
        try:
            handle = self._launch(index)
        except ShardStartError:
            return  # the supervisor's backoff retries
        with self._lock:
            self._handles[index] = handle

    def kill(self, index: int, generation: int) -> bool:
        """SIGKILL a wedged shard (hang watchdog); True when it fired."""
        with self._lock:
            handle = self._handles.get(index)
        if (
            handle is None
            or handle.generation != generation
            or not handle.alive
        ):
            return False
        handle.process.kill()
        return True

    def stop(self, timeout: float = 30.0) -> bool:
        """Drain the fleet: polite shutdown RPC, join, then escalate."""
        self._draining.set()
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            if not handle.alive:
                continue
            try:
                with ServeClient(handle.address_text, timeout=5.0) as client:
                    client.shutdown()
            except (OSError, ValueError, ConnectionError):
                pass
        deadline = time.monotonic() + timeout
        clean = True
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            handle.process.join(remaining)
            if handle.alive:
                handle.process.terminate()
                handle.process.join(2.0)
            if handle.alive:  # pragma: no cover - wedged beyond SIGTERM
                handle.process.kill()
                handle.process.join(2.0)
                clean = False
        return clean


def _budget_trip(response: dict) -> bool:
    """Whether a shard's answer is one its ``budget_exceeded`` counts.

    That is an aborted (partial) report, or a ``RESOURCE_LIMIT`` error.
    """
    result = response.get("result")
    if isinstance(result, dict):
        return bool(result.get("aborted"))
    error = response.get("error")
    return (
        isinstance(error, dict)
        and error.get("code") == protocol.RESOURCE_LIMIT
    )


class _Inflight:
    """One forwarded request awaiting its shard's response."""

    __slots__ = (
        "id", "method", "shard", "generation", "link", "started_at",
    )

    def __init__(self, request_id, method, link) -> None:
        self.id = request_id
        self.method = method
        self.shard = link.index
        self.generation = link.generation
        self.link = link
        self.started_at = time.monotonic()


class _ShardLink:
    """One client connection's pipelined TCP link to one shard.

    Requests are written (pipelined) under a lock; a pump thread reads
    response lines, resolves the in-flight bookkeeping by id, and passes
    the **raw line** through to the client — byte parity costs nothing
    because nothing is re-encoded.
    """

    def __init__(
        self, owner: "_ClientConn", handle: ShardHandle, timeout: float
    ) -> None:
        self.owner = owner
        self.index = handle.index
        self.generation = handle.generation
        self._sock = socket.create_connection(handle.address, timeout=timeout)
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._writer = self._sock.makefile("w", encoding="utf-8")
        self._write_lock = threading.Lock()
        self.dead = False
        threading.Thread(
            target=self._pump,
            name=f"rowpoly-router-pump-{self.index}",
            daemon=True,
        ).start()

    def serves(self, generation: int) -> bool:
        """Still open, to the shard generation a request was sent to."""
        return not self.dead and self.generation == generation

    def send(self, line: str) -> None:
        with self._write_lock:
            self._writer.write(line if line.endswith("\n") else line + "\n")
            self._writer.flush()

    def close(self) -> None:
        self.dead = True
        for closable in (self._reader, self._writer, self._sock):
            try:
                closable.close()
            except OSError:
                pass

    def _pump(self) -> None:
        try:
            for line in self._reader:
                if not line.endswith("\n"):
                    break  # shard died mid-line: never forward a torn frame
                self.owner.resolve_line(line, self)
                self.owner.respond_raw(line)
        except (OSError, ValueError):
            pass
        finally:
            self.dead = True
            self.owner.link_died(self)


class _ClientConn(Connection):
    """Router-side state of one client connection (TCP or stdio)."""

    def __init__(
        self, router: "Router", write: Callable[[str], None]
    ) -> None:
        super().__init__(write)
        self.router = router
        self._lock = threading.Lock()
        self._links: dict[int, _ShardLink] = {}
        self._inflight: dict[object, _Inflight] = {}

    # -- the forwarding plane ------------------------------------------
    def _shard_down(self, request: protocol.Request, why: str) -> None:
        self.router.metrics.record_request(request.method, "crashed")
        self.router.metrics.record_robustness("forward_errors")
        self.respond(
            protocol.error_response(
                request.id,
                protocol.WORKER_CRASHED,
                f"{why}; retry shortly",
                {"reason": "shard-down", "retry_after_ms": 100},
            )
        )

    def _link_for(self, handle: ShardHandle) -> Optional[_ShardLink]:
        with self._lock:
            link = self._links.get(handle.index)
            if link is not None and link.serves(handle.generation):
                return link
        try:
            built = _ShardLink(
                self, handle, self.router.config.connect_timeout
            )
        except OSError:
            return None
        with self._lock:
            link = self._links.get(handle.index)
            if link is None or not link.serves(handle.generation):
                self._links[handle.index] = link = built
            # else: lost a benign race; use the winner
        if link is not built:
            built.close()
        return link

    def forward_check(
        self, line: str, request: protocol.Request
    ) -> None:
        if self.router.shutdown_requested.is_set():
            self.router.refuse_draining(request, self.respond)
            return
        try:
            # In-process-only chaos hook (the router deliberately never
            # calls install_from_env): an ``error`` rule models a bug in
            # the forwarding plane, answered as a retryable 502; a
            # ``slow`` rule stalls forwarding for watchdog tests.
            fault_point("router.forward")
        except Exception:  # noqa: BLE001 — injected forwarding fault
            self._shard_down(request, "forwarding failed")
            return
        handle = self.router.route(request.params)
        if handle is None:
            self._shard_down(request, "no live shard can serve this request")
            return
        link = self._link_for(handle)
        if link is None:
            self._shard_down(
                request, f"shard {handle.index} is unreachable"
            )
            return
        entry = _Inflight(request.id, request.method, link)
        with self._lock:
            self._inflight[request.id] = entry
        self.router.record_routed(link.index)
        try:
            link.send(line)
        except (OSError, ValueError):
            with self._lock:
                self._inflight.pop(request.id, None)
            link.close()
            self._shard_down(
                request, f"shard {handle.index} dropped the connection"
            )

    def forward_cancel(
        self, line: str, request: protocol.Request
    ) -> None:
        target = request.params.get("id")
        with self._lock:
            entry = self._inflight.get(target)
            link = None if entry is None else self._links.get(entry.shard)
            live = link is not None and link.serves(entry.generation)
            if live:
                self._inflight[request.id] = _Inflight(
                    request.id, "cancel", link
                )
        if live:
            try:
                link.send(line)
                return
            except (OSError, ValueError):
                with self._lock:
                    self._inflight.pop(request.id, None)
        # Nothing in flight (or its shard is gone, which answers the
        # request anyway): same answer the daemon gives for an unknown id.
        self.router.metrics.record_request("cancel", "ok")
        self.respond(protocol.ok_response(request.id, {"cancelled": False}))

    # -- pump callbacks -------------------------------------------------
    def resolve_line(self, line: str, link: _ShardLink) -> None:
        """Retire the in-flight entry a shard's response line answers,
        and count the budget trip it reports, if any."""
        import json

        try:
            response = json.loads(line)
        except ValueError:  # pragma: no cover - shards emit valid JSON
            return
        response_id = response.get("id")
        if _budget_trip(response):
            self.router.record_budget_trip(link.index, link.generation)
        with self._lock:
            entry = self._inflight.get(response_id)
            if entry is not None and entry.link is link:
                self._inflight.pop(response_id, None)

    def link_died(self, link: _ShardLink) -> None:
        """Fail this link's in-flight requests as retryable 502s."""
        with self._lock:
            if self._links.get(link.index) is link:
                self._links.pop(link.index, None)
            orphans = [
                entry
                for entry in self._inflight.values()
                if entry.link is link
            ]
            for entry in orphans:
                self._inflight.pop(entry.id, None)
        for entry in orphans:
            if entry.method == "cancel":
                self.respond(
                    protocol.ok_response(entry.id, {"cancelled": False})
                )
                continue
            self.router.metrics.record_request(entry.method, "crashed")
            self.respond(
                protocol.error_response(
                    entry.id,
                    protocol.WORKER_CRASHED,
                    f"shard {link.index} died serving this request; "
                    "retry shortly",
                    {"reason": "shard-crash", "retry_after_ms": 100},
                )
            )

    # -- bookkeeping ----------------------------------------------------
    def backlog(self) -> int:
        with self._lock:
            return len(self._inflight)

    def active_jobs(self) -> list[tuple[_Inflight, float]]:
        with self._lock:
            return [
                (entry, entry.started_at)
                for entry in self._inflight.values()
                if entry.method in ("check", "recheck")
            ]

    def close_links(self) -> None:
        with self._lock:
            links, self._links = list(self._links.values()), {}
        for link in links:
            link.close()


class Router(Endpoint):
    """An endpoint that forwards checks to its shard fleet."""

    def __init__(self, config: Optional[RouterConfig] = None) -> None:
        self.config = config or RouterConfig()
        if self.config.shards < 1:
            raise ValueError("need at least one shard")
        #: Local accounting only — traffic the router answers itself
        #: (frame rejects, control methods, shard-down errors) plus the
        #: ``shard_restarts``/``hung_shards_killed``/``forward_errors``
        #: robustness counters.  Shard-side counters live on the shards
        #: and are merged into :meth:`stats_snapshot`.
        super().__init__(ServerMetrics())
        self.pool = ShardPool(self.config)
        #: Health probes + per-shard circuit breakers (``--probe-interval``).
        #: ``None`` when probing is off: routing falls back to liveness
        #: alone and every live shard stays in rendezvous candidacy.
        self.prober = (
            HealthProber(
                self.pool,
                interval=self.config.probe_interval,
                config=self.config.breaker_config(),
                metrics=self.metrics,
                probe_timeout=self.config.probe_timeout,
            )
            if self.config.probe_interval > 0
            else None
        )
        self.supervisor = WorkerSupervisor(
            self,
            metrics=self.metrics,
            hang_seconds=self.config.shard_hang_seconds,
            seed=self.config.supervisor_seed,
            restart_counter="shard_restarts",
        )
        self.started = time.monotonic()
        self._started_flag = False
        self._conns: set[_ClientConn] = set()
        self._conns_lock = threading.Lock()
        self._routed: dict[int, int] = {}
        #: Budget trips in the answers forwarded from each shard
        #: generation, keyed ``(index, generation)``: the fleet's count
        #: for a generation whose own counters died with it.
        self._budget_trips: dict[tuple[int, int], int] = {}
        self._counts_lock = threading.Lock()
        self._final_shard_stats: list[dict] = []

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn the shard fleet and its supervisor (idempotent)."""
        if self._started_flag:
            return
        self._started_flag = True
        self.pool.start()
        self.supervisor.start()
        if self.prober is not None:
            self.prober.start()

    def drain_work(self) -> bool:
        self.supervisor.stop(timeout=1.0)
        if self.prober is not None:
            self.prober.stop()
        deadline = time.monotonic() + self.config.drain_timeout
        while time.monotonic() < deadline and self.backlog() > 0:
            time.sleep(0.02)
        clean = self.backlog() == 0
        # Harvest final counters before retiring the fleet — a drained
        # shard's stats survive into the router's last dump.
        self._final_shard_stats = [
            snapshot
            for snapshot in self.shard_stats()
            if "error" not in snapshot
        ]
        return self.pool.stop(timeout=self.config.drain_timeout) and clean

    # -- supervisor pool protocol --------------------------------------
    @property
    def draining(self) -> bool:
        return self.shutdown_requested.is_set()

    def dead_workers(self) -> list[int]:
        return self.pool.dead_workers()

    def respawn(self, index: int) -> None:
        self.pool.respawn(index)

    def active_jobs(self) -> list[tuple[_Inflight, float]]:
        jobs: list[tuple[_Inflight, float]] = []
        for conn in self._connections():
            jobs.extend(conn.active_jobs())
        return jobs

    def on_hang(self, entry: _Inflight) -> None:
        """Hang watchdog response: kill the wedged shard process.

        The broken links then answer its in-flight requests as
        retryable 502s, and the dead-worker respawn loop brings a clean
        shard back — the process-pool analogue of cancelling a stuck
        thread job.
        """
        if self.pool.kill(entry.shard, entry.generation):
            self.metrics.record_robustness("hung_shards_killed")

    # -- serving --------------------------------------------------------
    def serve_request(
        self,
        request: protocol.Request,
        line: str,
        respond: Respond,
        client: "_ClientConn",
    ) -> None:
        if request.method == "cancel":
            client.forward_cancel(line, request)
        else:
            client.forward_check(line, request)

    def connect(self, write: Callable[[str], None]) -> _ClientConn:
        conn = _ClientConn(self, write)
        with self._conns_lock:
            self._conns.add(conn)
        return conn

    def disconnect(self, conn: _ClientConn) -> None:
        with self._conns_lock:
            self._conns.discard(conn)
        conn.close_links()

    def _connections(self) -> list[_ClientConn]:
        with self._conns_lock:
            return list(self._conns)

    def backlog(self) -> int:
        return sum(conn.backlog() for conn in self._connections())

    # -- routing --------------------------------------------------------
    def session_routing_key(self, params: dict[str, Any]) -> str:
        """The affinity key of one request's params (junk-tolerant)."""
        return routing_key(*self.config.session_key(params))

    def route(self, params: dict[str, Any]) -> Optional[ShardHandle]:
        """The live, breaker-admitted shard this request pins to.

        An open breaker removes its shard from rendezvous candidacy —
        the key's weight ordering then lands it on its next-highest
        shard (the PR 6 minimal-disruption property, reused for
        sickness instead of death).  If *every* live shard's breaker is
        open the filter is waived: serving slowly beats refusing, and
        the breakers re-close on probe recovery anyway.  Returns
        ``None`` only when no shard process is live at all.
        """
        live = self.pool.live()
        if not live:
            return None
        if self.prober is not None:
            admitted = [h for h in live if self.prober.allows(h)]
            if admitted:
                live = admitted
        key = self.session_routing_key(params)
        index = shard_for(key, [handle.index for handle in live])
        for handle in live:
            if handle.index == index:
                return handle
        return None  # pragma: no cover - index came from `live`

    def record_routed(self, index: int) -> None:
        with self._counts_lock:
            self._routed[index] = self._routed.get(index, 0) + 1

    def record_budget_trip(self, index: int, generation: int) -> None:
        key = (index, generation)
        with self._counts_lock:
            self._budget_trips[key] = self._budget_trips.get(key, 0) + 1

    # -- stats ----------------------------------------------------------
    def shard_stats(self) -> list[dict]:
        """One ``stats`` snapshot per live shard (tagged with identity)."""
        snapshots = []
        for handle in self.pool.live():
            try:
                with ServeClient(handle.address_text, timeout=5.0) as client:
                    snapshot = dict(client.stats())
            except (OSError, ValueError, ConnectionError, Exception) as error:
                snapshot = {
                    "error": f"{type(error).__name__}: {error}",
                }
            snapshot["shard"] = handle.index
            snapshot["pid"] = handle.pid
            snapshot["generation"] = handle.generation
            snapshots.append(snapshot)
        return snapshots

    def stats_snapshot(self) -> dict[str, object]:
        """The ``stats`` RPC payload: fleet aggregate + per-shard views.

        The aggregate sums every shard's counters with the router's own
        local metrics, so fleet totals (requests, sessions, robustness,
        diagnostics, solver rollup) read like a single daemon's; the
        untouched per-shard snapshots ride along under ``"shards"``.
        Counters of a shard generation that *crashed* die with it —
        shared-nothing cuts both ways — while a graceful drain harvests
        final shard stats first.  Budget trips are the exception: for
        every generation whose own counters this read did not get, the
        trips the router saw in its forwarded answers stand in.
        """
        shard_snaps = self.shard_stats()
        counted = [dict(s) for s in shard_snaps if "error" not in s]
        counted += [dict(s) for s in self._final_shard_stats]
        aggregate = aggregate_snapshots(counted + [self.metrics.snapshot()])
        for noise in ("shard", "pid", "generation"):
            aggregate.pop(noise, None)
        aggregate["uptime_seconds"] = time.monotonic() - self.started
        read = {(s["shard"], s["generation"]) for s in counted}
        with self._counts_lock:
            routed = {
                str(index): count
                for index, count in sorted(self._routed.items())
            }
            lost_trips = sum(
                count
                for key, count in self._budget_trips.items()
                if key not in read
            )
        aggregate["robustness"]["budget_exceeded"] += lost_trips
        live = self.pool.live()
        aggregate["router"] = {
            "shards": self.config.shards,
            "live_shards": len(live),
            "restarts": self.supervisor.restarts_total,
            "routed": routed,
            "pids": {str(h.index): h.pid for h in live},
        }
        if self.prober is not None:
            aggregate["router"]["breakers"] = self.prober.states()
            aggregate["router"]["breaker_transitions"] = (
                self.prober.transitions()
            )
        aggregate["shards"] = shard_snaps
        return aggregate
