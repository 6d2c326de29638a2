"""The serving layer: a persistent inference daemon (``rowpoly serve``).

Every ``rowpoly check`` process rebuilds the world — supplies, builtins,
sessions, solver state — only to throw it away.  The paper's design (one
persistent β with per-declaration clause intervals, incremental
satisfiability, signature-keyed caches) pays off precisely when that state
stays *warm across requests*, which is how editor tooling actually drives
a type checker.  This package keeps it warm:

* :mod:`protocol`  — newline-delimited JSON-RPC framing and error codes,
* :mod:`service`   — the canonical "check one module source" routine
  shared by the offline batch checker and the daemon (parity by
  construction), and the batch payload every execution path returns,
* :mod:`registry`  — an LRU-bounded pool of warm
  :class:`~repro.infer.session.InferSession` objects keyed by module
  path, invalidated by source fingerprint,
* :mod:`scheduler` — a worker pool with a bounded queue, per-request
  deadlines, client cancellation, backpressure and graceful drain,
* :mod:`metrics`   — counters, latency histograms and
  :class:`~repro.boolfn.engine.SolverStats` rollups, served by the
  ``stats`` RPC and dumped on shutdown,
* :mod:`endpoint`  — what both servers share: the stdio and TCP
  transports, frame rejection, the control methods and the drain,
* :mod:`daemon`    — the long-lived process tying it together: an
  endpoint that serves checks through the scheduler,
* :mod:`routing`   — deterministic rendezvous hashing of warm-session
  keys onto shards (the affinity contract, as a pure function),
* :mod:`shard`     — one daemon running as a spawned worker process,
* :mod:`router`    — the front process of ``rowpoly serve --shards N``:
  an endpoint that forwards raw lines (byte parity by construction)
  with consistent-hash session affinity over N shard processes,
  fleet-aggregated ``stats``, and shard respawn via the same
  :class:`WorkerSupervisor`,
* :mod:`client`    — the thin client behind ``rowpoly client``, and the
  fleet path of the batch executor (:mod:`repro.audit.execute`) behind
  ``rowpoly check --server ADDR`` and ``rowpoly audit run --server``.
"""

from .client import ServeClient
from .daemon import Daemon, DaemonConfig
from .metrics import ServerMetrics, aggregate_snapshots
from .registry import SessionRegistry
from .router import Router, RouterConfig
from .routing import routing_key, shard_for
from .scheduler import Scheduler
from .service import CheckOutcome, check_source, fingerprint_source

__all__ = [
    "CheckOutcome",
    "Daemon",
    "DaemonConfig",
    "Router",
    "RouterConfig",
    "Scheduler",
    "ServeClient",
    "ServerMetrics",
    "SessionRegistry",
    "aggregate_snapshots",
    "check_source",
    "fingerprint_source",
    "routing_key",
    "shard_for",
]
