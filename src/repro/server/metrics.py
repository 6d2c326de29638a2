"""The daemon's metrics subsystem.

Three kinds of instruments, all behind one lock (contention is negligible
next to an inference request):

* **counters** — requests by method and outcome status, session-registry
  traffic (hits/misses/evictions/invalidations), totals;
* **latency histograms** — per method, split into *queue* time (submit →
  worker pickup; the backpressure signal) and *service* time (worker
  pickup → response).  Buckets are geometric from 100µs to ~2 minutes, so
  p50/p90/p99 come out of bucket interpolation with bounded error and the
  snapshot stays a few hundred bytes;
* **solver rollup** — one :class:`~repro.boolfn.engine.SolverStats` that
  every completed check's per-declaration telemetry is merged into
  (:meth:`SolverStats.merge`), the daemon-lifetime analogue of
  ``rowpoly check --solver-stats``.

:meth:`ServerMetrics.snapshot` is the core of the ``stats`` RPC payload;
:func:`render_snapshot` renders such a payload (a daemon's or a fleet's)
as the text dump written on SIGTERM.
:func:`aggregate_snapshots` folds several snapshots into one fleet view —
the sharded router's ``stats`` RPC serves the aggregate of its shards
(plus its own local counters) alongside the per-shard snapshots.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..boolfn.engine import SolverStats

#: Geometric latency bucket upper bounds, in seconds (last bucket open).
_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    0.0001 * (2.0 ** i) for i in range(21)
)


def _sum_trees(trees: list) -> object:
    """Fold JSON trees: dicts merge over the *union* of keys, numbers sum.

    Deliberately tolerant of skew: a mixed-version fleet may have shards
    that report counters their peers do not (new ``store_*`` counters
    during a rolling restart, retired ones after an upgrade).  A key is
    summed across the shards that have it and never raises; a counter
    present on one shard and missing (or ``None``) on another sums the
    values that exist.  Non-numeric leaves (e.g. ``dispatch_class``)
    keep the first non-empty value — an aggregate cares about counters.
    """
    dicts = [t for t in trees if isinstance(t, dict)]
    if dicts:
        keys: list[str] = []
        for tree in dicts:
            for key in tree:
                if key not in keys:
                    keys.append(key)
        return {
            key: _sum_trees([t[key] for t in dicts if key in t])
            for key in keys
        }
    numbers = [t for t in trees if isinstance(t, (int, float))
               and not isinstance(t, bool)]
    if numbers:
        return sum(numbers)
    for tree in trees:
        if tree not in (None, ""):
            return tree
    return trees[0] if trees else None


def _hit_rate(counters: dict) -> float:
    """hits / (hits + misses), 0.0 before the first lookup."""
    hits = counters.get("hits", 0)
    lookups = hits + counters.get("misses", 0)
    return hits / lookups if lookups else 0.0


def aggregate_snapshots(snapshots: list[dict]) -> dict:
    """One fleet-wide view of several :meth:`ServerMetrics.snapshot` dicts.

    Counters (``requests``, ``sessions``, ``store``, ``diagnostics``,
    ``robustness``, the solver rollup) are summed; the session and store
    ``hit_rate``\\ s are recomputed from the summed hits/misses;
    ``uptime_seconds`` is the maximum.  Latency *percentiles* cannot be
    merged from snapshots, so the aggregate keeps only the mergeable
    fields per method (``count`` summed, ``mean`` count-weighted,
    ``max`` of maxima) — per-shard percentiles stay available in the
    router's per-shard listing.
    """
    snapshots = [s for s in snapshots if isinstance(s, dict)]
    if not snapshots:
        return {}
    aggregate: dict[str, object] = {}
    aggregate["uptime_seconds"] = max(
        s.get("uptime_seconds", 0.0) for s in snapshots
    )
    for section in ("requests", "diagnostics", "robustness", "solver",
                    "audit", "overload"):
        aggregate[section] = _sum_trees(
            [s.get(section, {}) for s in snapshots]
        )
    # Ratios are recomputed from the summed counters, never averaged —
    # an average of per-shard hit rates weights an idle shard the same
    # as a busy one.
    for section in ("sessions", "store"):
        summed = _sum_trees([s.get(section, {}) for s in snapshots])
        if isinstance(summed, dict):
            summed["hit_rate"] = _hit_rate(summed)
        aggregate[section] = summed
    latency: dict[str, dict] = {}
    for snapshot in snapshots:
        for method, split in (snapshot.get("latency") or {}).items():
            slot = latency.setdefault(
                method,
                {"service": {"count": 0, "mean": 0.0, "max": 0.0}},
            )["service"]
            service = (split or {}).get("service") or {}
            count = service.get("count", 0)
            if count:
                merged = slot["count"] + count
                slot["mean"] = (
                    slot["mean"] * slot["count"]
                    + service.get("mean", 0.0) * count
                ) / merged
                slot["count"] = merged
                slot["max"] = max(slot["max"], service.get("max", 0.0))
    aggregate["latency"] = latency
    return aggregate


class Histogram:
    """A fixed-bucket latency histogram with interpolated percentiles."""

    __slots__ = ("counts", "count", "total", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        index = 0
        while index < len(_BUCKET_BOUNDS) and seconds > _BUCKET_BOUNDS[index]:
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 < q < 1), linearly interpolated and
        never above the observed maximum."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = _BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                upper = (
                    _BUCKET_BOUNDS[index]
                    if index < len(_BUCKET_BOUNDS)
                    else self.max
                )
                fraction = (rank - seen) / bucket_count
                # Interpolation runs to the bucket's upper bound, which
                # may lie above every sample the bucket actually holds.
                return min(lower + (upper - lower) * fraction, self.max)
            seen += bucket_count
        return self.max

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "max": self.max,
        }


class ServerMetrics:
    """All of the daemon's observable state, thread-safe."""

    #: Request outcome statuses the counters are keyed by.  ``aborted``
    #: is a resource-budget trip (partial report served), ``crashed`` a
    #: worker death mid-request, ``quarantined`` a refusal without
    #: touching the session.
    STATUSES = (
        "ok", "error", "timeout", "cancelled", "rejected", "invalid",
        "aborted", "crashed", "quarantined", "shed",
    )

    #: Robustness event counters (the fault-tolerance subsystem's pulse).
    ROBUSTNESS_COUNTERS = (
        "budget_exceeded",
        "worker_restarts",
        "quarantined_sessions",
        "client_retries",
        "hung_jobs_cancelled",
        "frames_rejected",
    )

    #: Persistent-store counters.  ``hits``/``misses`` are hierarchy-
    #: level lookup outcomes, ``evictions`` are disk entries removed by
    #: gc/clear, ``corrupt_entries`` are envelopes that failed their
    #: self-verification and were quarantined.
    STORE_COUNTERS = ("hits", "misses", "evictions", "corrupt_entries")

    #: Audit-pipeline counters (``rowpoly audit``).  The ``modules_*``
    #: family partitions audited modules by verdict; ``findings_total``
    #: counts deduplicated findings, and the new/resolved/persisting
    #: trio is fed by ``audit diff`` runs against a baseline.
    AUDIT_COUNTERS = (
        "modules_audited",
        "modules_ok",
        "modules_with_findings",
        "modules_aborted",
        "findings_total",
        "findings_new",
        "findings_resolved",
        "findings_persisting",
    )

    #: Overload-control counters.  Breaker transitions are counted on
    #: the router; shed/brownout counters on each daemon (shard); the
    #: fleet aggregate sums both sides into one section.
    #: ``brownout_seconds`` is a float (accumulated spell durations).
    OVERLOAD_COUNTERS = (
        "requests_shed",
        "breaker_open_total",
        "breaker_half_open_total",
        "breaker_close_total",
        "brownout_entries",
        "brownout_exits",
        "brownout_seconds",
        "degraded_served",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests: dict[str, dict[str, int]] = {}
        self._queue_latency: dict[str, Histogram] = {}
        self._service_latency: dict[str, Histogram] = {}
        self._sessions = {
            "hits": 0, "misses": 0, "evictions": 0, "invalidations": 0,
        }
        self._solver = SolverStats()
        self._solver_merges = 0
        self._diagnostics: dict[str, int] = {}
        self._robustness = {name: 0 for name in self.ROBUSTNESS_COUNTERS}
        self._store = {name: 0 for name in self.STORE_COUNTERS}
        self._audit = {name: 0 for name in self.AUDIT_COUNTERS}
        self._overload: dict[str, float] = {
            name: 0 for name in self.OVERLOAD_COUNTERS
        }

    # -- recording -----------------------------------------------------
    def record_request(
        self,
        method: str,
        status: str,
        queue_seconds: float = 0.0,
        service_seconds: float = 0.0,
    ) -> None:
        with self._lock:
            per_status = self._requests.setdefault(
                method, {s: 0 for s in self.STATUSES}
            )
            per_status[status] = per_status.get(status, 0) + 1
            if queue_seconds:
                self._queue_latency.setdefault(
                    method, Histogram()
                ).observe(queue_seconds)
            # Refusals at submit never ran: keep them out of the
            # service-latency histograms ("shed" would read as ~0ms).
            if status not in ("rejected", "shed"):
                self._service_latency.setdefault(
                    method, Histogram()
                ).observe(service_seconds)

    def record_session_event(self, event: str, count: int = 1) -> None:
        """``event`` ∈ {hits, misses, evictions, invalidations}."""
        with self._lock:
            self._sessions[event] = self._sessions.get(event, 0) + count

    def merge_solver_stats(self, stats: Optional[SolverStats]) -> None:
        if stats is None:
            return
        with self._lock:
            self._solver.merge(stats)
            self._solver_merges += 1

    def record_store_event(self, event: str, count: int = 1) -> None:
        """Bump one of :data:`STORE_COUNTERS`.

        The signature matches :data:`repro.store.backend.MetricsHook`,
        so a bound ``metrics.record_store_event`` plugs straight into
        :func:`repro.store.open_store`.
        """
        with self._lock:
            self._store[event] = self._store.get(event, 0) + count

    def record_audit_event(self, event: str, count: int = 1) -> None:
        """Bump one of :data:`AUDIT_COUNTERS`."""
        with self._lock:
            self._audit[event] = self._audit.get(event, 0) + count

    def record_overload_event(self, event: str, count: float = 1) -> None:
        """Bump one of :data:`OVERLOAD_COUNTERS` (floats allowed:
        ``brownout_seconds`` accumulates durations)."""
        with self._lock:
            self._overload[event] = self._overload.get(event, 0) + count

    def record_robustness(self, counter: str, count: int = 1) -> None:
        """Bump one of :data:`ROBUSTNESS_COUNTERS`."""
        with self._lock:
            self._robustness[counter] = (
                self._robustness.get(counter, 0) + count
            )

    def record_diagnostics(self, codes) -> None:
        """Count emitted diagnostics per stable ``RP####`` code.

        Fed from each freshly computed check outcome (cache replays do
        not double-count); the per-code totals tell operators which
        rejections their users actually hit.
        """
        with self._lock:
            for code in codes:
                self._diagnostics[code] = self._diagnostics.get(code, 0) + 1

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """JSON-ready view; the ``stats`` RPC result."""
        with self._lock:
            return {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": {
                    method: dict(statuses)
                    for method, statuses in sorted(self._requests.items())
                },
                "latency": {
                    method: {
                        "queue": self._queue_latency[method].snapshot()
                        if method in self._queue_latency
                        else None,
                        "service": histogram.snapshot(),
                    }
                    for method, histogram in sorted(
                        self._service_latency.items()
                    )
                },
                "sessions": {
                    **self._sessions,
                    "hit_rate": _hit_rate(self._sessions),
                },
                "store": {**self._store, "hit_rate": _hit_rate(self._store)},
                "solver": {
                    "rollup": self._solver.as_dict(),
                    "merged_runs": self._solver_merges,
                },
                "diagnostics": dict(sorted(self._diagnostics.items())),
                "robustness": dict(sorted(self._robustness.items())),
                "audit": dict(self._audit),
                "overload": dict(sorted(self._overload.items())),
            }

    def render_text(self) -> str:
        """The human-readable dump of :meth:`snapshot`."""
        return render_snapshot(self.snapshot())


def _counts(section: dict) -> str:
    """``name=count`` for each non-zero counter, floats to 3 places."""
    return ", ".join(
        f"{name}={count:.3f}" if isinstance(count, float)
        else f"{name}={count}"
        for name, count in sorted(section.items())
        if count
    )


def render_snapshot(snap: dict) -> str:
    """The human-readable dump of a ``stats`` payload.

    One renderer for a daemon's snapshot and a fleet aggregate alike; a
    fleet (a snapshot with a ``router`` section) adds its ``shards:``
    and ``breakers:`` lines.  Aggregated latency carries no
    percentiles, so its percentile line is left out.
    """
    router = snap.get("router")
    sharded = "sharded; " if router else ""
    lines = [
        "rowpoly serve metrics "
        f"({sharded}uptime {snap.get('uptime_seconds', 0.0):.1f}s)",
    ]
    if router:
        lines.append(
            f"  shards: {router['live_shards']}/{router['shards']} live, "
            f"restarts={router['restarts']}, "
            f"routed={router['routed'] or {}}"
        )
        if router.get("breakers"):
            detail = ", ".join(
                f"{index}={state}"
                for index, state in router["breakers"].items()
            )
            transitions = len(router.get("breaker_transitions") or [])
            lines.append(
                f"  breakers: {detail} ({transitions} transitions)"
            )
    latency = snap.get("latency") or {}
    for method, statuses in sorted((snap.get("requests") or {}).items()):
        total = sum(statuses.values())
        lines.append(f"  {method}: {total} requests ({_counts(statuses)})")
        service = (latency.get(method) or {}).get("service") or {}
        if "p50" in service:
            lines.append(
                f"    service p50={service['p50'] * 1000:.1f}ms "
                f"p90={service['p90'] * 1000:.1f}ms "
                f"p99={service['p99'] * 1000:.1f}ms "
                f"max={service['max'] * 1000:.1f}ms"
            )
    sessions = snap.get("sessions") or {}
    lines.append(
        f"  sessions: hit_rate={sessions.get('hit_rate', 0.0):.2f} "
        f"(hits={sessions.get('hits', 0)}, "
        f"misses={sessions.get('misses', 0)}, "
        f"evictions={sessions.get('evictions', 0)}, "
        f"invalidations={sessions.get('invalidations', 0)})"
    )
    store = snap.get("store") or {}
    if any(v for k, v in store.items() if k != "hit_rate"):
        lines.append(
            f"  store: hit_rate={store.get('hit_rate', 0.0):.2f} "
            f"(hits={store.get('hits', 0)}, "
            f"misses={store.get('misses', 0)}, "
            f"evictions={store.get('evictions', 0)}, "
            f"corrupt_entries={store.get('corrupt_entries', 0)})"
        )
    solver = (snap.get("solver") or {}).get("rollup") or {}
    lines.append(
        f"  solver: queries={solver.get('queries', 0)} "
        f"conflicts={solver.get('conflicts', 0)} "
        f"propagations={solver.get('propagations', 0)} "
        f"cache_hits={solver.get('cache_hits', 0)} "
        f"wall={solver.get('wall_seconds', 0.0):.3f}s"
    )
    for section in ("diagnostics", "robustness", "overload", "audit"):
        detail = _counts(snap.get(section) or {})
        if detail:
            lines.append(f"  {section}: {detail}")
    return "\n".join(lines)
