"""The persistent inference daemon behind ``rowpoly serve``.

One long-lived process, one shared worker pool, served through the
:class:`~repro.server.endpoint.Endpoint` transports (newline-delimited
JSON-RPC over stdio or TCP).  ``check``/``recheck`` requests go through
the :class:`~repro.server.scheduler.Scheduler`; ``cancel`` and the
endpoint's control methods (``stats``, ``ping``, ``shutdown``) are
answered inline so they work even when the queue is saturated — you can
always ask a drowning daemon how it is drowning.

Request lifecycle for ``check``:

1. decode + validate (bad params are answered immediately),
2. submit to the bounded queue — full queue answers ``overloaded`` (429),
   a draining daemon answers ``shutting-down`` (503),
3. a worker resolves the module's warm session in the LRU registry:
   an identical source fingerprint replays the stored outcome without
   touching the engine; otherwise :func:`~repro.server.service.check_source`
   runs on the warm session under the request's deadline,
4. deadline expiry / client cancellation surface as structured 408/499
   errors; the session is left consistent either way (see
   :meth:`repro.infer.session.InferSession.check`), so the next request
   on that module simply resumes.

Resource governance rides the same lifecycle: each request gets a
:class:`~repro.util.Budget` (from ``--budget-*`` defaults or its own
``budget`` params); exhaustion yields a *partial* report with ``aborted``
declarations (RP0998) served as a normal response, never stored as a
replay outcome.  A :class:`~repro.server.supervisor.WorkerSupervisor`
respawns crashed workers, and a
:class:`~repro.server.supervisor.SessionQuarantine` benches session keys
that repeatedly crash workers or trip budgets (423 with
``retry_after_ms``); a single trip never quarantines.

Shutdown (EOF, ``shutdown`` RPC, or SIGTERM via ``rowpoly serve``) drains:
intake stops, accepted jobs finish and are answered, workers join, and
the metrics subsystem dumps its final report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from ..diag import codes as diag_codes
from ..infer.registry import REGISTRY, UnknownEngineError, unknown_engine_message
from ..infer.state import FlowOptions
from ..store.keys import options_key
from ..testing.faults import fault_point
from ..util import (
    Budget,
    BudgetExceeded,
    Cancelled,
    DeadlineExceeded,
    Deadline,
    tighten,
)
from . import protocol
from .endpoint import Endpoint, Respond
from .metrics import ServerMetrics
from .overload import BrownoutController
from .registry import SessionRegistry
from .scheduler import Job, Scheduler
from .service import (
    CheckOutcome,
    check_source,
    diagnostic_codes,
    fingerprint_source,
    read_module,
    report_aborted,
    unchecked_outcome,
)
from .supervisor import SessionQuarantine, WorkerSupervisor


@dataclass
class DaemonConfig:
    """Tunables of one daemon instance (the ``rowpoly serve`` flags)."""

    engine: str = "flow"
    workers: int = 2
    queue_limit: int = 16
    sessions: int = 32
    #: Default per-request wall-clock budget; ``None`` = unbounded.
    deadline_ms: Optional[float] = None
    track_fields: bool = True
    gc: bool = True
    #: Drain budget at shutdown before giving up on stuck workers.
    drain_timeout: float = 30.0
    #: Default per-request resource budget components (``--budget-*``
    #: flags); all ``None`` = ungoverned.  A request's ``budget`` params
    #: override these wholesale.
    budget_ms: Optional[float] = None
    budget_solver_steps: Optional[int] = None
    budget_max_clauses: Optional[int] = None
    budget_core_queries: Optional[int] = None
    #: Session quarantine: strikes before a key is benched, and for how
    #: long.  ``quarantine_threshold=0`` disables quarantining.
    quarantine_threshold: int = 3
    quarantine_ttl: float = 30.0
    #: Hang watchdog: cancel a job served longer than this (``None`` =
    #: trust deadlines alone).
    hang_seconds: Optional[float] = None
    #: Directory of the persistent result store (``--store``); ``None``
    #: = memory-only caching, the pre-store behaviour.  Safe to share
    #: between processes: every shard of ``serve --shards N`` (and any
    #: number of unrelated daemons or CI runs) may point at one
    #: directory.
    store_dir: Optional[str] = None
    #: Deadline-aware load shedding (``--shed``): refuse at submit any
    #: job whose remaining deadline is below the EWMA-predicted
    #: queue-wait + service time (retryable 429 with ``retry_after_ms``).
    shed: bool = False
    #: Brownout threshold on pressure = queue occupancy × EWMA service
    #: ms (``--brownout-threshold``); ``None`` disables brownout.
    brownout_threshold: Optional[float] = None
    #: Pressure must hold above/below threshold this long to enter/exit.
    brownout_window: float = 1.0
    #: Exit hysteresis: leave brownout below ``threshold × exit_ratio``.
    brownout_exit_ratio: float = 0.5
    #: Per-request wall-clock cap applied *during* brownout (min-combined
    #: with the request's own budget); partial answers it causes are
    #: marked ``degraded: true`` and never cached or persisted.
    brownout_budget_ms: float = 500.0

    def brownout_budget(self) -> Budget:
        """A fresh brownout-tightened budget cap (clock starts now)."""
        return Budget(seconds=self.brownout_budget_ms / 1000.0)

    def default_budget(self) -> Optional[Budget]:
        """A fresh :class:`Budget` from the config defaults, or ``None``."""
        if (
            self.budget_ms is None
            and self.budget_solver_steps is None
            and self.budget_max_clauses is None
            and self.budget_core_queries is None
        ):
            return None
        return Budget(
            seconds=(
                None if self.budget_ms is None else self.budget_ms / 1000.0
            ),
            solver_steps=self.budget_solver_steps,
            max_clauses=self.budget_max_clauses,
            core_queries=self.budget_core_queries,
        )

    def request_options(self, params: dict[str, Any]) -> FlowOptions:
        """The :class:`FlowOptions` a request's params ask for.

        Tolerant of junk: a non-object ``options`` reads as absent, so
        quarantine and routing still key requests that validation will
        reject.
        """
        raw = params.get("options", {})
        if not isinstance(raw, dict):
            raw = {}
        return FlowOptions(
            track_fields=bool(raw.get("track_fields", self.track_fields)),
            gc=bool(raw.get("gc", self.gc)),
        )

    def session_key(self, params: dict[str, Any]) -> tuple:
        """The warm-session key (path, engine, options) a request names.

        Junk-tolerant like :meth:`request_options`; the path is taken as
        given, whatever its type.
        """
        return (
            params.get("path"),
            params.get("engine", self.engine),
            options_key(self.request_options(params)),
        )


class _InvalidParams(Exception):
    pass


class Daemon(Endpoint):
    """An endpoint that serves checks through its own worker pool."""

    def __init__(
        self,
        config: Optional[DaemonConfig] = None,
        metrics: Optional[ServerMetrics] = None,
    ) -> None:
        self.config = config or DaemonConfig()
        if self.config.engine not in REGISTRY.session_names():
            raise UnknownEngineError(
                self.config.engine, REGISTRY.session_names())
        super().__init__(metrics or ServerMetrics())
        self.store = None
        if self.config.store_dir:
            from ..store import open_store

            self.store = open_store(
                self.config.store_dir,
                metrics_hook=self.metrics.record_store_event,
            )
        self.registry = SessionRegistry(
            self.config.sessions, self.metrics, store=self.store
        )
        self.scheduler = Scheduler(
            self._run_check_job,
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
            metrics=self.metrics,
            on_crash=self._record_crash_strike,
            shed=self.config.shed,
        )
        self.brownout = (
            BrownoutController(
                self.config.brownout_threshold,
                window=self.config.brownout_window,
                exit_ratio=self.config.brownout_exit_ratio,
            )
            if self.config.brownout_threshold is not None
            else None
        )
        self.quarantine = (
            SessionQuarantine(
                threshold=self.config.quarantine_threshold,
                ttl=self.config.quarantine_ttl,
                metrics=self.metrics,
            )
            if self.config.quarantine_threshold > 0
            else None
        )
        self.supervisor = WorkerSupervisor(
            self.scheduler,
            metrics=self.metrics,
            hang_seconds=self.config.hang_seconds,
        )

    def start(self) -> None:
        self.scheduler.start()
        self.supervisor.start()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def handle_line(
        self, line: str, respond: Respond, client: Any = None
    ) -> None:
        if line.strip():
            # Chaos hook: an "exit" rule here kills the whole process mid
            # request — the shard-death site the sharded router's chaos
            # suite drives (a thread-level "crash" only costs one worker).
            fault_point("daemon.handle")
        super().handle_line(line, respond, client)

    def serve_request(
        self,
        request: protocol.Request,
        line: str,
        respond: Respond,
        client: Any,
    ) -> None:
        if request.method == "cancel":
            target = request.params.get("id")
            cancelled = self.scheduler.cancel(client, target)
            self.metrics.record_request("cancel", "ok")
            respond(protocol.ok_response(request.id, {"cancelled": cancelled}))
            return
        try:
            deadline_ms, budget = self._admission_params(request.params)
        except _InvalidParams as error:
            self.metrics.record_request(request.method, "invalid")
            respond(
                protocol.error_response(
                    request.id, protocol.INVALID_PARAMS, str(error)
                )
            )
            return
        retry = request.params.get("retry")
        if isinstance(retry, int) and retry > 0:
            self.metrics.record_robustness("client_retries")
        job = Job(
            id=request.id,
            method=request.method,
            params=request.params,
            deadline=Deadline(
                None if deadline_ms is None else deadline_ms / 1000.0
            ),
            respond=respond,
            client=client,
            budget=budget,
        )
        self._observe_pressure()
        try:
            verdict = self.scheduler.submit(job)
        except Exception as error:  # noqa: BLE001 — injected submit fault
            self.metrics.record_request(request.method, "error")
            respond(
                protocol.error_response(
                    request.id,
                    protocol.INTERNAL_ERROR,
                    f"{type(error).__name__}: {error}",
                )
            )
            return
        if verdict == "shed":
            data: dict[str, Any] = {
                "reason": "shed",
                "retry_after_ms": verdict.retry_after_ms,
            }
            if verdict.predicted_ms is not None:
                data["predicted_ms"] = round(verdict.predicted_ms, 3)
            respond(
                protocol.error_response(
                    request.id,
                    protocol.OVERLOADED,
                    "predicted completion exceeds the request deadline; "
                    "shed at admission",
                    data,
                )
            )
        elif verdict == "overloaded":
            data = {
                "reason": "queue-full",
                "queue_limit": self.config.queue_limit,
            }
            if verdict.retry_after_ms is not None:
                data["retry_after_ms"] = verdict.retry_after_ms
            respond(
                protocol.error_response(
                    request.id,
                    protocol.OVERLOADED,
                    "request queue is full; retry later",
                    data,
                )
            )
        elif verdict == "shutting-down":
            self.refuse_draining(request, respond)

    def _admission_params(
        self, params: dict[str, Any]
    ) -> tuple[Optional[float], Optional[Budget]]:
        """A request's ``deadline_ms`` and budget, validated at submit."""
        deadline_ms = params.get("deadline_ms", self.config.deadline_ms)
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise _InvalidParams("'deadline_ms' must be a positive number")
        raw_budget = params.get("budget")
        if raw_budget is None:
            return deadline_ms, self.config.default_budget()
        if not isinstance(raw_budget, dict):
            raise _InvalidParams("'budget' must be a JSON object")
        try:
            return deadline_ms, Budget.from_params(raw_budget)
        except ValueError as error:
            raise _InvalidParams(f"bad 'budget': {error}") from None

    # ------------------------------------------------------------------
    # the scheduler's handler (runs on worker threads)
    # ------------------------------------------------------------------
    def _check_params(self, params: dict[str, Any]) -> tuple:
        path = params.get("path")
        if not isinstance(path, str) or not path:
            raise _InvalidParams("'path' must be a non-empty string")
        source = params.get("source")
        if source is not None:
            if not isinstance(source, str):
                raise _InvalidParams("'source' must be a string when given")
            try:
                source.encode()
            except UnicodeEncodeError as error:
                # A lone surrogate: JSON can carry one, UTF-8 cannot.
                raise _InvalidParams(
                    f"'source' is not valid Unicode text (character "
                    f"{error.start}: {error.reason})"
                ) from None
        engine = params.get("engine", self.config.engine)
        if engine not in REGISTRY.session_names():
            raise _InvalidParams(
                unknown_engine_message(engine, REGISTRY.session_names())
            )
        if not isinstance(params.get("options", {}), dict):
            raise _InvalidParams("'options' must be a JSON object")
        return path, source, engine, self.config.request_options(params)

    def _quarantine_key(self, params: dict[str, Any]) -> Optional[tuple]:
        """The session key quarantine books a request under, or ``None``
        (quarantine off, or no usable path).

        Deliberately tolerant: quarantine bookkeeping must work even for
        requests that die before (or during) validation.
        """
        path = params.get("path")
        if self.quarantine is None or not isinstance(path, str) or not path:
            return None
        return self.config.session_key(params)

    def _record_crash_strike(self, job: Job) -> None:
        """Scheduler callback: a worker died serving ``job``."""
        key = self._quarantine_key(job.params)
        if key is not None:
            self.quarantine.record_failure(key)

    # ------------------------------------------------------------------
    # overload control
    # ------------------------------------------------------------------
    def _observe_pressure(self) -> None:
        """Feed the brownout controller one pressure sample.

        Pressure = queue occupancy (backlog / queue_limit) × EWMA
        service milliseconds — dimensionally "how many milliseconds of
        work is the queue holding per slot", which stays ~0 on an idle
        or fast daemon and climbs only when the queue is both deep and
        slow.  Sampled on every submit and completion, so the
        hysteresis windows advance exactly while there is traffic.
        """
        if self.brownout is None:
            return
        occupancy = self.scheduler.backlog() / max(
            1, self.config.queue_limit
        )
        ewma = self.scheduler.estimator.predict(
            self.scheduler.estimator.COMBINED
        )
        pressure = occupancy * (ewma or 0.0) * 1000.0
        for event in self.brownout.observe(pressure):
            if event == "enter":
                self.metrics.record_overload_event("brownout_entries")
            elif event == "exit":
                self.metrics.record_overload_event("brownout_exits")
                self.metrics.record_overload_event(
                    "brownout_seconds", self.brownout.spell_seconds()
                )

    def stats_snapshot(self) -> dict[str, Any]:
        """The ``stats`` RPC payload: metrics plus live overload gauges.

        The ``queue`` section is what the router's health probes read
        (backlog vs limit); ``brownout_active`` rides in the summed
        ``overload`` section as an integer gauge, so a fleet aggregate
        reads as "how many shards are browned out right now".
        """
        snapshot = self.metrics.snapshot()
        snapshot["queue"] = {
            "backlog": self.scheduler.backlog(),
            "limit": self.config.queue_limit,
            "workers": self.config.workers,
            # Per-shard gauge, deliberately outside the summed sections:
            # EWMAs do not add across shards.
            "service_ewma_ms": {
                method: round(value, 3)
                for method, value in
                self.scheduler.estimator.snapshot().items()
            },
        }
        overload = snapshot.setdefault("overload", {})
        if isinstance(overload, dict):
            overload["brownout_active"] = int(
                self.brownout is not None and self.brownout.active
            )
        return snapshot

    def _run_check_job(
        self, job: Job, queue_seconds: float
    ) -> dict[str, Any]:
        started = time.monotonic()

        def finish(status: str) -> None:
            self.metrics.record_request(
                job.method,
                status,
                queue_seconds,
                time.monotonic() - started,
            )
            # Completion-side pressure sample: lets brownout *exit* even
            # when intake has gone quiet (the queue drained).
            self._observe_pressure()

        quarantine_key = self._quarantine_key(job.params)
        if quarantine_key is not None:
            remaining = self.quarantine.blocked(quarantine_key)
            if remaining is not None:
                finish("quarantined")
                return protocol.error_response(
                    job.id,
                    protocol.QUARANTINED,
                    "session is quarantined after repeated failures; "
                    "retry later",
                    {
                        "reason": "quarantined",
                        "retry_after_ms": int(remaining * 1000) + 1,
                        "path": job.params.get("path"),
                    },
                )
        # Brownout: tighten the request's budget *at service start* so a
        # browned-out daemon spends at most ``brownout_budget_ms`` per
        # request — warm replays and store hits still answer completely,
        # everything else degrades into a partial (aborted) report that
        # is honestly marked and never cached.
        browned = False
        if self.brownout is not None and self.brownout.active:
            job.budget, browned = tighten(
                job.budget, self.config.brownout_budget()
            )
        try:
            # A job whose budget died in the queue never touches a session.
            job.deadline.check()
            path, source, engine, options = self._check_params(job.params)
            if source is None:
                try:
                    source = read_module(path)
                except OSError as error:
                    finish("ok")  # served, with a well-formed failure report
                    return self._check_response(
                        job, unchecked_outcome(path, error), cached=False
                    )
            entry = self.registry.acquire(path, engine, options)
            with entry.lock:
                fingerprint = fingerprint_source(source)
                label = self.registry.classify_request(entry, fingerprint)
                self.registry.record(label)
                if label == "hit":
                    outcome, cached = entry.outcome, True
                    aborted = False
                else:
                    outcome = check_source(
                        path,
                        source,
                        engine=engine,
                        options=options,
                        session=entry.session,
                        deadline=job.deadline,
                        budget=job.budget,
                        deep=False,
                        store=self.store,
                    )
                    entry.checks += 1
                    aborted = report_aborted(outcome.report)
                    if not aborted:
                        # A partial (budget-starved) report is never a
                        # replay outcome: the next request must re-run
                        # the aborted declarations, not replay the gap.
                        entry.fingerprint = fingerprint
                        entry.outcome = outcome
                    self.metrics.merge_solver_stats(outcome.solver_stats)
                    self.metrics.record_diagnostics(
                        diagnostic_codes(outcome.report)
                    )
                    cached = False
        except _InvalidParams as error:
            finish("invalid")
            return protocol.error_response(
                job.id, protocol.INVALID_PARAMS, str(error)
            )
        except Cancelled:
            finish("cancelled")
            return protocol.error_response(
                job.id,
                protocol.CANCELLED,
                "request cancelled by client",
                {"path": job.params.get("path")},
            )
        except DeadlineExceeded:
            finish("timeout")
            return protocol.error_response(
                job.id,
                protocol.DEADLINE_EXCEEDED,
                "request deadline exceeded",
                {
                    "path": job.params.get("path"),
                    "deadline_ms": job.params.get(
                        "deadline_ms", self.config.deadline_ms
                    ),
                },
            )
        except BudgetExceeded as error:
            # Backstop: the session normally converts budget trips into
            # per-declaration aborts; one escaping to here (e.g. injected
            # directly into serving code) is still answered structurally.
            finish("aborted")
            self.metrics.record_robustness("budget_exceeded")
            if quarantine_key is not None:
                self.quarantine.record_failure(quarantine_key)
            return protocol.error_response(
                job.id,
                protocol.RESOURCE_LIMIT,
                f"resource budget exhausted: {error}",
                {
                    "rp": diag_codes.RESOURCE_LIMIT,
                    "path": job.params.get("path"),
                },
            )
        except Exception as error:  # noqa: BLE001 — answered, not fatal
            finish("error")
            if quarantine_key is not None:
                # Internal errors (not type errors!) count as strikes: a
                # module that keeps blowing up the engine gets benched.
                self.quarantine.record_failure(quarantine_key)
            return protocol.error_response(
                job.id,
                protocol.INTERNAL_ERROR,
                f"{type(error).__name__}: {error}",
            )
        # Degraded ⇔ the brownout cap made this answer partial.  A
        # complete answer under brownout (replay/store hit, or simply
        # cheap) is not degraded — it is byte-identical to offline — and
        # a partial answer the *caller's own* budget caused is plain
        # ``aborted``.  Degraded responses inherit the aborted
        # discipline: never a replay outcome, never persisted.
        degraded = browned and aborted
        if degraded:
            self.metrics.record_overload_event("degraded_served")
        if aborted:
            finish("aborted")
            self.metrics.record_robustness("budget_exceeded")
            if quarantine_key is not None:
                # A brownout abort is the daemon's doing, not the
                # module's: it must not strike the session toward
                # quarantine.
                if not degraded:
                    self.quarantine.record_failure(quarantine_key)
        else:
            finish("ok")
            if quarantine_key is not None:
                self.quarantine.record_success(quarantine_key)
        return self._check_response(job, outcome, cached, aborted, degraded)

    @staticmethod
    def _check_response(
        job: Job,
        outcome: CheckOutcome,
        cached: bool,
        aborted: bool = False,
        degraded: bool = False,
    ) -> dict[str, Any]:
        result: dict[str, Any] = {
            "report": outcome.report,
            "exit": outcome.exit,
            "trace": outcome.trace,
            "cached": cached,
        }
        if outcome.config_digest:
            # The producing configuration (store-key digest); response
            # metadata like trace/cached, not part of the stable report.
            result["config_digest"] = outcome.config_digest
        if outcome.decl_fingerprints:
            # The failing declarations' content fingerprints, which an
            # audit's finding ids need and the stable report omits.
            result["fingerprints"] = outcome.decl_fingerprints
        if aborted:
            result["aborted"] = True
        if degraded:
            # Honest labelling: this answer is partial *because of
            # brownout*, not because of anything the caller asked for.
            result["degraded"] = True
        return protocol.ok_response(job.id, result)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def drain_work(self) -> bool:
        self.supervisor.stop(timeout=1.0)
        clean = self.scheduler.drain(timeout=self.config.drain_timeout)
        if self.brownout is not None:
            # Close the books on an in-progress brownout spell so the
            # final metrics dump accounts every degraded second.
            leftover = self.brownout.flush()
            if leftover:
                self.metrics.record_overload_event(
                    "brownout_seconds", leftover
                )
        return clean
