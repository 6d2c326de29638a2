"""Request scheduling: a worker pool with a bounded queue.

The daemon enqueues check jobs here; everything about robustness lives in
this one file:

* **backpressure** — the queue is bounded; :meth:`Scheduler.submit`
  refuses instead of blocking when it is full, and the daemon turns the
  refusal into a 429-style ``overloaded`` error the client can retry on;
* **deadline-aware shedding** — with ``shed=True`` the submit path
  consults a per-method EWMA of recent service time
  (:class:`~repro.server.overload.ServiceTimeEstimator`): a job whose
  remaining deadline is below the predicted queue-wait + service time is
  refused *now* (verdict ``"shed"``, with a computed ``retry_after_ms``)
  instead of queueing work that can only 408 — under overload that is
  the difference between goodput and a queue full of doomed requests.
  The EWMA learns only from jobs a worker served, and an idle pool whose
  estimate has gone stale
  (:meth:`~repro.server.overload.ServiceTimeEstimator.stale`) serves
  the job anyway as a probe, so an estimate above every deadline cannot
  shed forever;
* **deadlines** — every job carries a :class:`~repro.util.Deadline`.  A
  job whose deadline passed while it sat in the queue is answered with a
  timeout *without ever touching a session*; one that expires mid-service
  is interrupted by the inference's cooperative polls;
* **cancellation** — :meth:`cancel` flips the job's deadline token; a
  queued job is dropped at pickup, a running one stops at its next poll;
* **graceful drain** — :meth:`drain` stops intake (submits are refused as
  ``shutting-down``), lets the workers finish every job already accepted,
  and joins them, so an in-flight request is never dropped by shutdown;
* **crash containment** — a :class:`~repro.server.supervisor.WorkerCrash`
  escaping the handler answers the job with a retryable ``worker-crashed``
  error and retires the thread; the
  :class:`~repro.server.supervisor.WorkerSupervisor` respawns it through
  :meth:`dead_workers`/:meth:`respawn`, and reads :meth:`active_jobs` for
  its hang watchdog.

Workers are created with a large thread stack and a high recursion limit
(the right-nested Fig. 9 modules need both), which is why the service
layer is called with ``deep=False`` from here — no per-request deep-stack
thread, unlike the cold CLI path.
"""

from __future__ import annotations

import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..testing.faults import fault_point
from ..util import Deadline
from .metrics import ServerMetrics
from .overload import ServiceTimeEstimator
from .supervisor import WorkerCrash

#: Worker thread stack size (bytes) — matches repro.util.run_deep.
_WORKER_STACK_BYTES = 512 * 1024 * 1024
_WORKER_RECURSION_LIMIT = 1_000_000


@dataclass
class Job:
    """One scheduled request."""

    id: object
    method: str
    params: dict[str, Any]
    deadline: Deadline
    respond: Callable[[dict[str, Any]], None]
    #: Opaque client tag namespacing ``id`` (one per connection).
    client: object = None
    #: Optional per-request resource budget (``repro.util.Budget``).
    budget: Any = None
    enqueued_at: float = field(default_factory=time.monotonic)

    @property
    def key(self) -> tuple:
        return (self.client, self.id)


class Admission:
    """The submit verdict, with the shed prediction riding along.

    Compares equal to its verdict string (``"accepted"``,
    ``"overloaded"``, ``"shutting-down"``, ``"shed"``) so callers that
    only care about the verdict read naturally; the daemon additionally
    reads ``retry_after_ms``/``predicted_ms`` to build the 429 payload.
    """

    __slots__ = ("verdict", "retry_after_ms", "predicted_ms")

    def __init__(
        self,
        verdict: str,
        retry_after_ms: Optional[int] = None,
        predicted_ms: Optional[float] = None,
    ) -> None:
        self.verdict = verdict
        self.retry_after_ms = retry_after_ms
        self.predicted_ms = predicted_ms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            return self.verdict == other
        if isinstance(other, Admission):
            return self.verdict == other.verdict
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.verdict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Admission({self.verdict!r})"


class Scheduler:
    """Run jobs through ``handler`` on a bounded worker pool.

    ``handler(job, queue_seconds)`` must return the complete response
    dict; it is also responsible for mapping its own failures (including
    deadline/cancellation) to error responses.  The scheduler calls
    ``job.respond`` exactly once per accepted job.
    """

    def __init__(
        self,
        handler: Callable[[Job, float], dict[str, Any]],
        workers: int = 2,
        queue_limit: int = 16,
        metrics: Optional[ServerMetrics] = None,
        on_crash: Optional[Callable[[Job], None]] = None,
        shed: bool = False,
        estimator: Optional[ServiceTimeEstimator] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.handler = handler
        self.metrics = metrics
        #: Deadline-aware admission control (``--shed``).  The estimator
        #: always observes (cheap, and the daemon's brownout controller
        #: reads it), but jobs are only refused when ``shed`` is on.
        self.shed = shed
        self.estimator = estimator or ServiceTimeEstimator()
        #: Called (off the dying thread, before it unwinds) with the job
        #: whose handling crashed a worker; the daemon uses it to feed
        #: the session quarantine.
        self.on_crash = on_crash
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=max(queue_limit, 1)
        )
        self._jobs: dict[tuple, Job] = {}
        self._jobs_lock = threading.Lock()
        self._draining = threading.Event()
        self._workers: dict[int, threading.Thread] = {}
        #: worker index -> (job, service start time); the supervisor's
        #: hang watchdog reads this.
        self._active: dict[int, tuple[Job, float]] = {}
        self._worker_count = workers
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(self._worker_count):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        """(Re)create worker ``index`` with the deep-stack settings.

        stack_size is process-global state: set around each creation and
        restored, so respawns mid-flight do not leak the big stack onto
        unrelated threads.
        """
        old_stack = threading.stack_size()
        try:
            threading.stack_size(_WORKER_STACK_BYTES)
        except (ValueError, RuntimeError):  # platform refuses: run shallow
            old_stack = None
        try:
            worker = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"rowpoly-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers[index] = worker
        finally:
            if old_stack is not None:
                threading.stack_size(old_stack)

    # -- supervisor hooks ----------------------------------------------
    def dead_workers(self) -> list[int]:
        """Indices whose thread died (crash) and was not yet respawned."""
        if not self._started or self._draining.is_set():
            return []
        return [
            index
            for index, worker in self._workers.items()
            if not worker.is_alive()
        ]

    def respawn(self, index: int) -> None:
        """Replace a dead worker (no-op while draining)."""
        if self._draining.is_set():
            return
        worker = self._workers.get(index)
        if worker is not None and worker.is_alive():
            return
        self._spawn(index)

    def active_jobs(self) -> list[tuple[Job, float]]:
        """Snapshot of (job, service start) pairs currently being served."""
        with self._jobs_lock:
            return list(self._active.values())

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop intake, finish accepted jobs, join the workers.

        Returns ``True`` when every worker exited within ``timeout``.
        """
        self._draining.set()
        if not self._started:
            return True
        for _ in self._workers:
            self._queue.put(None)  # one poison pill per worker, FIFO-last
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        clean = True
        for worker in self._workers.values():
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            worker.join(remaining)
            clean = clean and not worker.is_alive()
        return clean

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def backlog(self) -> int:
        """Jobs accepted but not yet responded to."""
        with self._jobs_lock:
            return len(self._jobs)

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def predicted_response_seconds(self, method: str) -> Optional[float]:
        """EWMA-predicted queue-wait + service time for one new job.

        The new job waits for the current backlog to drain through the
        workers, then gets served itself: ``ewma × (backlog/workers + 1)``.
        ``None`` until the estimator has observed any completion (a cold
        daemon never sheds).
        """
        return self._predicted(self.estimator.predict(method), self.backlog())

    def _predicted(
        self, service: Optional[float], backlog: int
    ) -> Optional[float]:
        if service is None:
            return None
        return service * (backlog / self._worker_count + 1.0)

    def submit(self, job: Job) -> Admission:
        """Accept a job, or refuse with a reason.

        Returns an :class:`Admission` that compares equal to
        ``"accepted"``, ``"overloaded"`` (queue full — the backpressure
        signal), ``"shed"`` (deadline-aware admission control: the job
        could not finish in time) or ``"shutting-down"`` (drain
        started).  The refusals carry a computed ``retry_after_ms``
        where the estimator has one.
        """
        fault_point("scheduler.submit")
        if self._draining.is_set():
            return Admission("shutting-down")
        service = self.estimator.predict(job.method)
        stale = self.shed and self.estimator.stale(job.method)
        with self._jobs_lock:
            # Backlog, verdict and intake under one lock, so concurrent
            # submits cannot all admit themselves to the same idle pool.
            backlog = len(self._jobs)
            predicted = self._predicted(service, backlog)
            remaining = job.deadline.remaining()
            doomed = (
                self.shed
                and predicted is not None
                and remaining is not None
                and remaining < predicted
                # An idle pool serves a job its stale estimate would
                # shed: only a completion can lower the estimate.
                and not (backlog == 0 and stale)
            )
            if not doomed:
                self._jobs[job.key] = job
        if doomed:
            # By the time this job reached a worker its deadline would
            # already have burned.  Shed now and tell the client when
            # the excess should have drained.
            if self.metrics is not None:
                self.metrics.record_request(job.method, "shed")
                self.metrics.record_overload_event("requests_shed")
            excess = predicted - max(remaining, 0.0)
            return Admission(
                "shed",
                retry_after_ms=int(excess * 1000.0) + 1,
                predicted_ms=predicted * 1000.0,
            )
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._jobs_lock:
                self._jobs.pop(job.key, None)
            if self.metrics is not None:
                self.metrics.record_request(job.method, "rejected")
            return Admission(
                "overloaded",
                retry_after_ms=(
                    None
                    if predicted is None
                    else int(predicted * 1000.0) + 1
                ),
            )
        return Admission("accepted")

    def cancel(self, client: object, request_id: object) -> bool:
        """Client-initiated cancellation of a queued or running job.

        Idempotent; returns ``True`` when the job was still in flight.
        The job still gets exactly one response (a ``cancelled`` error),
        produced by the worker that picks it up or is running it.
        """
        with self._jobs_lock:
            job = self._jobs.get((client, request_id))
        if job is None:
            return False
        job.deadline.cancel()
        return True

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        sys.setrecursionlimit(_WORKER_RECURSION_LIMIT)
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._jobs_lock:
                self._active[index] = (job, time.monotonic())
            queue_seconds = time.monotonic() - job.enqueued_at
            service_started = time.monotonic()
            # Expired or cancelled in the queue: answered without
            # service, so its answer says nothing about what serving
            # costs.
            unserved = job.deadline.expired() or job.deadline.cancelled
            crash: Optional[WorkerCrash] = None
            try:
                fault_point("scheduler.pickup")
                response = self.handler(job, queue_seconds)
            except WorkerCrash as error:
                # The worker is compromised: answer this job as
                # retryable, let the daemon count the strike, then die —
                # the supervisor respawns a clean replacement.
                from . import protocol

                crash = error
                response = protocol.error_response(
                    job.id,
                    protocol.WORKER_CRASHED,
                    f"worker crashed serving this request: {error}",
                    {"reason": "worker-crash", "retry_after_ms": 50},
                )
                if self.metrics is not None:
                    self.metrics.record_request(job.method, "crashed")
                if self.on_crash is not None:
                    try:
                        self.on_crash(job)
                    except Exception:
                        pass
            except BaseException as error:  # handler bug: answer, keep going
                from . import protocol

                response = protocol.error_response(
                    job.id,
                    protocol.INTERNAL_ERROR,
                    f"unhandled {type(error).__name__}: {error}",
                )
            finally:
                with self._jobs_lock:
                    self._jobs.pop(job.key, None)
                    self._active.pop(index, None)
            if crash is None and not unserved:
                # Feed the admission-control EWMA with what serving this
                # job actually cost (errors included — effort is effort;
                # crashes excluded — the thread is about to die anyway).
                self.estimator.observe(
                    job.method, time.monotonic() - service_started
                )
            try:
                job.respond(response)
            except (OSError, ValueError):
                pass  # client went away (ValueError: closed file object)
            # Yield the interpreter lock before the next job: threads of
            # this process waiting on the answer or with a request to
            # submit run now, not a switch interval (5 ms by default, the
            # order of a warm re-check) into the next job's computation.
            time.sleep(0)
            if crash is not None:
                return  # thread dies (quietly); the supervisor respawns
