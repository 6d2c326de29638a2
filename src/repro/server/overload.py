"""Adaptive overload control: breakers, service-time EWMA, brownout.

PR 5/6 built the *crash* half of robustness — supervisor respawns,
retries, quarantine — where failure is binary: a worker or shard dies
and is replaced.  This module is the *overload* half, where nothing has
died but the fleet is slower than its traffic, and the right move is to
degrade deliberately instead of falling off a cliff:

* :class:`CircuitBreaker` — the per-shard health state machine the
  router consults before rendezvous routing.  Classic three states:
  **closed** (routable; consecutive probe strikes accumulate), **open**
  (removed from rendezvous candidacy — its keys fail over to their
  second-choice shard, exactly the minimal-disruption property the
  PR 6 routing tests pin down), and **half-open** (the recovery timer
  elapsed; still out of candidacy, but the next successful probe closes
  the breaker and the keys return home).
* :class:`HealthProber` — the router-side probe loop feeding the
  breakers: every ``interval`` seconds it calls each live shard's
  ``stats`` RPC and scores the round trip (transport failure, latency
  above the breaker threshold, or a full queue = one strike).  A shard
  respawn (new generation) gets a fresh breaker: the replacement
  process is innocent until probed.
* :class:`ServiceTimeEstimator` — per-method EWMA of observed service
  time, the prediction behind deadline-aware admission control
  (:meth:`repro.server.scheduler.Scheduler.submit`): a request whose
  remaining deadline is below the predicted queue-wait + service time
  is refused *at submit* with a computed ``retry_after_ms`` instead of
  queueing work that is provably doomed to 408.
* :class:`BrownoutController` — hysteresis for the daemon's degraded
  mode.  Pressure (queue occupancy × EWMA service ms) above the
  threshold for a sustained window enters brownout; pressure below
  ``threshold × exit_ratio`` for the same window exits it.  While
  browned out the daemon tightens per-request budgets so answers come
  from warm caches/stores where possible and partial everywhere else —
  marked ``degraded: true`` and never cached or persisted.

Everything here is pure bookkeeping over an injectable clock, which is
what lets ``tests/server/test_overload.py`` drive every transition
deterministically; only :class:`HealthProber`'s default probe function
touches a socket.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Breaker states.  ``degraded`` is not a stored state: it is how a
#: closed breaker with a non-zero strike count *renders*, so operators
#: can see a shard trending toward open before it gets there.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Bounded length of the prober's transition log (enough for any test
#: or incident review; old transitions roll off).
_TRANSITION_LOG_LIMIT = 256


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables of one shard's circuit breaker (the ``--breaker-*`` flags)."""

    #: Consecutive probe strikes that open the breaker.
    failures: int = 3
    #: Probe round-trip latency above this is a strike.
    latency_ms: float = 250.0
    #: How long an open breaker waits before half-opening.
    recovery_seconds: float = 5.0


class CircuitBreaker:
    """closed → open → half-open → closed, driven by probe outcomes.

    Not thread-safe by itself; :class:`HealthProber` serialises access
    (one probe loop), and routing reads go through the prober's lock.
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock
        self._state = CLOSED
        self._strikes = 0
        self._opened_at: Optional[float] = None

    # -- reads ---------------------------------------------------------
    @property
    def state(self) -> str:
        """The stored state, advancing open → half-open when due."""
        self._maybe_half_open(self._clock())
        return self._state

    @property
    def strikes(self) -> int:
        return self._strikes

    def allows(self) -> bool:
        """Whether the shard is in rendezvous candidacy right now.

        Half-open deliberately does **not** admit traffic: the probe is
        the trial request, so real traffic only returns after a probe
        confirms recovery — keys "return home on half-open probe
        success", never on a timer alone.
        """
        return self.state == CLOSED

    def render(self) -> str:
        """The operator-facing label (``degraded`` = closed but striking)."""
        state = self.state
        if state == CLOSED and self._strikes > 0:
            return "degraded"
        return state

    # -- transitions ---------------------------------------------------
    def _maybe_half_open(self, now: float) -> Optional[tuple[str, str]]:
        if (
            self._state == OPEN
            and self._opened_at is not None
            and now - self._opened_at >= self.config.recovery_seconds
        ):
            self._state = HALF_OPEN
            return (OPEN, HALF_OPEN)
        return None

    def record(self, healthy: bool) -> list[tuple[str, str]]:
        """Feed one probe outcome; returns the transitions it caused."""
        now = self._clock()
        transitions: list[tuple[str, str]] = []
        timed = self._maybe_half_open(now)
        if timed is not None:
            transitions.append(timed)
        if self._state == CLOSED:
            if healthy:
                self._strikes = 0
            else:
                self._strikes += 1
                if self._strikes >= self.config.failures:
                    self._state = OPEN
                    self._opened_at = now
                    transitions.append((CLOSED, OPEN))
        elif self._state == HALF_OPEN:
            if healthy:
                self._state = CLOSED
                self._strikes = 0
                self._opened_at = None
                transitions.append((HALF_OPEN, CLOSED))
            else:
                self._state = OPEN
                self._opened_at = now
                transitions.append((HALF_OPEN, OPEN))
        # state OPEN before its recovery timer: outcomes are ignored —
        # the breaker is already as open as it gets.
        return transitions


class ServiceTimeEstimator:
    """Per-method EWMA of service seconds (plus a ``*`` combined lane).

    ``observe`` is called by scheduler workers at job completion;
    ``predict`` by the submit path (other threads) — hence the lock.
    Until a method has been observed, ``predict`` falls back to the
    combined lane, and before *any* observation it returns ``None`` so
    admission control stays wide open on a cold daemon.

    Only completions refresh an estimate, and a scheduler that sheds
    every job completes none, so an estimate above every request's
    deadline would shed them all for good.  :meth:`stale` tells the
    scheduler when no completion has confirmed the estimate for longer
    than the estimate itself; an idle pool then serves one job as a
    probe, whose completion updates it.
    """

    COMBINED = "*"

    def __init__(
        self,
        alpha: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._clock = clock
        self._lock = threading.Lock()
        self._ewma: dict[str, float] = {}
        #: When each lane last observed a completion.
        self._observed_at: dict[str, float] = {}

    def observe(self, method: str, seconds: float) -> None:
        if seconds < 0.0:
            return
        with self._lock:
            now = self._clock()
            for lane in (method, self.COMBINED):
                previous = self._ewma.get(lane)
                self._ewma[lane] = (
                    seconds
                    if previous is None
                    else previous + self.alpha * (seconds - previous)
                )
                self._observed_at[lane] = now

    def _lane(self, method: str) -> str:
        return method if method in self._ewma else self.COMBINED

    def predict(self, method: str) -> Optional[float]:
        with self._lock:
            return self._ewma.get(self._lane(method))

    def stale(self, method: str) -> bool:
        """Whether the estimate ``predict(method)`` is older than itself:
        no completion has confirmed it for longer than one predicted
        service, though an idle worker would have finished a job in that
        time.  ``False`` before any observation."""
        with self._lock:
            lane = self._lane(method)
            value = self._ewma.get(lane)
            if value is None:
                return False
            return self._clock() - self._observed_at[lane] > value

    def snapshot(self) -> dict[str, float]:
        """EWMA service time per method, in milliseconds."""
        with self._lock:
            return {
                method: value * 1000.0
                for method, value in sorted(self._ewma.items())
            }


class BrownoutController:
    """Sustained-pressure hysteresis for the daemon's degraded mode.

    ``observe(pressure)`` is called from the request path (submit and
    completion), so state only advances while there is traffic to
    observe — which is exactly when brownout matters.  Pressure must
    stay above ``threshold`` for ``window`` seconds to enter, and below
    ``threshold * exit_ratio`` for ``window`` seconds to exit; the gap
    between the two thresholds is what stops the mode from flapping at
    the boundary.
    """

    def __init__(
        self,
        threshold: float,
        window: float = 1.0,
        exit_ratio: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold <= 0.0:
            raise ValueError("brownout threshold must be positive")
        if not 0.0 <= exit_ratio <= 1.0:
            raise ValueError("exit_ratio must be in [0, 1]")
        self.threshold = threshold
        self.window = max(0.0, window)
        self.exit_threshold = threshold * exit_ratio
        self._clock = clock
        self._lock = threading.Lock()
        self._active = False
        self._above_since: Optional[float] = None
        self._below_since: Optional[float] = None
        self._entered_at: Optional[float] = None
        self.last_pressure = 0.0

    @property
    def active(self) -> bool:
        return self._active

    def observe(self, pressure: float) -> list[str]:
        """Feed one pressure sample; returns ``["enter"]``/``["exit"]``
        events (each carrying its own metrics meaning) or ``[]``."""
        now = self._clock()
        events: list[str] = []
        with self._lock:
            self.last_pressure = pressure
            if not self._active:
                if pressure >= self.threshold:
                    if self._above_since is None:
                        self._above_since = now
                    if now - self._above_since >= self.window:
                        self._active = True
                        self._entered_at = now
                        self._above_since = None
                        events.append("enter")
                else:
                    self._above_since = None
            else:
                if pressure < self.exit_threshold:
                    if self._below_since is None:
                        self._below_since = now
                    if now - self._below_since >= self.window:
                        self._active = False
                        self._below_since = None
                        events.append("exit")
                else:
                    self._below_since = None
        return events

    def spell_seconds(self) -> float:
        """Seconds spent in the brownout spell that just ended (or the
        one in progress); consumed by the caller's metrics on ``exit``
        events and at drain via :meth:`flush`."""
        with self._lock:
            if self._entered_at is None:
                return 0.0
            spell = max(0.0, self._clock() - self._entered_at)
            if not self._active:
                self._entered_at = None
            return spell

    def flush(self) -> float:
        """End any in-progress spell (shutdown path); returns its seconds."""
        with self._lock:
            if self._entered_at is None:
                return 0.0
            spell = max(0.0, self._clock() - self._entered_at)
            self._entered_at = None
            self._active = False
            return spell


def default_probe(handle, timeout: float) -> tuple[bool, float, dict]:
    """Probe one shard over its ``stats`` RPC.

    Returns ``(transport_ok, latency_seconds, queue_section)``; a
    refused/dropped/hung connection is ``(False, elapsed, {})``.
    """
    from .client import ServeClient

    started = time.monotonic()
    try:
        with ServeClient(handle.address_text, timeout=timeout) as client:
            snapshot = client.stats()
    except Exception:  # noqa: BLE001 — any probe failure is one strike
        return False, time.monotonic() - started, {}
    queue = snapshot.get("queue")
    return True, time.monotonic() - started, queue if isinstance(queue, dict) else {}


class HealthProber:
    """The router's probe loop: feeds one breaker per shard index.

    * probe outcome → :meth:`CircuitBreaker.record`;
    * transitions → metrics counters (``breaker_open_total`` etc.) and
      a bounded transition log served under the router's stats;
    * routing reads :meth:`allows`; a shard generation change (respawn)
      resets its breaker to closed.

    ``probe_fn(handle, timeout)`` is injectable for tests; the default
    is :func:`default_probe`.
    """

    def __init__(
        self,
        pool,
        interval: float,
        config: Optional[BreakerConfig] = None,
        metrics=None,
        probe_timeout: float = 2.0,
        probe_fn: Callable = default_probe,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.pool = pool
        self.interval = interval
        self.config = config or BreakerConfig()
        self.metrics = metrics
        self.probe_timeout = probe_timeout
        self.probe_fn = probe_fn
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[int, CircuitBreaker] = {}
        self._generations: dict[int, int] = {}
        self._transitions: list[dict] = []
        self._started = clock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="rowpoly-health-prober", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.probe_once()
            except Exception:  # noqa: BLE001 — the probe loop never dies
                pass

    # -- probing -------------------------------------------------------
    def _breaker_for(self, index: int, generation: int) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(index)
            if breaker is None or self._generations.get(index) != generation:
                breaker = CircuitBreaker(self.config, clock=self._clock)
                self._breakers[index] = breaker
                self._generations[index] = generation
            return breaker

    def probe_once(self) -> None:
        """One probe round over the live shard set."""
        for handle in self.pool.live():
            ok, latency, queue = self.probe_fn(handle, self.probe_timeout)
            self.score(handle, ok, latency, queue)

    def score(self, handle, ok: bool, latency: float, queue: dict) -> None:
        """Turn one probe observation into breaker (and metrics) state."""
        backlog = queue.get("backlog", 0) if queue else 0
        limit = queue.get("limit", 0) if queue else 0
        queue_full = bool(limit) and backlog >= limit
        healthy = (
            ok
            and latency * 1000.0 <= self.config.latency_ms
            and not queue_full
        )
        breaker = self._breaker_for(handle.index, handle.generation)
        with self._lock:
            transitions = breaker.record(healthy)
            for old, new in transitions:
                self._transitions.append(
                    {
                        "shard": handle.index,
                        "generation": handle.generation,
                        "from": old,
                        "to": new,
                        "at_seconds": round(self._clock() - self._started, 3),
                    }
                )
            del self._transitions[:-_TRANSITION_LOG_LIMIT]
        if self.metrics is not None:
            for _, new in transitions:
                counter = {
                    OPEN: "breaker_open_total",
                    HALF_OPEN: "breaker_half_open_total",
                    CLOSED: "breaker_close_total",
                }.get(new)
                if counter:
                    self.metrics.record_overload_event(counter)

    # -- routing / stats reads -----------------------------------------
    def allows(self, handle) -> bool:
        """Candidacy of one live shard (no breaker yet = routable)."""
        with self._lock:
            breaker = self._breakers.get(handle.index)
            if (
                breaker is None
                or self._generations.get(handle.index) != handle.generation
            ):
                return True
            return breaker.allows()

    def states(self) -> dict[str, str]:
        """Shard index → rendered breaker state (stats payload)."""
        with self._lock:
            return {
                str(index): breaker.render()
                for index, breaker in sorted(self._breakers.items())
            }

    def transitions(self) -> list[dict]:
        with self._lock:
            return list(self._transitions)
