"""Deterministic seeded fault injection for the serving stack.

The chaos suite (``tests/chaos/``, ``tools/chaos_run.py``) needs to make
the engine and the daemon *fail on purpose* — solver exceptions, worker
crashes, artificial slowness, budget trips — at realistic places, with a
seed so every run is reproducible.  Production code marks those places
with :func:`fault_point`:

    fault_point("scheduler.pickup")

With nothing installed the call is one module-attribute load and a
``None`` check; with an injector installed the named site consults its
rules and possibly raises, sleeps, or both.

Sites are plain strings, registered implicitly by being used.  The ones
wired in today:

====================== ====================================================
``session.check_decl``  just before an engine checks one declaration
``engine.solve``        entry of every :meth:`SatEngine.solve` query
``scheduler.pickup``    a daemon worker picking a job off the queue
``registry.acquire``    the daemon resolving a request to a session
``daemon.handle``       the daemon decoding one request line (the site an
                        ``exit`` rule uses to kill a whole shard process)
``store.get``           the persistent result store reading one entry
``store.put``           the persistent result store writing one entry
``router.forward``      the router forwarding one check to its shard
                        (in-process only: the router never installs from
                        the environment, so ``ROWPOLY_FAULTS`` cannot
                        reach it — tests use :func:`injected`)
``scheduler.submit``    admission control, before a job is enqueued
                        (in-process only for the same reason when
                        targeting the router's own scheduler; shard
                        daemons do see it via the environment)
====================== ====================================================

Rules pick a *kind* of failure:

``error``   raise :class:`FaultError` (an unexpected engine exception)
``crash``   raise :class:`repro.server.supervisor.WorkerCrash` (kills the
            worker thread; the supervisor must respawn it)
``slow``    sleep ``delay_ms`` (drives deadline/watchdog paths)
``budget``  raise :class:`repro.util.BudgetExceeded` (a resource trip)
``exit``    ``os._exit(86)`` — instant process death, no cleanup, no
            drain.  Pointless against the in-process daemon (it kills the
            test too); against a *shard* of the process-sharded router it
            models kill -9 / OOM, driving the respawn + re-route path
``io``      raise :class:`OSError` (disk full, yanked mount, EIO).  Only
            meaningful at the ``store.*`` sites, which sit *inside* the
            store's own try blocks: an injected ``io`` fault degrades the
            lookup to a miss and the write to a no-op, so reports stay
            byte-identical — the property the store chaos arm asserts

Activation is either in-process (:func:`install` / :func:`injected`) or —
for subprocess daemons — via the ``ROWPOLY_FAULTS`` environment variable,
parsed by :func:`install_from_env`:

    ROWPOLY_FAULTS="seed=42;engine.solve:0.1:error;scheduler.pickup:0.02:crash"

Each ``site:rate:kind`` segment may append ``key=value`` extras
(``delay=50`` ms for ``slow``, ``limit=3`` to cap a rule's trips).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random
from typing import Iterator, Mapping, Optional, Sequence, Union

from ..util import BudgetExceeded

__all__ = [
    "FaultError",
    "FaultInjector",
    "FaultRule",
    "fault_point",
    "install",
    "install_from_env",
    "injected",
    "uninstall",
]


class FaultError(Exception):
    """An injected "unexpected engine exception".

    Deliberately not an ``InferenceError`` and not a ``BudgetExceeded``:
    it models a genuine bug (or cosmic ray) inside the engine, which the
    serving layer must answer as an internal error without poisoning the
    session.
    """


@dataclass
class FaultRule:
    """One (site, probability, kind) arm of an injector."""

    site: str
    rate: float
    kind: str  # "error" | "crash" | "slow" | "budget" | "exit" | "io"
    delay_ms: int = 25
    #: Maximum number of trips (``None`` = unlimited).  A capped rule lets
    #: a soak assert "this request eventually succeeds on retry".
    limit: Optional[int] = None
    trips: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (
            "error", "crash", "slow", "budget", "exit", "io"
        ):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1]: {self.rate!r}")


class FaultInjector:
    """A seeded set of :class:`FaultRule`\\ s consulted at fault points.

    One shared :class:`random.Random` (guarded by a lock — daemon workers
    hit sites from several threads) makes a single-threaded replay with
    the same seed byte-for-byte deterministic; under concurrency the
    per-site *rates* still hold even though interleaving varies.
    """

    def __init__(
        self, rules: Sequence[FaultRule], seed: Union[int, str] = 0
    ) -> None:
        self.rules = list(rules)
        self.seed = seed
        self._random = Random(seed)
        self._lock = threading.Lock()
        #: site -> number of faults actually tripped (for assertions).
        self.tripped: dict[str, int] = {}

    def hit(self, site: str) -> None:
        """Consult the rules for ``site``; maybe sleep and/or raise."""
        action: Optional[FaultRule] = None
        with self._lock:
            for rule in self.rules:
                if rule.site != site:
                    continue
                if rule.limit is not None and rule.trips >= rule.limit:
                    continue
                if self._random.random() >= rule.rate:
                    continue
                rule.trips += 1
                self.tripped[site] = self.tripped.get(site, 0) + 1
                action = rule
                break
        if action is None:
            return
        if action.kind == "slow":
            time.sleep(action.delay_ms / 1000.0)
            return
        if action.kind == "error":
            raise FaultError(f"injected fault at {site}")
        if action.kind == "budget":
            raise BudgetExceeded(f"injected@{site}", 0, 0)
        if action.kind == "io":
            raise OSError(f"injected I/O fault at {site}")
        if action.kind == "exit":
            import os

            # No flush, no atexit, no drain: the closest a test can get
            # to kill -9 from inside.  86 keeps it distinguishable from
            # a clean exit in process tables.
            os._exit(86)
        # "crash": imported lazily — the supervisor module itself calls
        # into scheduling code that carries fault points.
        from ..server.supervisor import WorkerCrash

        raise WorkerCrash(f"injected worker crash at {site}")

    def summary(self) -> dict[str, int]:
        with self._lock:
            return dict(self.tripped)


#: The installed injector, or ``None`` (the fast path).
_active: Optional[FaultInjector] = None


def fault_point(site: str) -> None:
    """Production-code hook: a no-op unless an injector is installed."""
    injector = _active
    if injector is not None:
        injector.hit(site)


def install(injector: FaultInjector) -> None:
    global _active
    _active = injector


def uninstall() -> None:
    global _active
    _active = None


def active() -> Optional[FaultInjector]:
    return _active


@contextmanager
def injected(
    rules: Sequence[FaultRule], seed: int = 0
) -> Iterator[FaultInjector]:
    """Install an injector for the duration of a ``with`` block."""
    injector = FaultInjector(rules, seed=seed)
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


def parse_spec(spec: str, stream: str = "") -> FaultInjector:
    """Parse a ``ROWPOLY_FAULTS`` specification string.

    ``seed=N`` segments set the seed; every other segment is
    ``site:rate:kind`` with optional ``key=value`` extras::

        seed=7;engine.solve:0.1:error;session.check_decl:0.05:slow:delay=40

    A non-empty ``stream`` derives a distinct, still deterministic seed
    from ``N`` — for processes that share one spec but must not replay
    the same draws (every generation of every shard of a fleet).
    """
    seed = 0
    rules: list[FaultRule] = []
    for segment in spec.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        if segment.startswith("seed="):
            seed = int(segment[len("seed="):])
            continue
        fields = segment.split(":")
        if len(fields) < 3:
            raise ValueError(
                f"bad fault segment {segment!r}: want site:rate:kind"
            )
        site, rate, kind = fields[0], float(fields[1]), fields[2]
        extras: dict[str, int] = {}
        for extra in fields[3:]:
            key, _, value = extra.partition("=")
            if key not in ("delay", "limit"):
                raise ValueError(f"unknown fault option {key!r}")
            extras[key] = int(value)
        rules.append(
            FaultRule(
                site=site,
                rate=rate,
                kind=kind,
                delay_ms=extras.get("delay", 25),
                limit=extras.get("limit"),
            )
        )
    return FaultInjector(rules, seed=f"{seed}/{stream}" if stream else seed)


def install_from_env(
    environ: Mapping[str, str], stream: str = ""
) -> Optional[FaultInjector]:
    """Install from ``ROWPOLY_FAULTS`` when set; the subprocess hook.

    ``stream`` is passed to :func:`parse_spec`.
    """
    spec = environ.get("ROWPOLY_FAULTS", "").strip()
    if not spec:
        return None
    injector = parse_spec(spec, stream)
    install(injector)
    return injector
