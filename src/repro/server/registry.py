"""LRU-bounded pool of warm inference sessions, keyed by module path.

One :class:`~repro.infer.session.InferSession` per (path, engine,
options) key.  Each entry carries its own lock — requests for the *same*
module serialise (an ``InferSession`` is single-writer by design), while
requests for different modules run concurrently across the worker pool.

Invalidation is fingerprint-based: an entry remembers the content hash of
the last source it checked and the finished outcome.  A request whose
source hashes identically is a **replay hit** and returns the stored
outcome without touching the engine; a differing hash is checked on the
warm ``InferSession``, which re-infers only what the edit actually
invalidated (an *invalidation*, counted separately from a miss).

Eviction is LRU on the registry order.  Evicting drops the registry's
reference only — a worker still holding the entry finishes its request on
the live object; subsequent requests for that path start a cold session.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..infer import InferSession
from ..infer.state import FlowOptions
from ..store.backend import CacheBackend
from ..store.keys import options_key
from ..testing.faults import fault_point
from .metrics import ServerMetrics
from .service import CheckOutcome

__all__ = ["SessionEntry", "SessionRegistry", "options_key"]


@dataclass
class SessionEntry:
    """One warm session plus its replay state."""

    key: tuple
    session: InferSession
    lock: threading.Lock = field(default_factory=threading.Lock)
    fingerprint: str = ""
    outcome: Optional[CheckOutcome] = None
    checks: int = 0


class SessionRegistry:
    """Thread-safe LRU map: (path, engine, options) → warm session.

    ``options_key`` — the tuple of session-relevant option fields that
    co-keys entries — now lives in :mod:`repro.store.keys` (the cache
    hierarchy's one source of key truth) and is re-exported here.
    """

    def __init__(
        self,
        capacity: int = 32,
        metrics: Optional[ServerMetrics] = None,
        store: Optional[CacheBackend] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("session registry capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        #: Persistent store handed to every session this registry
        #: creates; an evicted-and-recreated session warms from it.
        self.store = store
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, SessionEntry]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def acquire(
        self,
        path: str,
        engine: str = "flow",
        options: Optional[FlowOptions] = None,
    ) -> SessionEntry:
        """The warm entry for a module path, creating (and evicting) LRU.

        The caller must take ``entry.lock`` around its use of the session;
        the registry lock only guards the map itself.
        """
        fault_point("registry.acquire")
        key = (path, engine, options_key(options))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
            entry = SessionEntry(
                key=key,
                session=InferSession(engine, options, store=self.store),
            )
            self._entries[key] = entry
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted and self.metrics is not None:
            self.metrics.record_session_event("evictions", evicted)
        return entry

    def classify_request(
        self, entry: SessionEntry, fingerprint: str
    ) -> str:
        """'hit' (replay), 'invalidate' (warm, edited) or 'miss' (cold).

        Purely a metrics label; call with ``entry.lock`` held.
        """
        if entry.outcome is not None and entry.fingerprint == fingerprint:
            return "hit"
        return "invalidate" if entry.checks else "miss"

    def record(self, label: str) -> None:
        if self.metrics is None:
            return
        event = {
            "hit": "hits", "miss": "misses", "invalidate": "invalidations",
        }[label]
        self.metrics.record_session_event(event)

    def evict(self, path: str, engine: str = "flow",
              options: Optional[FlowOptions] = None) -> bool:
        """Explicitly drop one entry (used by tests and admin tooling)."""
        key = (path, engine, options_key(options))
        with self._lock:
            removed = self._entries.pop(key, None)
        if removed is not None and self.metrics is not None:
            self.metrics.record_session_event("evictions")
        return removed is not None
