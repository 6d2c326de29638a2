"""The :class:`CacheBackend` protocol and the in-memory / tiered layers.

Before this module existed the repo had three ad-hoc caches — the
per-declaration dict inside :class:`~repro.infer.session.InferSession`,
the fingerprint-replay outcome on each
:class:`~repro.server.registry.SessionEntry`, and nothing on disk.  They
now form one explicit hierarchy behind a single protocol:

==========  ==========================================================
layer       contents
==========  ==========================================================
L0          live objects, process-private: the session's per-decl
            dict (reports **plus** engine exports) and the registry's
            replay outcomes — not a :class:`CacheBackend`; exports hold
            session-local ids (a flow export reaches L1/L2 only
            renumbered, inside its declaration's payload), and entries
            invalidate by name/fingerprint
L1          :class:`MemoryCache` — content-addressed JSON payloads,
            LRU-bounded, shared by every session in one process
L2          :class:`~repro.store.disk.DiskStore` — the persistent
            content-addressed store, shared by every *process* (and
            every daemon restart) pointing at one directory
==========  ==========================================================

:class:`TieredCache` composes L1 over L2: gets fall through and promote
hits upward, puts write through.  Everything below L0 speaks plain
JSON-ready dicts, so a payload read from any layer is byte-equivalent to
one computed fresh — the property every parity test in this repo leans
on.

All backends **degrade, never fail**: a broken layer (I/O error, corrupt
entry) reads as a miss and writes as a no-op.  Callers must treat
``get() is None`` as "solve it yourself", which keeps a damaged store
strictly a performance problem.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional, Protocol, Sequence, runtime_checkable

#: Metrics callback: ``hook(event, count)`` with ``event`` one of
#: ``hits``/``misses``/``evictions``/``corrupt_entries``.
MetricsHook = Callable[[str, int], None]


@runtime_checkable
class CacheBackend(Protocol):
    """What every payload-cache layer offers.

    ``get`` returns the stored JSON-ready payload dict or ``None`` (a
    miss — including every degraded failure mode); ``put`` stores a
    payload best-effort; ``stats`` reports layer-local counters for
    observability (never used for correctness).
    """

    def get(self, key: str) -> Optional[dict]:
        ...

    def put(self, key: str, payload: dict) -> None:
        ...

    def stats(self) -> dict[str, object]:
        ...


class MemoryCache:
    """A thread-safe, LRU-bounded, content-addressed payload cache.

    The process-local L1: one instance in front of a
    :class:`~repro.store.disk.DiskStore` saves every session in a daemon
    the disk read for entries some *other* session already pulled (the
    shared-corpus case: many modules importing the same prelude
    declarations hit here, not the disk).
    """

    def __init__(
        self,
        capacity: int = 4096,
        metrics_hook: Optional[MetricsHook] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("memory cache capacity must be >= 1")
        self.capacity = capacity
        self._hook = metrics_hook
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return payload

    def put(self, key: str, payload: dict) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted and self._hook is not None:
            self._hook("evictions", evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "layer": "memory",
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }


class TieredCache:
    """Layered :class:`CacheBackend`\\ s: first hit wins, hits promote.

    ``get`` consults layers in order and copies a lower layer's hit into
    every layer above it; ``put`` writes through to all layers.  The
    metrics hook observes the *hierarchy-level* outcome — one logical
    lookup is one hit or one miss, regardless of which layer answered —
    which is what the daemon's ``store_hits``/``store_misses`` counters
    mean.
    """

    def __init__(
        self,
        layers: Sequence[CacheBackend],
        metrics_hook: Optional[MetricsHook] = None,
    ) -> None:
        if not layers:
            raise ValueError("tiered cache needs at least one layer")
        self.layers = list(layers)
        self._hook = metrics_hook

    def _record(self, event: str, count: int = 1) -> None:
        if self._hook is not None:
            self._hook(event, count)

    def get(self, key: str) -> Optional[dict]:
        for index, layer in enumerate(self.layers):
            payload = layer.get(key)
            if payload is not None:
                for upper in self.layers[:index]:
                    upper.put(key, payload)
                self._record("hits")
                return payload
        self._record("misses")
        return None

    def put(self, key: str, payload: dict) -> None:
        for layer in self.layers:
            layer.put(key, payload)

    def stats(self) -> dict[str, object]:
        return {
            "layer": "tiered",
            "layers": [layer.stats() for layer in self.layers],
        }


def open_store(
    root: str,
    metrics_hook: Optional[MetricsHook] = None,
    memory_entries: int = 4096,
):
    """The standard hierarchy over a store directory: memory → disk.

    What ``--store DIR`` opens everywhere (CLI checks, the daemon, every
    shard of a sharded fleet): a :class:`TieredCache` of one process-
    local :class:`MemoryCache` over one shared
    :class:`~repro.store.disk.DiskStore`.  ``memory_entries=0`` skips
    the memory layer (tests and the ``rowpoly cache`` admin paths want
    to observe the disk directly).
    """
    from .disk import DiskStore

    disk = DiskStore(root, metrics_hook=metrics_hook)
    if memory_entries <= 0:
        return disk
    return TieredCache(
        [MemoryCache(memory_entries), disk], metrics_hook=metrics_hook
    )
