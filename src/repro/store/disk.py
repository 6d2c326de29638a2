"""The crash-safe, disk-backed, content-addressed result store.

One directory, shared by any number of processes — offline ``rowpoly
check --store`` runs, a daemon, every shard of ``serve --shards N``, and
a whole CI fleet — with three invariants:

**Torn or flipped entries read as misses, never as wrong answers.**
Every entry is a one-file JSON envelope carrying the sha-256 of its own
canonically encoded payload, laid out byte for byte as
:func:`entry_bytes` builds it (the key-sorted, compact encoding of the
envelope, then a newline)::

    {"format":1,"key":"<hex>","payload":{...},"sha256":"<hex>"}

A reader checks that the file is exactly that layout around its payload
bytes: the head with this ``format`` and ``key``, the tail with the
sha-256 of those very bytes.  Only then does it decode the payload, once.
Anything that fails — a truncated write the machine died during, a
flipped bit, garbage, a future format, an envelope re-serialised in
another layout — is **quarantined** (atomically renamed into
``quarantine/``, preserved for forensics) and reported as a miss.

**Writes are atomic and idempotent.**  ``put`` writes to a unique temp
file in ``tmp/`` (same filesystem), fsyncs, then ``os.replace``\\ s into
place.  Readers therefore only ever see a complete old entry or a
complete new one.  Concurrent writers of the same key race benignly:
either winner leaves one valid entry.  Their payloads may differ where
a key holds no position (a declaration's ``layout`` stamp), and a
session judges each payload against its own positions.

**Maintenance never blocks serving.**  ``gc``/``clear`` take an advisory
``flock`` on ``gc.lock`` so two collectors do not fight, but readers and
writers never lock anything — a reader that loses a race with the
collector sees a plain miss.

Everything degrades: any ``OSError`` in ``get``/``put`` (including ones
injected by the chaos harness's ``io`` fault kind at the
``store.get``/``store.put`` sites) is swallowed into a miss/no-op, so a
full disk or a yanked network mount costs performance, not answers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
from typing import Callable, Iterator, Optional

from ..testing.faults import fault_point
from .keys import STORE_FORMAT

_OBJECTS = "objects"
_QUARANTINE = "quarantine"
_TMP = "tmp"
_GC_LOCK = "gc.lock"
_SUFFIX = ".json"
#: Bytes after the payload: ``,"sha256":"``, 64 hex digits, ``"}\n``.
_TAIL_BYTES = 78


def _canonical(payload: dict) -> bytes:
    """The canonical payload encoding the self-verifying hash covers."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _head(key: str) -> bytes:
    return b'{"format":%d,"key":%s,"payload":' % (
        STORE_FORMAT, json.dumps(key).encode()
    )


def entry_bytes(key: str, body: bytes) -> bytes:
    """The exact bytes of the entry for ``key`` around the canonical
    payload encoding ``body``: ``json.dumps`` of the envelope with
    sorted keys and compact separators, then a newline."""
    digest = hashlib.sha256(body).hexdigest().encode()
    return b"".join(
        (_head(key), body, b',"sha256":"', digest, b'"}\n')
    )


class DiskStore:
    """A :class:`~repro.store.backend.CacheBackend` over one directory."""

    def __init__(
        self,
        root: str,
        metrics_hook: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self.root = os.path.abspath(root)
        self._hook = metrics_hook
        self._lock = threading.Lock()
        self._counters = {
            "hits": 0, "misses": 0, "puts": 0,
            "corrupt_entries": 0, "evictions": 0, "io_errors": 0,
        }
        for sub in (_OBJECTS, _QUARANTINE, _TMP):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)

    # -- bookkeeping ----------------------------------------------------
    def _record(self, event: str, count: int = 1) -> None:
        with self._lock:
            self._counters[event] = self._counters.get(event, 0) + count
        # Hierarchy-level hits/misses are the TieredCache's to report;
        # the disk layer surfaces only events no other layer can see.
        if self._hook is not None and event in (
            "corrupt_entries", "evictions"
        ):
            self._hook(event, count)

    def _path(self, key: str) -> str:
        # Two-level fan-out keeps directory listings (and gc scans)
        # proportional, the git-objects layout.
        return os.path.join(self.root, _OBJECTS, key[:2], key + _SUFFIX)

    # -- the CacheBackend protocol --------------------------------------
    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        try:
            fault_point("store.get")
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self._record("misses")
            return None
        except OSError:
            self._record("io_errors")
            self._record("misses")
            return None
        payload = self._validate(key, raw)
        if payload is None:
            self._quarantine(path)
            self._record("corrupt_entries")
            self._record("misses")
            return None
        self._record("hits")
        return payload

    def put(self, key: str, payload: dict) -> None:
        data = entry_bytes(key, _canonical(payload))
        path = self._path(key)
        tmp_dir = os.path.join(self.root, _TMP)
        try:
            fault_point("store.put")
            fd, tmp_path = tempfile.mkstemp(
                dir=tmp_dir, prefix=key[:8] + "-", suffix=_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                try:
                    os.replace(tmp_path, path)
                except FileNotFoundError:
                    # The first entry of its fan-out directory.
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    os.replace(tmp_path, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_path)
                raise
        except OSError:
            self._record("io_errors")
            return
        self._record("puts")

    # -- validation & quarantine ---------------------------------------
    def _validate(self, key: str, raw: bytes) -> Optional[dict]:
        """The payload iff ``raw`` is exactly the entry :func:`entry_bytes`
        builds for ``key`` around its own payload bytes."""
        body = raw[len(_head(key)):len(raw) - _TAIL_BYTES]
        if entry_bytes(key, body) != raw:
            return None
        try:
            payload = json.loads(body)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def _quarantine(self, path: str) -> None:
        """Move a bad entry aside (atomic; best-effort under races)."""
        target = os.path.join(
            self.root, _QUARANTINE, os.path.basename(path)
        )
        with contextlib.suppress(OSError):
            os.replace(path, target)

    # -- maintenance (the `rowpoly cache` surface) ----------------------
    def _entries(self) -> Iterator[tuple[str, os.stat_result]]:
        objects = os.path.join(self.root, _OBJECTS)
        for shard in sorted(self._listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            for name in sorted(self._listdir(shard_dir)):
                if not name.endswith(_SUFFIX):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    yield path, os.stat(path)
                except OSError:
                    continue  # lost a race with gc/clear

    @staticmethod
    def _listdir(path: str) -> list[str]:
        try:
            return os.listdir(path)
        except OSError:
            return []

    @contextlib.contextmanager
    def _gc_lock(self) -> Iterator[None]:
        """Advisory exclusive lock serialising collectors, not readers."""
        lock_path = os.path.join(self.root, _GC_LOCK)
        handle = open(lock_path, "a+")
        try:
            try:
                import fcntl

                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except ImportError:  # pragma: no cover - non-POSIX fallback
                pass
            yield
        finally:
            handle.close()  # closing drops the flock

    def stats(self) -> dict[str, object]:
        entries = 0
        total_bytes = 0
        for _, stat in self._entries():
            entries += 1
            total_bytes += stat.st_size
        quarantined = sum(
            1
            for name in self._listdir(
                os.path.join(self.root, _QUARANTINE)
            )
            if name.endswith(_SUFFIX)
        )
        with self._lock:
            counters = dict(self._counters)
        return {
            "layer": "disk",
            "root": self.root,
            "format": STORE_FORMAT,
            "entries": entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
            **counters,
        }

    def verify(self) -> dict[str, int]:
        """Re-validate every entry; quarantine the bad ones."""
        checked = corrupt = 0
        for path, _ in list(self._entries()):
            checked += 1
            key = os.path.basename(path)[: -len(_SUFFIX)]
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                continue
            if self._validate(key, raw) is None:
                self._quarantine(path)
                self._record("corrupt_entries")
                corrupt += 1
        return {"checked": checked, "corrupt": corrupt}

    def gc(self, max_bytes: int) -> dict[str, int]:
        """Evict least-recently-written entries down to ``max_bytes``."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        removed = removed_bytes = kept_bytes = 0
        with self._gc_lock():
            entries = sorted(
                self._entries(), key=lambda item: item[1].st_mtime
            )
            total = sum(stat.st_size for _, stat in entries)
            kept_bytes = total
            for path, stat in entries:
                if kept_bytes <= max_bytes:
                    break
                with contextlib.suppress(OSError):
                    os.unlink(path)
                    removed += 1
                    removed_bytes += stat.st_size
                kept_bytes -= stat.st_size
        if removed:
            self._record("evictions", removed)
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "kept_bytes": max(kept_bytes, 0),
        }

    def clear(self) -> dict[str, int]:
        """Drop every entry (and the quarantine)."""
        removed = 0
        with self._gc_lock():
            for path, _ in list(self._entries()):
                with contextlib.suppress(OSError):
                    os.unlink(path)
                    removed += 1
            quarantine = os.path.join(self.root, _QUARANTINE)
            for name in self._listdir(quarantine):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(quarantine, name))
        if removed:
            self._record("evictions", removed)
        return {"removed": removed}
