"""Discover: walk corpus roots into a deterministic shard plan.

The first stage of the audit pipeline turns an argument list of files
and directories into an :class:`AuditPlan` — the complete, ordered
work-list every later stage (and every re-audit) derives from:

* **deterministic enumeration** — directories are walked with sorted
  entries (the same discipline as ``rowpoly check``), the final unit
  list is sorted by path, and each unit carries its source *content
  fingerprint*, so two audits of the same tree produce the same plan
  byte for byte;
* **content-addressed shard assignment** — a unit's shard is derived
  from its content fingerprint, not its path or position, so renaming
  or reordering files never reshuffles work between shards (and a
  store-warm re-audit hits the same shard-local caches);
* **unreadable paths are data, not crashes** — a file that cannot be
  read is recorded on the plan (and later reported with the offline
  checker's ``IOError`` shape); only a *root* that does not exist at
  all is a usage error, signalled by :class:`DiscoveryError`.

Sources are read here, once: every unit carries its text so the Execute
stage (local pool or daemon fleet) and the Judge stage (declaration
fingerprints for finding IDs) agree on exactly the bytes that were
audited, even if the tree changes mid-run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..server.service import MODULE_SUFFIX, fingerprint_source, read_module


class DiscoveryError(Exception):
    """A corpus root does not exist (a usage error, not a finding)."""


@dataclass(frozen=True)
class AuditUnit:
    """One module to audit: its path, bytes, identity and shard."""

    path: str
    source: str
    #: Content fingerprint of ``source`` (the daemon's session key).
    fingerprint: str
    #: Deterministic shard index in ``[0, shards)``; content-derived.
    shard: int


@dataclass(frozen=True)
class AuditPlan:
    """The Discover stage's artifact: an ordered, sharded work-list."""

    units: tuple[AuditUnit, ...]
    #: Shard count the plan was computed for.
    shards: int
    #: ``(path, message)`` for files that could not be read.
    unreadable: tuple[tuple[str, str], ...] = ()

    def __len__(self) -> int:
        return len(self.units)

    def shard_sizes(self) -> dict[str, int]:
        """Units per shard (JSON-keyed) — the utilization the audit
        metrics report; an empty shard is reported as 0, not omitted."""
        sizes = {str(index): 0 for index in range(self.shards)}
        for unit in self.units:
            sizes[str(unit.shard)] += 1
        return sizes


def shard_of(fingerprint: str, shards: int) -> int:
    """The content-derived shard of one unit.

    The fingerprint is already a uniform hex hash, so its integer value
    modulo the shard count balances without further mixing — and, being
    content-derived, survives any rename.
    """
    if shards <= 1:
        return 0
    return int(fingerprint, 16) % shards


def _expand_roots(paths: list[str]) -> list[str]:
    """Files from the roots, sorted; raises :class:`DiscoveryError`."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(MODULE_SUFFIX)
                )
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise DiscoveryError(
                f"no such file or directory: {path}"
            )
    # De-duplicate (a file named twice, or once directly and once via
    # its directory) while keeping the global sort.
    return sorted(dict.fromkeys(files))


def discover(paths: list[str], shards: int = 1) -> AuditPlan:
    """Build the audit plan for a list of corpus roots."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    units: list[AuditUnit] = []
    unreadable: list[tuple[str, str]] = []
    for path in _expand_roots(paths):
        try:
            source = read_module(path)
        except OSError as error:
            unreadable.append((path, str(error)))
            continue
        fingerprint = fingerprint_source(source)
        units.append(
            AuditUnit(
                path=path,
                source=source,
                fingerprint=fingerprint,
                shard=shard_of(fingerprint, shards),
            )
        )
    return AuditPlan(
        units=tuple(units),
        shards=shards,
        unreadable=tuple(unreadable),
    )
