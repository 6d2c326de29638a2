"""Type environments for the flow inference.

An environment maps program variables to entries:

* :class:`Mono` — a λ-bound variable with a single flagged type,
* :class:`Poly` — a let-bound variable with a type scheme (Fig. 2/3).

Entries cache the free type/row variables of their type, so substitution
application can skip entries that cannot mention a substituted variable —
this is our analogue of the version-tag optimisation of Sect. 6 ("each time
we add an entry to an environment, we tag the environment with a fresh
version"), benchmarked by E6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ..types.schemes import Scheme
from ..types.terms import Type, all_flags, row_vars, type_vars


@dataclass(frozen=True)
class Mono:
    """A λ-bound entry: one flagged type."""

    type: Type
    free_type_vars: frozenset[int]
    free_row_vars: frozenset[int]
    flags: frozenset[int]

    @staticmethod
    def of(t: Type) -> "Mono":
        return Mono(
            t,
            frozenset(type_vars(t)),
            frozenset(row_vars(t)),
            frozenset(all_flags(t)),
        )


@dataclass(frozen=True)
class Poly:
    """A let-bound entry: a scheme whose body carries flags.

    The variable caches hold the *free* (non-quantified) variables — the
    ones a substitution could touch.  The flag cache covers the whole body
    (quantified positions included): all of them are live, since future
    instantiations duplicate their flow.
    """

    scheme: Scheme
    free_type_vars: frozenset[int]
    free_row_vars: frozenset[int]
    flags: frozenset[int]

    @staticmethod
    def of(scheme: Scheme) -> "Poly":
        return Poly(
            scheme,
            frozenset(type_vars(scheme.body)) - scheme.quantified_type_vars,
            frozenset(row_vars(scheme.body)) - scheme.quantified_row_vars,
            frozenset(all_flags(scheme.body)),
        )


Entry = Union[Mono, Poly]


class TypeEnv:
    """An immutable-by-convention environment; updates return new envs.

    The underlying dict is shared between derived environments, so the
    common case (a binding added, nothing else changed) is cheap.  The
    union of all entry flags is maintained incrementally (flags are unique
    per position, so bind/unbind are simple set updates) — it makes the
    live-flag computation of the stale-flag GC O(1) per environment.
    """

    __slots__ = ("_entries", "_flags")

    def __init__(self, entries: Optional[dict[str, Entry]] = None,
                 flags: Optional[frozenset[int]] = None) -> None:
        self._entries: dict[str, Entry] = entries if entries is not None else {}
        if flags is None:
            flags = frozenset().union(
                *(entry.flags for entry in self._entries.values())
            ) if self._entries else frozenset()
        self._flags = flags

    @property
    def flags(self) -> frozenset[int]:
        """Union of the flags of all entries."""
        return self._flags

    def lookup(self, name: str) -> Optional[Entry]:
        return self._entries.get(name)

    def bind(self, name: str, entry: Entry) -> "TypeEnv":
        updated = dict(self._entries)
        previous = updated.get(name)
        updated[name] = entry
        flags = self._flags
        if previous is not None:
            flags = flags - previous.flags
        flags = flags | entry.flags
        return TypeEnv(updated, flags)

    def unbind(self, name: str) -> "TypeEnv":
        updated = dict(self._entries)
        previous = updated.pop(name, None)
        flags = self._flags
        if previous is not None:
            flags = flags - previous.flags
        return TypeEnv(updated, flags)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Entry]]:
        return iter(self._entries.items())

    def entries(self) -> Iterator[Entry]:
        return iter(self._entries.values())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def monotypes(self) -> Iterator[tuple[str, Type]]:
        """The λ-bound entries (name, type)."""
        for name, entry in self._entries.items():
            if isinstance(entry, Mono):
                yield name, entry.type


    def free_type_vars(self) -> set[int]:
        out: set[int] = set()
        for entry in self._entries.values():
            out |= entry.free_type_vars
        return out

    def free_row_vars(self) -> set[int]:
        out: set[int] = set()
        for entry in self._entries.values():
            out |= entry.free_row_vars
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name} -> {entry.type!r}"
            if isinstance(entry, Mono)
            else f"{name} -> {entry.scheme!r}"
            for name, entry in self._entries.items()
        )
        return f"TypeEnv({inner})"
