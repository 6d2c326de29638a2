"""Supply of fresh flag variables.

Every position in a flagged type (record field, row variable, type-variable
occurrence) carries a globally unique flag.  The paper's bi-implications
``fa <-> fa'`` in the record rules exist precisely to keep flags unique per
position ("This ensures that [·] returns sequences without duplicates",
Sect. 2.3); with a global integer supply we get uniqueness by construction.
"""

from __future__ import annotations


class FlagSupply:
    """Issues fresh propositional variables (positive integers).

    An optional debug name can be recorded per flag; it is only used in
    diagnostics and pretty-printing, never for identity.
    """

    __slots__ = ("_next", "_names")

    def __init__(self) -> None:
        self._next = 1
        self._names: dict[int, str] = {}

    def fresh(self, name: str | None = None) -> int:
        """Return a fresh flag, optionally remembering a debug name."""
        flag = self._next
        self._next += 1
        if name is not None:
            self._names[flag] = name
        return flag

    def fresh_many(self, count: int) -> list[int]:
        """Return ``count`` fresh flags."""
        return [self.fresh() for _ in range(count)]

    def name_of(self, flag: int) -> str:
        """Debug name for ``flag`` (falls back to ``f<id>``)."""
        return self._names.get(flag, f"f{flag}")

    def is_anonymous(self, flag: int) -> bool:
        """True if no debug name was recorded for ``flag``."""
        return flag not in self._names

    def set_name(self, flag: int, name: str) -> None:
        """Attach or replace the debug name of ``flag``."""
        self._names[flag] = name

    def named_flags(self) -> dict[int, str]:
        """A copy of the flag -> debug-name table (diagnostics only)."""
        return dict(self._names)

    def reset_names(self, names: dict[int, str]) -> None:
        """Forget every debug name, then record ``names``.

        The counter of issued flags is untouched, so flags stay unique.
        A session calls this before each check, so that the table holds
        only the names that check can reach, not every name ever
        recorded.
        """
        self._names = dict(names)

    @property
    def issued(self) -> int:
        """Number of flags issued so far."""
        return self._next - 1
