"""Boolean functions in conjunctive normal form over flag variables.

The flow information β of the paper (Sect. 2.3) is a Boolean function in CNF
whose propositional variables are the *flags* attached to record fields, row
variables and type-variable occurrences.  This module provides the CNF
container used throughout the inference together with the small algebra the
inference rules need:

* conjunction of clauses (``add_clause``, ``add_implication``, ...),
* the set of clauses mentioning a given set of variables (the input to
  expansion, Def. 2),
* renaming / duplication of clauses under a literal substitution,
* existential projection onto a sub-vocabulary (see ``projection.py``).

Literals follow the DIMACS convention: a positive integer ``v`` denotes the
propositional variable ``v``, and ``-v`` denotes its negation.  Variable ``0``
is never used.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Optional

Literal = int
Clause = tuple[Literal, ...]


def normalize_clause(literals: Iterable[Literal]) -> Optional[Clause]:
    """Return the canonical form of a clause, or ``None`` for a tautology.

    Canonical means: duplicate literals removed, literals sorted by
    ``(|lit|, lit)``.  A clause containing both ``v`` and ``-v`` is a
    tautology and is represented by ``None`` (it can be dropped from a CNF
    without changing its models).

    Raises ``ValueError`` on the illegal literal ``0`` and on empty input
    (an empty clause is unsatisfiable; callers signal that explicitly via
    :meth:`Cnf.mark_unsat`).

    Unit and binary clauses — every clause of the core record rules
    (E3) — are canonicalised directly; wider clauses (``@@``, ``when``,
    guarded clauses) take the general set-and-sort path.
    """
    if type(literals) is not tuple:
        literals = tuple(literals)
    if len(literals) == 2:
        a, b = literals
        if a and b:
            if a == b:
                return (a,)
            if a == -b:
                return None
            return literals if abs(a) < abs(b) else (b, a)
    elif len(literals) == 1:
        if literals[0]:
            return literals
    return _normalize_general(literals)


def _normalize_general(literals: Clause) -> Optional[Clause]:
    seen: set[Literal] = set()
    tautology = False
    for lit in literals:
        if lit == 0:
            raise ValueError("literal 0 is not allowed")
        if -lit in seen:
            tautology = True
        seen.add(lit)
    if not seen:
        raise ValueError("empty clause (use Cnf.mark_unsat to record falsity)")
    if tautology:
        return None
    return tuple(sorted(seen, key=lambda l: (abs(l), l)))


class UndoTrail:
    """The clauses a batch of removals took out of a :class:`Cnf`.

    Started by :meth:`Cnf.start_trail`; :meth:`Cnf.rebuilt` turns it back
    into the formula as it was when the trail started.  Recording costs
    one list append per removed clause, against a full copy of the
    formula up front.
    """

    __slots__ = ("length", "unsat", "revision", "removed")

    def __init__(self, length: int, unsat: bool, revision: int) -> None:
        self.length = length
        self.unsat = unsat
        self.revision = revision
        #: ``(position, clause)`` for every clause removed since the start.
        self.removed: list[tuple[int, Clause]] = []


class Cnf:
    """A conjunction of clauses with a per-variable occurrence index.

    The index (variable -> clause positions) makes the two hot operations of
    the inference cheap: collecting the clauses that mention the flags of a
    substituted type variable (expansion, Def. 2) and projecting the formula
    onto the live flags (stale-variable GC, Sect. 6).
    """

    __slots__ = (
        "_clauses", "_index", "_clause_set", "_unsat", "_revision", "_trail",
    )

    def __init__(self, clauses: Iterable[Iterable[Literal]] = ()) -> None:
        self._clauses: list[Optional[Clause]] = []
        self._index: dict[int, set[int]] = {}
        self._clause_set: set[Clause] = set()
        self._unsat = False
        # Bumped on every *non-monotonic* change (clause removal or storage
        # compaction).  Incremental consumers (repro.boolfn.engine) combine
        # it with a cursor into the append-only tail: while the revision is
        # unchanged, `clauses_from(cursor)` yields exactly the clauses added
        # since the cursor was taken; a revision bump invalidates cursors.
        self._revision = 0
        self._trail: Optional[UndoTrail] = None
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Conjoin one clause.  Tautologies and duplicates are dropped."""
        clause = normalize_clause(literals)
        if clause is not None:
            self.add_canonical(clause)

    def add_canonical(self, clause: Clause) -> None:
        """Conjoin a clause already in :func:`normalize_clause` form.

        Projection's resolvents and expansion's images are built
        canonical; this skips normalising them a second time.  Duplicates
        are dropped.
        """
        if clause in self._clause_set:
            return
        position = len(self._clauses)
        self._clauses.append(clause)
        self._clause_set.add(clause)
        index = self._index
        for lit in clause:
            positions = index.get(abs(lit))
            if positions is None:
                index[abs(lit)] = {position}
            else:
                positions.add(position)

    def add_unit(self, literal: Literal) -> None:
        """Assert a single literal (``f`` or ``-f``)."""
        self.add_clause((literal,))

    def add_implication(self, premise: Literal, conclusion: Literal) -> None:
        """Conjoin ``premise -> conclusion`` (i.e. ``-premise \\/ conclusion``).

        Self-implications ``f -> f`` are tautologies and are dropped.
        """
        self.add_clause((-premise, conclusion))

    def add_iff(self, left: Literal, right: Literal) -> None:
        """Conjoin ``left <-> right`` as two implications."""
        self.add_implication(left, right)
        self.add_implication(right, left)

    def add_sequence_implication(
        self, premises: Iterable[Literal], conclusions: Iterable[Literal]
    ) -> None:
        """Lifted implication on literal sequences (Sect. 2.3).

        ``<a1..an> => <b1..bn>  ==  a1->b1 /\\ ... /\\ an->bn`` where the
        ``ai``/``bi`` are *literals*; a negated flag in contravariant
        position simply flips the direction of the generated 2-clause.
        """
        premises = tuple(premises)
        conclusions = tuple(conclusions)
        if len(premises) != len(conclusions):
            raise ValueError(
                f"sequence implication over unequal lengths: "
                f"{len(premises)} vs {len(conclusions)}"
            )
        for premise, conclusion in zip(premises, conclusions):
            self.add_implication(premise, conclusion)

    def add_sequence_iff(
        self, left: Iterable[Literal], right: Iterable[Literal]
    ) -> None:
        """Lifted bi-implication ``s1 <=> s2`` on literal sequences."""
        left = tuple(left)
        right = tuple(right)
        self.add_sequence_implication(left, right)
        self.add_sequence_implication(right, left)

    def conjoin(self, other: "Cnf") -> None:
        """Conjoin all clauses of ``other`` into this formula."""
        if other._unsat:
            self._unsat = True
        for clause in other.clauses():
            self.add_clause(clause)

    def mark_unsat(self) -> None:
        """Record that the formula is unsatisfiable (an empty clause)."""
        self._unsat = True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def known_unsat(self) -> bool:
        """True if an empty clause was derived (definitely unsatisfiable)."""
        return self._unsat

    def clauses(self) -> Iterator[Clause]:
        """Iterate over the live clauses."""
        return (c for c in self._clauses if c is not None)

    @property
    def revision(self) -> int:
        """Generation counter for non-monotonic changes.

        Unchanged revision guarantees the formula only *grew* since a
        cursor was taken with :meth:`cursor`/:meth:`clauses_from`.
        """
        return self._revision

    def cursor(self) -> int:
        """Opaque position marking the current end of the clause log."""
        return len(self._clauses)

    def clauses_from(self, start: int) -> tuple[list[Clause], int]:
        """Live clauses appended at or after ``start``, plus a new cursor.

        Only meaningful while :attr:`revision` is unchanged since ``start``
        was obtained.
        """
        added = [c for c in self._clauses[start:] if c is not None]
        return added, len(self._clauses)

    def __len__(self) -> int:
        return len(self._clause_set)

    def __iter__(self) -> Iterator[Clause]:
        return self.clauses()

    def variables(self) -> set[int]:
        """The set of propositional variables with at least one occurrence."""
        return {v for v, positions in self._index.items() if positions}

    def occurrences(self, variable: int) -> int:
        """Number of live clauses mentioning ``variable``."""
        return len(self._index.get(variable, ()))

    def binary_partners(self, variable: int) -> set[int]:
        """Variables sharing a binary clause with ``variable``."""
        clauses = self._clauses
        partners: set[int] = set()
        for position in self._index.get(variable, ()):
            clause = clauses[position]
            if len(clause) == 2:
                a, b = clause
                partners.add(abs(b) if abs(a) == variable else abs(a))
        return partners

    def clauses_mentioning(self, variables: Iterable[int]) -> list[Clause]:
        """All clauses containing at least one of ``variables``."""
        positions: set[int] = set()
        for var in variables:
            positions |= self._index.get(var, set())
        result = []
        for position in sorted(positions):
            clause = self._clauses[position]
            if clause is not None:
                result.append(clause)
        return result

    def copy(self) -> "Cnf":
        """An independent copy of this formula."""
        other = Cnf()
        other._clauses = list(self._clauses)
        other._index = {v: set(ps) for v, ps in self._index.items()}
        other._clause_set = set(self._clause_set)
        other._unsat = self._unsat
        other._revision = self._revision
        return other

    # ------------------------------------------------------------------
    # undo trail (diagnostics on the pre-elimination formula)
    # ------------------------------------------------------------------
    def start_trail(self) -> UndoTrail:
        """Record every removal from now on, until :meth:`stop_trail`.

        Between the two only clauses may be appended and removed (no
        :meth:`compact`); :meth:`rebuilt` then recovers the formula as it
        is now.
        """
        self._trail = UndoTrail(len(self._clauses), self._unsat, self._revision)
        return self._trail

    def stop_trail(self) -> None:
        """Stop recording removals."""
        self._trail = None

    def rebuilt(self, trail: UndoTrail) -> "Cnf":
        """The formula as it was when ``trail`` started.

        Equal to a :meth:`copy` taken then: the same clauses at the same
        positions (tombstones included), the same ``known_unsat`` and
        revision.  Clauses appended since are dropped and removed ones put
        back.
        """
        clauses = self._clauses[: trail.length]
        for position, clause in trail.removed:
            if position < trail.length:
                clauses[position] = clause
        other = Cnf()
        other._clauses = clauses
        other._unsat = trail.unsat
        other._revision = trail.revision
        index = other._index
        for position, clause in enumerate(clauses):
            if clause is None:
                continue
            other._clause_set.add(clause)
            for lit in clause:
                index.setdefault(abs(lit), set()).add(position)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._unsat:
            return "Cnf(UNSAT)"
        return f"Cnf({sorted(self._clause_set)})"

    # ------------------------------------------------------------------
    # removal (used by projection / GC)
    # ------------------------------------------------------------------
    def remove_clauses_mentioning(self, variables: Iterable[int]) -> list[Clause]:
        """Remove and return every clause mentioning one of ``variables``."""
        index = self._index
        positions: set[int] = set()
        for var in variables:
            found = index.get(var)
            if found:
                positions |= found
        if not positions:
            return []
        clauses = self._clauses
        clause_set = self._clause_set
        trail = self._trail
        removed = []
        for position in sorted(positions):
            clause = clauses[position]
            removed.append(clause)
            if trail is not None:
                trail.removed.append((position, clause))
            clauses[position] = None
            clause_set.discard(clause)
            for lit in clause:
                index[abs(lit)].discard(position)
        self._revision += 1
        return removed

    def compact(self, force: bool = True) -> None:
        """Rebuild internal storage, dropping tombstones left by removal.

        With ``force=False`` the rebuild only happens when tombstones
        outnumber live clauses (amortised cleanup for the GC hot path).
        """
        live = [c for c in self._clauses if c is not None]
        if not force and len(self._clauses) < 2 * len(live) + 16:
            return
        if self._trail is not None:
            raise RuntimeError("compact() would invalidate the undo trail")
        self._revision += 1
        self._clauses = []
        self._index = {}
        self._clause_set = set()
        for clause in live:
            position = len(self._clauses)
            self._clauses.append(clause)
            self._clause_set.add(clause)
            for lit in clause:
                self._index.setdefault(abs(lit), set()).add(position)

    # ------------------------------------------------------------------
    # semantics (small-scale; used by tests and the reference oracle)
    # ------------------------------------------------------------------
    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Evaluate under a total assignment (missing variables are false)."""
        if self._unsat:
            return False
        for clause in self.clauses():
            if not any(
                assignment.get(abs(lit), False) == (lit > 0) for lit in clause
            ):
                return False
        return True

    def models(self, over: Optional[Iterable[int]] = None) -> list[frozenset[int]]:
        """Enumerate all models as sets of true variables.

        ``over`` fixes the vocabulary; it defaults to :meth:`variables`.
        Exponential — only for tests on small formulas.
        """
        variables = sorted(set(over) if over is not None else self.variables())
        if self._unsat:
            return []
        result = []
        for mask in range(1 << len(variables)):
            assignment = {
                v: bool(mask >> i & 1) for i, v in enumerate(variables)
            }
            if self.evaluate(assignment):
                result.append(
                    frozenset(v for v, value in assignment.items() if value)
                )
        return result


def substitute_literals(
    clause: Clause, mapping: dict[int, Literal]
) -> Optional[Clause]:
    """Apply a variable -> literal substitution to one clause.

    A positive occurrence of variable ``v`` becomes ``mapping[v]``; a negative
    occurrence becomes the negation of ``mapping[v]``.  Variables absent from
    the mapping stay put.  Returns ``None`` if the result is a tautology.
    """
    out = []
    for lit in clause:
        var = abs(lit)
        if var in mapping:
            image = mapping[var]
            out.append(image if lit > 0 else -image)
        else:
            out.append(lit)
    return normalize_clause(out)
