"""The presence-atom solver of the set-theoretic rows engine.

Where the flow engine keeps a CNF formula β over Boolean flags and asks
a SAT engine whether it stays satisfiable, ``setrows`` keeps its
presence knowledge in the MLsub/biunification style (arXiv 2407.06747):
constraints are *directional* and closed under unit propagation as they
arrive, so every conflict is discovered at the constraint that caused
it and comes with a witness chain for diagnostics.

The constraint language is deliberately small — exactly what the record
rules of the engine emit:

* ``require(a)`` / ``forbid(a)`` — unit facts ("this field is
  selected" / "this record is created empty", "this field was
  removed");
* ``imply(a, b)`` — a one-directional flow edge (a join result's field
  is present only if the branch's field is);
* ``equate(a, b)`` — both directions, emitted when unification aligns
  two field or row positions;
* ``imply_any(a, alts)`` — the concatenation rule's ``f3 → f1 ∨ f2``;
* ``forbid_together(a, b)`` — symmetric concatenation's "sharing a
  field is an error".

Propagation: truth flows forward along ``imply`` edges, falsity flows
backward (modus tollens), and disjunctions unit-propagate.  An atom
forced both ways raises :class:`PresenceConflict` carrying both root
reasons; the inference layer turns that into a stable-coded
:class:`~repro.infer.errors.InferenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ...lang.ast import Span


@dataclass(frozen=True)
class Reason:
    """Why an atom was forced: message text, source span, field label."""

    text: str
    span: Optional[Span] = None
    label: Optional[str] = None


class PresenceConflict(Exception):
    """An atom is required and forbidden at once (ill-typed program)."""

    def __init__(self, atom: int, required: Reason, forbidden: Reason
                 ) -> None:
        self.atom = atom
        self.required = required
        self.forbidden = forbidden
        super().__init__(
            f"presence conflict on atom {atom}: "
            f"{required.text} / {forbidden.text}"
        )


#: Evidence for a forced atom: either a root :class:`Reason` or the
#: atom it was propagated from.
_Evidence = object


class PresenceSolver:
    """Incremental unit propagation over presence atoms."""

    def __init__(self) -> None:
        # atom -> evidence (Reason for roots, int parent for derived)
        self._true: dict[int, _Evidence] = {}
        self._false: dict[int, _Evidence] = {}
        # root constraints, kept for inheritance replay
        self._required: dict[int, Reason] = {}
        self._forbidden: dict[int, Reason] = {}
        self._fwd: dict[int, set[int]] = {}
        self._bwd: dict[int, set[int]] = {}
        # premise -> tuple of alternatives (premise → alt1 ∨ alt2 ∨ …)
        self._disjunctions: list[tuple[int, tuple[int, ...]]] = []
        # neither atom of a pair may be true alongside the other
        self._exclusions: list[tuple[int, int]] = []

    # -- constraint entry points -----------------------------------------
    def require(self, atom: int, reason: Reason) -> None:
        self._required.setdefault(atom, reason)
        self._set_true(atom, reason)

    def forbid(self, atom: int, reason: Reason) -> None:
        self._forbidden.setdefault(atom, reason)
        self._set_false(atom, reason)

    def imply(self, a: int, b: int) -> None:
        """``a → b``: if a is present, b must be."""
        if a == b:
            return
        if b in self._fwd.setdefault(a, set()):
            return
        self._fwd[a].add(b)
        self._bwd.setdefault(b, set()).add(a)
        if a in self._true:
            self._set_true(b, a)
        if b in self._false:
            self._set_false(a, b)

    def equate(self, a: int, b: int) -> None:
        """Alias two aligned positions (presence must agree)."""
        self.imply(a, b)
        self.imply(b, a)

    def imply_any(self, premise: int, alts: Iterable[int]) -> None:
        entry = (premise, tuple(alts))
        self._disjunctions.append(entry)
        self._check_disjunction(entry)

    def forbid_together(self, a: int, b: int) -> None:
        self._exclusions.append((a, b))
        self._check_exclusion((a, b))

    def inherit(self, child: int, parent: int) -> None:
        """Replay ``parent``'s current *forced state* onto ``child``.

        The setrows analogue of the flow engine's clause expansion at
        materialisation: a field rewritten out of a row tail inherits
        what is known about the tail (``{}``'s forbid reaches every
        field later materialised from its row).  Only unit facts are
        inherited — the tail's implication edges describe the *rest* of
        the record, which the materialised field no longer belongs to;
        its ongoing presence flows through field-level alignment
        instead.
        """
        if child == parent:
            return
        if parent in self._true:
            self.require(child, self._root_reason(parent, self._true))
        if parent in self._false:
            self.forbid(child, self._root_reason(parent, self._false))

    # -- propagation -----------------------------------------------------
    def _set_true(self, atom: int, evidence: _Evidence) -> None:
        if atom in self._true:
            return
        if atom in self._false:
            raise PresenceConflict(
                atom,
                self._explain(atom, evidence, self._true),
                self._root_reason(atom, self._false),
            )
        self._true[atom] = evidence
        for target in tuple(self._fwd.get(atom, ())):
            self._set_true(target, atom)
        for entry in list(self._disjunctions):
            if entry[0] == atom:
                self._check_disjunction(entry)
        for pair in list(self._exclusions):
            if atom in pair:
                self._check_exclusion(pair)

    def _set_false(self, atom: int, evidence: _Evidence) -> None:
        if atom in self._false:
            return
        if atom in self._true:
            raise PresenceConflict(
                atom,
                self._root_reason(atom, self._true),
                self._explain(atom, evidence, self._false),
            )
        self._false[atom] = evidence
        for source in tuple(self._bwd.get(atom, ())):
            self._set_false(source, atom)
        for entry in list(self._disjunctions):
            if atom in entry[1]:
                self._check_disjunction(entry)

    def _check_disjunction(self, entry: tuple[int, tuple[int, ...]]
                           ) -> None:
        premise, alts = entry
        if any(alt in self._true for alt in alts):
            return
        open_alts = [alt for alt in alts if alt not in self._false]
        if not open_alts:
            # every alternative is ruled out, so the premise cannot
            # hold either (backward unit propagation: the conflict
            # surfaces if the premise is — or later becomes — required)
            if premise in self._true:
                raise PresenceConflict(
                    premise,
                    self._root_reason(premise, self._true),
                    Reason("every source of the field is absent"),
                )
            self._set_false(premise, alts[0] if alts else premise)
            return
        if premise not in self._true:
            return
        if len(open_alts) == 1:
            self._set_true(open_alts[0], premise)

    def _check_exclusion(self, pair: tuple[int, int]) -> None:
        a, b = pair
        if a in self._true and b in self._true:
            raise PresenceConflict(
                a,
                self._root_reason(a, self._true),
                Reason("the field is present on both sides of a "
                       "symmetric concatenation"),
            )

    # -- witness reconstruction ------------------------------------------
    def _root_reason(self, atom: int, table: dict[int, _Evidence]
                     ) -> Reason:
        seen = set()
        while atom not in seen:
            seen.add(atom)
            evidence = table.get(atom)
            if isinstance(evidence, Reason):
                return evidence
            if isinstance(evidence, int):
                atom = evidence
                continue
            break
        return Reason("presence constraint")

    def _explain(self, atom: int, evidence: _Evidence,
                 table: dict[int, _Evidence]) -> Reason:
        if isinstance(evidence, Reason):
            return evidence
        if isinstance(evidence, int):
            return self._root_reason(evidence, table)
        return Reason("presence constraint")

    # -- projection (signature export) -----------------------------------
    def project(self, atoms: set[int]
                ) -> tuple[tuple[tuple[int, bool], ...],
                           tuple[tuple[int, int], ...]]:
        """The constraints among ``atoms``, for scheme export.

        The analogue of the flow engine's β-projection onto signature
        flags (Sect. 5): unit facts for forced atoms, plus every
        implication between two signature atoms that holds through the
        edge graph (paths may pass through internal atoms).
        """
        units = []
        for atom in sorted(atoms):
            if atom in self._true:
                units.append((atom, True))
            elif atom in self._false:
                units.append((atom, False))
        implications = set()
        for source in atoms:
            reached = set()
            queue = [source]
            while queue:
                current = queue.pop()
                for target in self._fwd.get(current, ()):
                    if target in reached:
                        continue
                    reached.add(target)
                    queue.append(target)
            for target in reached:
                if target != source and target in atoms:
                    implications.add((source, target))
        return tuple(units), tuple(sorted(implications))
