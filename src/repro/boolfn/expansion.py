"""Expansion of flow information (Definition 2 of the paper).

When a substitution ``[a/t]`` is applied to a flagged type, every occurrence
of the type variable ``a`` carried a flag, and the flow recorded between
those occurrence flags has to be *replicated* onto the flags of the term
``t`` that replaces them (Sect. 2.4).  Definition 2 makes this precise:

    expand_{f1..fn, f'1..f'n}(β) = β ∧ σ(c1) ∧ ... ∧ σ(ck)

where ``c1..ck`` are the clauses of β that mention at least one of the
``fi`` and ``σ = [f1/f'1, ..., fn/f'n]``.

Two refinements from the paper are honoured here:

* the replacement images ``f'i`` are *literals*, not variables: when an
  occurrence flag is expanded onto a flag in contravariant (argument)
  position, the image is negated, replicating the contra-variant behaviour
  (Ex. 3);
* clauses that mention *stale* flags (flags no longer attached to any live
  type position) must have been garbage-collected beforehand, otherwise
  expansion links unrelated instances through the stale flag — the bug
  described in Sect. 6.  GC is provided by :mod:`repro.boolfn.projection`.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cnf import Cnf, Literal, substitute_literals


def expand(beta: Cnf, olds: Sequence[int], news: Sequence[Literal]) -> None:
    """Replicate the flow of variables ``olds`` onto literals ``news``.

    Mutates ``beta`` in place by conjoining ``σ(c)`` for every clause ``c``
    mentioning one of ``olds``, where ``σ`` maps ``olds[i]`` (a variable) to
    ``news[i]`` (a literal; a negative literal flips the polarity of each
    substituted occurrence).  The original clauses are kept, exactly as in
    Definition 2 — removing the old flags afterwards is the separate
    projection step of ``applyS`` (Fig. 4).
    """
    if len(olds) != len(news):
        raise ValueError(
            f"expansion arity mismatch: {len(olds)} old vs {len(news)} new"
        )
    if any(old <= 0 for old in olds):
        raise ValueError("old flags must be positive variables")
    mapping = dict(zip(olds, news))
    if len(mapping) != len(olds):
        raise ValueError("old flags must be pairwise distinct")
    for clause in beta.clauses_mentioning(olds):
        image = substitute_literals(clause, mapping)
        if image is not None:
            beta.add_canonical(image)


def expand_many(
    beta: Cnf, olds: Sequence[int], columns: Sequence[Sequence[Literal]]
) -> None:
    """Apply one expansion per column of replacement literals.

    ``applyS`` (Fig. 4) peels one flag position off each replacement term at
    a time and expands the occurrence flags onto that column; this helper
    runs all the columns.
    """
    for news in columns:
        expand(beta, olds, news)
