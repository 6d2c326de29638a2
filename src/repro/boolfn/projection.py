"""Existential projection of Boolean functions by resolution.

A selling point of the paper's two-domain design (Sect. 1.1, Sect. 5) is
that Boolean functions — unlike implication-laden subtype constraint sets —
are *closed under projection onto a subset of variables*: the flow inferred
inside a function body can be projected onto the flags of the function's
type without losing precision, keeping inferred signatures small.

Projection ``∃f.(β)`` is implemented by Davis–Putnam variable elimination:
replace the clauses mentioning ``f`` by all non-tautological resolvents on
``f``.  For the 2-CNF formulas of the core inference this is quadratic in
the number of clauses touching ``f`` and keeps the formula in 2-CNF; for
general CNF it may grow, which is the paper's point about symmetric
concatenation being more costly.

The same operation implements the *stale-flag garbage collection* the paper
found necessary for the correctness of expansion (Sect. 6): project the flow
onto the flags still attached to live type positions.
"""

from __future__ import annotations

from collections.abc import Iterable

from .cnf import Clause, Cnf, normalize_clause


def eliminate_variable(beta: Cnf, variable: int) -> None:
    """Replace clauses mentioning ``variable`` by their resolvents.

    Mutates ``beta``; afterwards ``variable`` no longer occurs.  If a pair of
    unit clauses resolves to the empty clause the formula is marked
    unsatisfiable.
    """
    if not beta.occurrences(variable):
        return
    negated = -variable
    # What each clause keeps besides the eliminated literal, split by the
    # literal's sign; unit and binary clauses are split directly.
    positives: list[Clause] = []
    negatives: list[Clause] = []
    for clause in beta.remove_clauses_mentioning((variable,)):
        if len(clause) == 2:
            a, b = clause
            if a == variable:
                positives.append((b,))
            elif a == negated:
                negatives.append((b,))
            elif b == variable:
                positives.append((a,))
            else:
                negatives.append((a,))
        elif len(clause) == 1:
            (positives if clause[0] == variable else negatives).append(())
        elif variable in clause:
            positives.append(tuple(lit for lit in clause if lit != variable))
        else:
            negatives.append(tuple(lit for lit in clause if lit != negated))
    for rest_pos in positives:
        for rest_neg in negatives:
            rest = rest_pos + rest_neg
            if not rest:
                beta.mark_unsat()
                return
            resolvent = normalize_clause(rest)
            if resolvent is not None:
                beta.add_canonical(resolvent)


def project_onto(beta: Cnf, live: Iterable[int]) -> None:
    """Existentially eliminate every variable of ``beta`` not in ``live``.

    Variables with fewer occurrences are eliminated first, which keeps the
    intermediate blow-up small on the implication-shaped formulas the
    inference produces.  ``beta`` is compacted afterwards.
    """
    live_set = set(live)
    while True:
        dead = [v for v in beta.variables() if v not in live_set]
        if not dead:
            break
        dead.sort(key=beta.occurrences)
        for variable in dead:
            eliminate_variable(beta, variable)
            if beta.known_unsat:
                beta.compact(force=False)
                return
    beta.compact(force=False)


def projected(beta: Cnf, live: Iterable[int]) -> Cnf:
    """Non-destructive variant of :func:`project_onto`."""
    result = beta.copy()
    project_onto(result, live)
    return result
