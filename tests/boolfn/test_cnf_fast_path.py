"""The unit/binary fast path of the CNF kernel against its contract.

* :func:`normalize_clause` canonicalises unit and binary clauses without
  the general set-and-sort path; over tuples, lists and generators it must
  agree with the reference below on every input, illegal ones included.
* Stale-flag elimination records what it removes instead of copying β up
  front; the formula rebuilt from that undo trail must equal a copy taken
  before the eliminations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolfn.cnf import Cnf, normalize_clause
from repro.boolfn.projection import eliminate_variable


def reference_normalize(literals):
    """Remove duplicates, sort by ``(abs, lit)``; ``None`` for a
    tautology; ``ValueError`` for the literal 0 or an empty clause."""
    literals = list(literals)
    if not literals or 0 in literals:
        raise ValueError
    unique = set(literals)
    if any(-lit in unique for lit in unique):
        return None
    return tuple(sorted(unique, key=lambda lit: (abs(lit), lit)))


small_literals = st.lists(st.integers(-4, 4), max_size=5)
containers = st.sampled_from(("tuple", "list", "generator"))


def _as(container, literals):
    if container == "tuple":
        return tuple(literals)
    if container == "list":
        return list(literals)
    return (lit for lit in literals)


@settings(max_examples=500, deadline=None)
@given(small_literals, containers)
def test_normalize_clause_agrees_with_the_reference(literals, container):
    try:
        expected = reference_normalize(literals)
    except ValueError:
        with pytest.raises(ValueError):
            normalize_clause(_as(container, literals))
        return
    assert normalize_clause(_as(container, literals)) == expected


@pytest.mark.parametrize(
    "literals, expected",
    [
        ((3,), (3,)),
        ((-3,), (-3,)),
        ((2, -1), (-1, 2)),
        ((-1, 2), (-1, 2)),
        ((5, 5), (5,)),
        ((4, -4), None),
    ],
)
def test_unit_and_binary_examples(literals, expected):
    assert normalize_clause(literals) == expected


@pytest.mark.parametrize("literals", [(), (0,), (0, 1), (1, 0), (1, -1, 0)])
def test_illegal_input_raises(literals):
    with pytest.raises(ValueError):
        normalize_clause(literals)


variables = st.integers(1, 7)
literal = st.builds(lambda v, positive: v if positive else -v,
                    variables, st.booleans())
clauses = st.lists(literal, min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(clauses, max_size=14),
    st.lists(clauses, max_size=4),
    st.sets(variables, max_size=5),
)
def test_trail_rebuilds_the_pre_elimination_formula(
    before, removed_earlier, dead
):
    beta = Cnf(before)
    # Tombstones from an earlier removal must come back where they were.
    for clause in removed_earlier:
        beta.add_clause(clause)
    if removed_earlier:
        beta.remove_clauses_mentioning({abs(removed_earlier[0][0])})
    snapshot = beta.copy()
    trail = beta.start_trail()
    for variable in sorted(dead):
        eliminate_variable(beta, variable)
    beta.stop_trail()
    rebuilt = beta.rebuilt(trail)
    assert list(rebuilt.clauses()) == list(snapshot.clauses())
    assert rebuilt.variables() == snapshot.variables()
    assert rebuilt.known_unsat == snapshot.known_unsat
    assert len(rebuilt) == len(snapshot)
    assert rebuilt.cursor() == snapshot.cursor()
    assert rebuilt.revision == snapshot.revision
    # Positions survive too: the clause log read from any cursor agrees.
    for start in range(snapshot.cursor() + 1):
        assert rebuilt.clauses_from(start) == snapshot.clauses_from(start)


def test_trail_records_retraction_and_refuses_compaction():
    beta = Cnf([(1, 2), (-2, 3)])
    trail = beta.start_trail()
    beta.remove_clauses_mentioning({1})
    beta.add_clause((4,))
    with pytest.raises(RuntimeError):
        beta.compact()
    beta.stop_trail()
    assert list(beta.rebuilt(trail).clauses()) == [(1, 2), (-2, 3)]
    beta.remove_clauses_mentioning({3})
    assert trail.removed == [(0, (1, 2))]  # stopped trails stay put
