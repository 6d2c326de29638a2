"""Exception safety of the incremental engine: ``SatEngine.reset``.

The engine keeps derived state (backend, ingestion cursor, cached
result) synchronised with its attached :class:`Cnf` lazily.  An
exception thrown out of a query — an injected fault, a
``BudgetExceeded`` mid-CDCL-search — can interrupt that machinery
mid-update, and its caller may then *remove clauses while the exception
unwinds* (``Cnf.remove_clauses_mentioning``, the removal β performs).
``reset`` is the recovery hook: drop everything derived, keep the
formula, rebuild from ground truth on the next query.

The regression here pins that hazard: add clauses → exception inside
solve → remove them → after ``reset`` the next query must agree with a
fresh engine.
"""

import pytest

from repro.boolfn import Cnf
from repro.boolfn.engine import SatEngine
from repro.testing.faults import FaultError, FaultRule, injected
from repro.util import Budget, BudgetExceeded

#: A general-class (non-Horn, non-2SAT, non-dual-Horn) formula: three
#: positive 3-clauses plus mixed binaries, satisfiable.
GENERAL = [(1, 2, 3), (-1, -2, 4), (2, 3, 5), (-4, -5, 1), (-3, -1, -2)]


def engine_with(clauses):
    cnf = Cnf()
    engine = SatEngine(cnf)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf, engine


class TestReset:
    def test_reset_keeps_the_formula_and_answer(self):
        _, engine = engine_with(GENERAL)
        before = engine.solve()
        assert before is not None
        engine.reset()
        after = engine.solve()
        assert after is not None
        assert engine.stats().rebuilds >= 1

    def test_reset_is_idempotent(self):
        _, engine = engine_with(GENERAL)
        engine.solve()
        engine.reset()
        engine.reset()
        assert engine.solve() is not None

    def test_reset_after_budget_exhaustion_mid_search(self):
        _, engine = engine_with(GENERAL)
        engine.budget = Budget(solver_steps=1)
        with pytest.raises(BudgetExceeded):
            # One step is not enough for ingestion + a CDCL query.
            engine.solve()
            engine.solve()
        engine.budget = None
        engine.reset()
        assert engine.solve() is not None

    def test_reset_after_injected_fault(self):
        _, engine = engine_with(GENERAL)
        with injected([FaultRule("engine.solve", 1.0, "error", limit=1)]):
            with pytest.raises(FaultError):
                engine.solve()
        engine.reset()
        assert engine.solve() is not None


class TestRetractionDuringUnwind:
    """The add → exception → remove regression."""

    def _interrupted_retract(self, engine, cnf):
        """Add clauses on a fresh variable 6, die inside solve, remove
        them while unwinding."""
        cnf.add_clause((6, 7))
        cnf.add_clause((-6, 8))
        try:
            with injected(
                [FaultRule("engine.solve", 1.0, "error", limit=1)]
            ):
                engine.solve()
        except FaultError:
            # Removal while the engine's derived state is suspect.
            cnf.remove_clauses_mentioning({6})

    def test_reset_then_solve_matches_fresh_engine(self):
        cnf, engine = engine_with(GENERAL)
        engine.solve()
        self._interrupted_retract(engine, cnf)
        engine.reset()
        recovered = engine.solve()

        fresh_cnf, fresh = engine_with(GENERAL)
        expected = fresh.solve()
        assert (recovered is None) == (expected is None)
        assert recovered is not None  # GENERAL is satisfiable
        assert engine.formula_class() == fresh.formula_class()

    def test_retraction_is_idempotent_after_reset(self):
        cnf, engine = engine_with(GENERAL)
        engine.solve()
        self._interrupted_retract(engine, cnf)
        engine.reset()
        # Removing the same (already-tombstoned) clauses again must
        # change nothing: positions never shift, removal is final.
        assert cnf.remove_clauses_mentioning({6}) == []
        assert engine.solve() is not None

    def test_unsat_interval_retracted_restores_sat(self):
        cnf, engine = engine_with(GENERAL)
        assert engine.solve() is not None
        cnf.add_clause((9,))
        cnf.add_clause((-9,))
        assert engine.solve() is None
        try:
            with injected(
                [FaultRule("engine.solve", 1.0, "error", limit=1)]
            ):
                engine.solve()
        except FaultError:
            cnf.remove_clauses_mentioning({9})
        engine.reset()
        assert engine.solve() is not None
