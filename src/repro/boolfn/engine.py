"""Incremental satisfiability engine with unified solver dispatch.

The paper's Sect. 5 complexity ladder assigns every record operation a
Boolean fragment — 2-SAT, (dual-)Horn, or general CNF — and the inference
re-checks satisfiability of the growing flow formula β after batches of
emitted constraints.  Solving each query from scratch costs O(formula)
even in the linear fragments; :class:`SatEngine` makes the checks
incremental in the style of MiniSat's assumption-based interface:

* **dispatch** — the engine classifies clauses as they arrive (via the
  per-clause profiles of :mod:`repro.boolfn.classify`) and lazily
  *upgrades* from the 2-SAT solver through (dual-)Horn to CDCL the moment
  an emitted clause leaves the current fragment; a formula never moves
  back to a cheaper class while it grows,
* **incrementality** — between queries the linear fragments keep their
  implication graph / Dowling–Gallier counters and the CDCL backend keeps
  its learnt clauses, watched literals, activities and saved phases, so a
  query after k new clauses costs O(k) plus any new search, not O(formula),
* **telemetry** — every query updates a :class:`SolverStats` record
  (dispatch class, conflicts, propagations, restarts, cache hits, wall
  time) consumed by ``repro.cli --solver-stats`` and the benchmark suite.

The engine attaches to a :class:`~repro.boolfn.cnf.Cnf` and tracks it
through the revision/cursor protocol: while the formula only grows, new
clauses are ingested incrementally; a destructive change (the stale-flag
GC's projection, Sect. 6) bumps the revision and triggers one rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .cdcl import _Solver as _CdclSolver
from .cdcl import unsat_core_cdcl
from .classify import (
    CLASS_RANK,
    FormulaClass,
    class_of_profile,
    clause_profile,
)
from .classify import solve as _solve_dispatch
from .cnf import Clause, Cnf, Literal
from .hornsat import IncrementalHorn
from .twosat import IncrementalTwoSat
from .twosat import unsat_core_2sat
from ..testing.faults import fault_point


@dataclass
class SolverStats:
    """Per-engine telemetry; cumulative over the engine's lifetime."""

    queries: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    #: Class used by the most recent query.
    dispatch_class: str = FormulaClass.TWO_SAT.value
    #: Queries answered by each class.
    dispatch_counts: dict[str, int] = field(
        default_factory=lambda: {c.value: 0 for c in FormulaClass}
    )
    clauses_ingested: int = 0
    #: Times the classification left a fragment and the backend was rebuilt
    #: into the next class.
    upgrades: int = 0
    #: Full rebuilds forced by destructive Cnf changes (GC projection).
    rebuilds: int = 0
    #: Queries answered from a still-valid cached result without running
    #: the backend solver.
    cache_hits: int = 0
    #: Deltas absorbed by extending the cached model over fresh variables
    #: (no backend query needed despite new clauses).
    model_extensions: int = 0
    # CDCL search counters (zero while the formula stays linear).
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    decisions: int = 0
    # Unsat-core extraction (diagnostics engine).
    #: Cores extracted via :meth:`SatEngine.unsat_core`.
    cores: int = 0
    #: Total clauses across all extracted (minimized) cores.
    core_clauses: int = 0
    #: Satisfiability re-queries spent by deletion-based minimization.
    core_minimize_queries: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (used by --solver-stats and the benchmarks)."""
        out: dict[str, object] = dict(vars(self))
        out["dispatch_counts"] = dict(self.dispatch_counts)
        return out

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Fold ``other`` into this record in place (and return ``self``).

        The batch checker and the serving daemon aggregate the telemetry
        of many per-declaration engines; every numeric counter is summed,
        ``dispatch_counts`` is summed key-wise, and ``dispatch_class``
        becomes the *costliest* class either side dispatched to — the
        number a fleet-wide rollup cares about.
        """
        for name in (
            "queries", "sat_answers", "unsat_answers", "clauses_ingested",
            "upgrades", "rebuilds", "cache_hits", "model_extensions",
            "conflicts", "propagations", "restarts", "decisions",
            "cores", "core_clauses", "core_minimize_queries",
            "wall_seconds",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, count in other.dispatch_counts.items():
            self.dispatch_counts[key] = (
                self.dispatch_counts.get(key, 0) + count
            )
        rank = {c.value: CLASS_RANK[c] for c in FormulaClass}
        if rank.get(other.dispatch_class, 0) > rank.get(
            self.dispatch_class, 0
        ):
            self.dispatch_class = other.dispatch_class
        return self

    @classmethod
    def merged(cls, stats: "Iterable[Optional[SolverStats]]") -> "SolverStats":
        """A fresh rollup of every non-``None`` record in ``stats``."""
        total = cls()
        for record in stats:
            if record is not None:
                total.merge(record)
        return total


class SatEngine:
    """Incremental satisfiability checks over one growing CNF formula.

    ``SatEngine(cnf)`` attaches to an existing formula (the inference's β);
    ``SatEngine()`` owns a fresh one, grown through :meth:`add_clause`.
    Queries (:meth:`solve`, :meth:`is_satisfiable`) first synchronise with
    the formula — ingesting appended clauses, upgrading the backend when
    the fragment changed, rebuilding when clauses were removed — and then
    ask the cheapest applicable solver.
    """

    def __init__(self, cnf: Optional[Cnf] = None) -> None:
        self.cnf = cnf if cnf is not None else Cnf()
        self._stats = SolverStats()
        #: Optional per-request resource budget (``repro.util.Budget``).
        #: Charged with CDCL search steps, one step per linear-fragment
        #: query, and one ``core_queries`` unit per minimization re-query.
        self.budget = None
        self._reset()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_clause(self, literals: "list[Literal] | Clause") -> None:
        """Conjoin one clause to the attached formula.

        Equivalent to ``self.cnf.add_clause``; the clause is picked up by
        the next query's synchronisation pass.
        """
        self.cnf.add_clause(literals)

    # ------------------------------------------------------------------
    # synchronisation with the attached formula
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        """Forget all solver state; re-ingest from the formula's start."""
        self._revision = self.cnf.revision
        self._cursor = 0
        self._ingested: list[Clause] = []
        self._two = True
        self._horn = True
        self._dual = True
        self._class = FormulaClass.TWO_SAT
        self._backend: object = IncrementalTwoSat()
        self._result: Optional[dict[int, bool]] = None
        self._result_valid = False
        # Variables occurring in the ingested clauses; a variable outside
        # this set is *fresh* and can be assigned freely without affecting
        # any earlier clause (the model-extension shortcut relies on this).
        self._seen_vars: set[int] = set()

    def _sync(self) -> None:
        if self.cnf.revision != self._revision:
            # Clauses were removed (GC projection / compaction): cursors
            # are invalid and cheaper classes may have become reachable
            # again, so rebuild from scratch.
            self._reset()
            self._stats.rebuilds += 1
        added, self._cursor = self.cnf.clauses_from(self._cursor)
        if not added:
            return
        self._stats.clauses_ingested += len(added)
        self._absorb_delta(added)
        two, horn, dual = self._two, self._horn, self._dual
        for clause in added:
            c_two, c_horn, c_dual = clause_profile(clause)
            two = two and c_two
            horn = horn and c_horn
            dual = dual and c_dual
        self._two, self._horn, self._dual = two, horn, dual
        new_class = class_of_profile(two, horn, dual)
        if new_class is not self._class:
            assert CLASS_RANK[new_class] > CLASS_RANK[self._class]
            self._class = new_class
            self._stats.upgrades += 1
            self._backend = self._build_backend(new_class)
            for clause in self._ingested:
                self._feed(clause)
        # Feed-then-record per clause so `_ingested` never claims a clause
        # the backend has not absorbed — if a feed is interrupted by an
        # exception, :meth:`reset` (or the next revision bump) recovers.
        for clause in added:
            self._feed(clause)
            self._ingested.append(clause)
            for lit in clause:
                self._seen_vars.add(abs(lit))

    def _absorb_delta(self, added: list[Clause]) -> None:
        """Try to keep the cached query result valid across a clause delta.

        An UNSAT verdict is sticky while the formula only grows.  A cached
        model survives if every new clause is either already satisfied by
        it (unseen variables default to false) or can be satisfied by
        fixing a *fresh* variable — one no earlier clause mentions, so the
        assignment cannot falsify anything old.  Costs O(delta); on
        failure the next query falls through to the backend.
        """
        if not self._result_valid:
            return
        model = self._result
        if model is None:
            return  # sticky UNSAT
        extension: dict[int, bool] = {}
        for clause in added:
            satisfied = False
            free: Optional[int] = None
            for lit in clause:
                var = abs(lit)
                if var in model:
                    value = model[var]
                elif var in extension:
                    value = extension[var]
                elif var in self._seen_vars:
                    value = False  # the completion `_complete` reports
                else:
                    if free is None:
                        free = lit
                    continue
                if value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if free is None:
                self._result_valid = False
                return
            extension[abs(free)] = free > 0
        if extension:
            model.update(extension)
        self._stats.model_extensions += 1

    def _build_backend(self, formula_class: FormulaClass) -> object:
        if formula_class is FormulaClass.TWO_SAT:
            return IncrementalTwoSat()
        if formula_class is FormulaClass.HORN:
            return IncrementalHorn()
        if formula_class is FormulaClass.DUAL_HORN:
            return IncrementalHorn(flip=True)
        return _CdclSolver([], set())

    def _feed(self, clause: Clause) -> None:
        if isinstance(self._backend, _CdclSolver):
            self._backend.add_clause(list(clause))
        else:
            self._backend.add_clause(clause)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all derived solver state and re-ingest from scratch.

        The recovery hook for exception safety: an exception thrown out of
        a query (an injected fault, a :class:`~repro.util.BudgetExceeded`
        mid-CDCL-search, a ``KeyboardInterrupt``) can leave the backend
        and the ingestion cursor mid-update — as can a clause removal
        performed *while* such an exception unwinds.  ``reset``
        discards every derived structure (backend, cursor, cached result,
        fragment classification) while keeping the attached formula and
        the cumulative telemetry, so the next query rebuilds from the
        formula's ground truth.  Idempotent, and counted as a rebuild.
        """
        self._reset()
        self._stats.rebuilds += 1

    def formula_class(self) -> FormulaClass:
        """The cheapest class the current formula fits (synchronises)."""
        self._sync()
        return self._class

    def stats(self) -> SolverStats:
        """The engine's cumulative telemetry record."""
        return self._stats

    def solve(self) -> Optional[dict[int, bool]]:
        """A model over the formula's variables, or ``None`` if unsat."""
        stats = self._stats
        start = time.perf_counter()
        try:
            fault_point("engine.solve")
            if self.budget is not None:
                self.budget.check_time()
            self._sync()
            stats.queries += 1
            stats.dispatch_class = self._class.value
            stats.dispatch_counts[self._class.value] += 1
            if self.cnf.known_unsat:
                # An empty clause was derived outside the clause log
                # (Cnf.mark_unsat); no backend query needed.
                self._result = None
                self._result_valid = True
                stats.unsat_answers += 1
                return None
            if self._result_valid:
                stats.cache_hits += 1
                if self._result is None:
                    stats.unsat_answers += 1
                    return None
                stats.sat_answers += 1
                return self._complete(self._result)
            model = self._query_backend()
            self._result = model
            self._result_valid = True
            if model is None:
                stats.unsat_answers += 1
                return None
            stats.sat_answers += 1
            return self._complete(model)
        finally:
            stats.wall_seconds += time.perf_counter() - start

    def is_satisfiable(self) -> bool:
        """Incremental satisfiability of the attached formula."""
        return self.solve() is not None

    def unsat_core(self) -> Optional[list[Clause]]:
        """A minimal unsatisfiable subset of the formula's clauses.

        ``None`` while the formula is satisfiable.  When unsatisfiable,
        extraction dispatches on the formula class — implication-graph
        SCC paths (2-SAT), the Dowling–Gallier propagation trace
        ((dual-)Horn), or assumption-based final-conflict analysis
        (general CNF) — and the raw core is then *deletion-minimized*:
        the result is unsatisfiable and removing any single clause makes
        it satisfiable.  A formula marked unsat outside the clause log
        (:meth:`~repro.boolfn.cnf.Cnf.mark_unsat`) has no clause-level
        witness; the core is the empty list in that case.
        """
        if self.solve() is not None:
            return None
        stats = self._stats
        start = time.perf_counter()
        try:
            if self.cnf.known_unsat and _solve_dispatch(
                Cnf(self._ingested)
            ) is not None:
                # Unsat by external decree only (empty clause derived
                # outside the log): no subset of clauses witnesses it.
                stats.cores += 1
                return []
            core = self._extract_core()
            assert core is not None, "unsat formula must yield a core"
            core = self._minimize_core(core)
            stats.cores += 1
            stats.core_clauses += len(core)
            return core
        finally:
            stats.wall_seconds += time.perf_counter() - start

    def _extract_core(self) -> Optional[list[Clause]]:
        """Raw (unminimized) core from the current backend's refutation."""
        backend = self._backend
        if self._class is FormulaClass.TWO_SAT:
            return unsat_core_2sat(self._ingested)
        if isinstance(backend, IncrementalHorn):
            core = backend.unsat_core()
            if core is not None:
                return core
        # General formulas — and the defensive case of a Horn backend
        # without a usable trace — go through the selector encoding.
        return unsat_core_cdcl(self._ingested)

    def _minimize_core(self, core: list[Clause]) -> list[Clause]:
        """Deletion-based minimization: drop clauses that stay unsat.

        One pass suffices for single-deletion minimality: a subset of an
        already-satisfiable clause set is satisfiable, so every clause
        kept is necessary in the *final* core too.
        """
        kept = list(core)
        index = 0
        while index < len(kept):
            candidate = kept[:index] + kept[index + 1 :]
            self._stats.core_minimize_queries += 1
            if self.budget is not None:
                self.budget.charge_core_query()
            if _solve_dispatch(Cnf(candidate)) is None:
                kept = candidate
            else:
                index += 1
        return kept

    def _query_backend(self) -> Optional[dict[int, bool]]:
        backend = self._backend
        if isinstance(backend, _CdclSolver):
            before = (
                backend.conflicts,
                backend.propagations,
                backend.restarts,
                backend.decisions,
            )
            try:
                model = backend.solve(budget=self.budget)
            finally:
                self._stats.conflicts += backend.conflicts - before[0]
                self._stats.propagations += backend.propagations - before[1]
                self._stats.restarts += backend.restarts - before[2]
                self._stats.decisions += backend.decisions - before[3]
            return model
        if self.budget is not None:
            # The linear fragments solve in one bounded pass; a query is
            # one budget step (formula growth is what the clause ceiling
            # bounds).
            self.budget.charge_solver_steps(1)
        model = backend.solve()  # type: ignore[attr-defined]
        if backend.last_query_cached:  # type: ignore[attr-defined]
            self._stats.cache_hits += 1
        return model

    def _complete(self, model: dict[int, bool]) -> dict[int, bool]:
        """Extend a backend model to every variable of the formula.

        Backends only assign variables they have seen; variables whose
        clauses were removed (or that never got one) default to false,
        matching the one-shot solvers' convention.
        """
        return {v: model.get(v, False) for v in self.cnf.variables()}
