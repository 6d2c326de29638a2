"""Shared mutable state of a flow-inference run.

Holds the variable/flag supplies, the global flow formula β, the registry of
*live roots* (types and environments currently referenced by pending rule
activations — the structures ``applyS`` must rewrite when a substitution is
applied), instrumentation counters, and the engine options.

Options reproduce the paper's ablations:

* ``track_fields=False`` — "commenting out the functions that add clauses to
  a Boolean function" (Fig. 9, column 3): flags are still allocated but β is
  never touched;
* ``gc=False`` — disable the stale-flag garbage collection at let
  boundaries, reproducing the expansion bug of Sect. 6 (E7);
* ``env_var_cache=False`` — disable the free-variable caches on environment
  entries, the analogue of the version-tag optimisation of Sect. 6 (E6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Union

from ..boolfn.cnf import Clause, Cnf, Literal
from ..boolfn.engine import SatEngine, SolverStats
from ..boolfn.flags import FlagSupply
from ..types.terms import Type, VarSupply, all_flags
from ..util import Budget, Deadline
from .env import TypeEnv

#: Cap on the clause-provenance log kept for diagnostics.  Variable
#: elimination rewrites β destructively, so by the time unsatisfiability
#: surfaces the witness chain (select -> ... -> empty-record) may have
#: been resolved away; the log keeps every clause *as originally emitted*
#: — equisatisfiable with β, since eliminated flags never occur in later
#: clauses — and the unsat-core diagnosis prefers it.  Past the cap the
#: log is dropped (large programs; diagnostics degrade gracefully to the
#: post-elimination formula).
_PROVENANCE_LOG_CAP = 4096

#: Flag allocations / clause additions between two deadline polls.  The
#: poll is one ``time.monotonic`` call; at the observed allocation rates a
#: stride of 256 bounds the polling overhead well under 1% while keeping
#: the reaction latency to an expired deadline in the microsecond range.
_DEADLINE_STRIDE = 256


@dataclass
class FlowOptions:
    """Tunable behaviour of the flow inference engine."""

    track_fields: bool = True
    gc: bool = True
    env_var_cache: bool = True
    letrec_max_iterations: int = 100
    # Strict symmetric concatenation: at each ``e1 @@ e2`` additionally
    # *prove* that no field can be present on both sides (an entailment
    # check β ⊨ ¬(f1 ∧ f2) per aligned position).  The paper only sketches
    # @@ via the conjoined constraint ¬(f1 ∧ f2), which under the may-style
    # flags of Fig. 3 rarely fires; this option is the sound must-analysis
    # variant (a documented strengthening, see DESIGN.md).
    symcat_must: bool = False
    # Conditional-unification extensions (Sect. 5, repro.infer.conditional):
    # lazy_fields gives record updates Pottier-style lazy content types
    # (``c =fN t``); when_conditional uses the second Fig. 8 rule for
    # ``when`` (branch result types joined by conditional constraints
    # instead of unification).
    lazy_fields: bool = False
    when_conditional: bool = False
    # Debug/testing: after every rule, assert that β mentions only flags
    # attached to live roots (the central invariant behind the stale-flag
    # GC).  Quadratic — tests only.
    validate_invariants: bool = False


@dataclass
class FlowStats:
    """Instrumentation for the benchmark harness (E5/E6/E11)."""

    applys_calls: int = 0
    expansions: int = 0
    clauses_peak: int = 0
    flags_allocated: int = 0
    letrec_iterations: int = 0
    gc_runs: int = 0
    solver_calls: int = 0
    theory_iterations: int = 0
    solver_seconds: float = 0.0
    applys_seconds: float = 0.0
    gc_seconds: float = 0.0
    env_rewrites_skipped: int = 0
    env_rewrites_done: int = 0
    # Peak complexity class of clauses ever added (GC may later project the
    # expensive clauses away, so the final formula under-reports).
    saw_non_twosat: bool = False
    saw_non_horn: bool = False
    saw_non_dual_horn: bool = False

    @property
    def peak_formula_class(self) -> str:
        if not self.saw_non_twosat:
            return "2-sat"
        if not self.saw_non_horn:
            return "horn"
        if not self.saw_non_dual_horn:
            return "dual-horn"
        return "general"

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))


class Slot:
    """A mutable cell holding a live root (a Type or a TypeEnv)."""

    __slots__ = ("value",)

    def __init__(self, value: Union[Type, TypeEnv]) -> None:
        self.value = value


class FlowState:
    """All mutable state threaded through one inference run."""

    def __init__(
        self,
        options: FlowOptions | None = None,
        vars: VarSupply | None = None,
        flags: FlagSupply | None = None,
    ) -> None:
        self.options = options or FlowOptions()
        # Supplies are normally private to one run; a module-level
        # InferSession passes shared supplies so that the schemes and
        # signature clauses of separately checked declarations never
        # collide (repro.infer.session).
        self.vars = vars if vars is not None else VarSupply()
        self.flags = flags if flags is not None else FlagSupply()
        self.beta = Cnf()
        # One incremental engine for the whole run: satisfiability checks
        # between emitted constraints reuse solver state instead of
        # re-solving β from scratch (see repro.boolfn.engine).
        self.engine = SatEngine(self.beta)
        # Engines replaced by sat_engine() (diagnostics swap β for the
        # pre-elimination formula); their telemetry is part of the run's.
        self._retired_engines: list[SatEngine] = []
        # Clause-provenance log for the diagnostics engine (see
        # _PROVENANCE_LOG_CAP above); ``None`` once the cap is exceeded.
        self.provenance_log: list[Clause] | None = []
        # Optional per-request wall-clock budget (the serving layer sets
        # this); polled on the hot allocation paths and at solver calls.
        self.deadline: Deadline | None = None
        # Optional per-request resource budget (repro.util.Budget): its
        # wall-clock component shares the deadline's poll stride, its
        # clause ceiling is enforced at every β growth, and the solver
        # step / core-query components ride on the attached SatEngine.
        self.budget: Budget | None = None
        self._deadline_tick = 0
        self.live: list[Slot] = []
        self.stats = FlowStats()
        # Guard literals for branch-sensitive constructs (``when N in x``,
        # Fig. 8): while a guard g is active, every emitted clause c becomes
        # g -> c.  Guards are literals: the else branch pushes -ff.
        self.guards: list[Literal] = []
        # Conditional unification constraints t1 =g t2 (Sect. 5); their
        # types are rewritten alongside the live roots by applyS and
        # discharged by the theory solver at satisfiability checks.
        from .conditional import CondConstraint  # local import, no cycle

        self.conditional_constraints: list[CondConstraint] = []

    # ------------------------------------------------------------------
    # live-root registry
    # ------------------------------------------------------------------
    def push(self, value: Union[Type, TypeEnv]) -> Slot:
        """Register a live root; it will be rewritten by substitutions."""
        slot = Slot(value)
        self.live.append(slot)
        return slot

    def pop(self, slot: Slot) -> Union[Type, TypeEnv]:
        """Unregister a live root (usually the most recent one).

        Rules pop in LIFO order; the only exception is the lazy-field
        value slots, which stay pinned for the rest of the run, so removal
        searches from the top of the stack.
        """
        for index in range(len(self.live) - 1, -1, -1):
            if self.live[index] is slot:
                del self.live[index]
                return slot.value
        raise RuntimeError("pop of a slot that is not live")

    # ------------------------------------------------------------------
    # flow formula operations (no-ops when field tracking is off)
    # ------------------------------------------------------------------
    def poll_deadline(self) -> None:
        """Raise when the attached request deadline is cancelled/expired.

        Called with a stride on the hot paths (flag allocation, clause
        emission) and unconditionally before every solver query, so a
        runaway declaration is interrupted within microseconds of its
        budget without measurable steady-state overhead.
        """
        deadline = self.deadline
        budget = self.budget
        if deadline is None and budget is None:
            return
        self._deadline_tick += 1
        if self._deadline_tick >= _DEADLINE_STRIDE:
            self._deadline_tick = 0
            if deadline is not None:
                deadline.check()
            if budget is not None:
                budget.check_time()

    def fresh_flag(self, name: str | None = None) -> int:
        self.stats.flags_allocated += 1
        self.poll_deadline()
        return self.flags.fresh(name)

    def add_clause(self, literals: Iterable[Literal]) -> None:
        self.poll_deadline()
        if not self.options.track_fields:
            return
        clause = tuple(literals)
        if self.guards:
            clause = clause + tuple(-g for g in self.guards)
        stats = self.stats
        if len(clause) > 2:
            stats.saw_non_twosat = True
        positives = 0
        for lit in clause:
            if lit > 0:
                positives += 1
        if positives > 1:
            stats.saw_non_horn = True
        if len(clause) - positives > 1:
            stats.saw_non_dual_horn = True
        self.beta.add_clause(clause)
        if self.budget is not None:
            # The clause ceiling is the OOM guard: β is where a
            # pathological program's state accumulates, so the budget is
            # checked at every growth step, not on a stride.
            self.budget.charge_clauses(len(self.beta))
        self._log_clause(clause)
        self._note_clauses()

    def _log_clause(self, clause: Clause) -> None:
        log = self.provenance_log
        if log is None:
            return
        if len(log) >= _PROVENANCE_LOG_CAP:
            self.provenance_log = None
            return
        log.append(clause)

    def log_clauses(self, clauses: Iterable[Clause]) -> None:
        """Record clauses added to β outside :meth:`add_clause` (expansion)."""
        for clause in clauses:
            self._log_clause(clause)

    def add_unit(self, literal: Literal) -> None:
        self.add_clause((literal,))

    def add_implication(self, premise: Literal, conclusion: Literal) -> None:
        if premise != conclusion:
            self.add_clause((-premise, conclusion))

    def add_iff(self, left: Literal, right: Literal) -> None:
        self.add_implication(left, right)
        self.add_implication(right, left)

    def add_sequence_implication(
        self, premises: Iterable[Literal], conclusions: Iterable[Literal]
    ) -> None:
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
        left = tuple(left)
        right = tuple(right)
        self.add_sequence_implication(left, right)
        self.add_sequence_implication(right, left)

    def live_flags(self) -> set[int]:
        """Every flag attached to a live root, guard, or constraint.

        This is the set β is allowed to mention between rule applications;
        eliminating everything outside it is the stale-flag GC of Sect. 6.
        """
        live: set[int] = {abs(g) for g in self.guards}
        for slot in self.live:
            value = slot.value
            if isinstance(value, TypeEnv):
                live.update(value.flags)
            else:
                live.update(all_flags(value))
        for constraint in self.conditional_constraints:
            live.add(abs(constraint.guard))
            live.update(all_flags(constraint.left))
            live.update(all_flags(constraint.right))
        return live

    def sat_engine(self) -> SatEngine:
        """The incremental engine attached to the *current* β.

        Diagnostics temporarily swap ``self.beta`` for a snapshot; the
        engine follows the live object and rebuilds when it changes.
        """
        if self.engine.cnf is not self.beta:
            self._retired_engines.append(self.engine)
            self.engine = SatEngine(self.beta)
        self.engine.budget = self.budget
        return self.engine

    def solver_stats(self) -> SolverStats:
        """Telemetry of every engine this run used, merged."""
        return SolverStats.merged(
            engine.stats() for engine in (*self._retired_engines, self.engine)
        )

    def solve_beta(self):
        """One timed incremental satisfiability query against β."""
        if self.deadline is not None:
            self.deadline.check()
        if self.budget is not None:
            self.budget.check_time()
        with self.timed_solver():
            return self.sat_engine().solve()

    def guarded(self, guard: Literal) -> "_Guard":
        """Context manager: clauses added inside become ``guard -> clause``."""
        return _Guard(self, guard)

    def _note_clauses(self) -> None:
        if len(self.beta) > self.stats.clauses_peak:
            self.stats.clauses_peak = len(self.beta)

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def timed_solver(self):
        """Context manager accumulating solver wall time."""
        return _Timer(self.stats, "solver_seconds", "solver_calls")

    def timed_applys(self):
        return _Timer(self.stats, "applys_seconds", "applys_calls")

    def timed_gc(self):
        return _Timer(self.stats, "gc_seconds", "gc_runs")


class _Guard:
    """Scoped guard literal; see :meth:`FlowState.guarded`."""

    __slots__ = ("state", "guard")

    def __init__(self, state: FlowState, guard: Literal) -> None:
        self.state = state
        self.guard = guard

    def __enter__(self) -> "_Guard":
        self.state.guards.append(self.guard)
        return self

    def __exit__(self, *exc_info: object) -> None:
        popped = self.state.guards.pop()
        if popped != self.guard:
            raise RuntimeError("guard stack discipline violated")


class _Timer:
    __slots__ = ("stats", "seconds_attr", "count_attr", "start")

    def __init__(self, stats: FlowStats, seconds_attr: str, count_attr: str):
        self.stats = stats
        self.seconds_attr = seconds_attr
        self.count_attr = count_attr
        self.start = 0.0

    def __enter__(self) -> "_Timer":
        self.start = time.perf_counter()
        setattr(
            self.stats, self.count_attr, getattr(self.stats, self.count_attr) + 1
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self.start
        setattr(
            self.stats,
            self.seconds_attr,
            getattr(self.stats, self.seconds_attr) + elapsed,
        )
