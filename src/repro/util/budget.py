"""Composable resource budgets for one inference request.

A :class:`Budget` bounds the *work* a request may spend, the way a
:class:`~repro.util.Deadline` bounds its wall-clock time.  The serving
layer creates one per request and threads it alongside the deadline into
:class:`~repro.infer.session.InferSession`,
:class:`~repro.infer.state.FlowState` and
:class:`~repro.boolfn.engine.SatEngine`; each layer charges the resource
it consumes:

* ``seconds`` — a wall-clock component (in addition to, not instead of,
  the request deadline: the deadline aborts the whole request with a 408,
  the budget degrades it gracefully into a partial report);
* ``solver_steps`` — CDCL search effort (conflicts + propagations +
  decisions, in the spirit of MiniSat/CaDiCaL conflict budgets), plus one
  step per linear-fragment query.  This is the lever that bounds the
  NP-complete general-CNF path the paper's symmetric concatenation
  (``@@``, Table 1) requires;
* ``max_clauses`` — a ceiling on the live clause count of the flow
  formula β (the memory guard: β is where a pathological program's state
  actually accumulates);
* ``core_queries`` — satisfiability re-queries spent by unsat-core
  deletion minimization (diagnostics effort; exhaustion degrades the
  diagnostic, never the verdict — see ``FlowInference.check_satisfiable``).

Exhaustion raises :class:`BudgetExceeded`.  The exception is deliberately
**non-poisoning**: like ``DeadlineExceeded`` it is not an
``InferenceError``, so it is never recorded (or cached) as a type error —
but unlike the deadline it is caught *per declaration* by the session,
which reports the declaration as ``aborted`` (diagnostic ``RP0998``) and
carries on, producing a partial report instead of a failed request.

A ``Budget()`` with no limits never trips, so callers can thread one
unconditionally.  Budgets are request-scoped and used by a single worker
thread; the counters are not locked.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Optional


class BudgetExceeded(Exception):
    """A request's resource budget ran out mid-inference.

    Deliberately *not* an :class:`repro.infer.errors.InferenceError`:
    exhausting a budget says nothing about the program being ill-typed,
    so it must never poison a session or be cached as a type error.
    ``resource`` names the exhausted dimension (``seconds``,
    ``solver_steps``, ``clauses``, ``core_queries`` or ``injected`` for
    fault-injected trips).
    """

    def __init__(self, resource: str, limit: float, spent: float) -> None:
        super().__init__(
            f"{resource} budget exhausted "
            f"(limit {_fmt(limit)}, spent {_fmt(spent)})"
        )
        self.resource = resource
        self.limit = limit
        self.spent = spent


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))


class Budget:
    """A composable per-request resource budget (all limits optional)."""

    __slots__ = (
        "seconds",
        "solver_steps",
        "max_clauses",
        "core_queries",
        "_expires_at",
        "_solver_spent",
        "_core_spent",
        "_clauses_peak",
    )

    def __init__(
        self,
        *,
        seconds: Optional[float] = None,
        solver_steps: Optional[int] = None,
        max_clauses: Optional[int] = None,
        core_queries: Optional[int] = None,
    ) -> None:
        self.seconds = seconds
        self.solver_steps = solver_steps
        self.max_clauses = max_clauses
        self.core_queries = core_queries
        self._expires_at = (
            None if seconds is None else time.monotonic() + seconds
        )
        self._solver_spent = 0
        self._core_spent = 0
        self._clauses_peak = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def unlimited(cls) -> "Budget":
        return cls()

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "Budget":
        """Build a budget from a wire/CLI parameter object.

        Accepted keys: ``ms`` (wall-clock milliseconds), ``solver_steps``,
        ``max_clauses``, ``core_queries``.  Raises ``ValueError`` on
        unknown keys or non-positive limits, so callers can map the
        failure to an invalid-params error.
        """
        known = {"ms", "solver_steps", "max_clauses", "core_queries"}
        unknown = set(params) - known
        if unknown:
            raise ValueError(
                f"unknown budget field(s): {', '.join(sorted(unknown))}"
            )
        limits = {}
        for key in known:
            value = params.get(key)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value <= 0:
                raise ValueError(f"budget {key!r} must be a positive number")
            limits[key] = value
        return cls(
            seconds=(limits["ms"] / 1000.0) if "ms" in limits else None,
            solver_steps=(
                int(limits["solver_steps"])
                if "solver_steps" in limits else None
            ),
            max_clauses=(
                int(limits["max_clauses"]) if "max_clauses" in limits else None
            ),
            core_queries=(
                int(limits["core_queries"])
                if "core_queries" in limits else None
            ),
        )

    @property
    def bounded(self) -> bool:
        """Whether any limit is set at all."""
        return (
            self.seconds is not None
            or self.solver_steps is not None
            or self.max_clauses is not None
            or self.core_queries is not None
        )

    # ------------------------------------------------------------------
    # charging (each raises BudgetExceeded when its limit is crossed)
    # ------------------------------------------------------------------
    def check_time(self) -> None:
        """Raise when the wall-clock component has expired."""
        if self._expires_at is not None and \
                time.monotonic() >= self._expires_at:
            raise BudgetExceeded(
                "seconds", self.seconds, self.seconds  # type: ignore[arg-type]
            )

    def charge_solver_steps(self, steps: int = 1) -> None:
        """Charge CDCL search effort (conflicts/propagations/decisions)."""
        self._solver_spent += steps
        if (
            self.solver_steps is not None
            and self._solver_spent > self.solver_steps
        ):
            raise BudgetExceeded(
                "solver_steps", self.solver_steps, self._solver_spent
            )

    def charge_clauses(self, live_clauses: int) -> None:
        """Enforce the clause-count ceiling on the flow formula."""
        if live_clauses > self._clauses_peak:
            self._clauses_peak = live_clauses
        if self.max_clauses is not None and live_clauses > self.max_clauses:
            raise BudgetExceeded("clauses", self.max_clauses, live_clauses)

    def charge_core_query(self) -> None:
        """Charge one unsat-core minimization satisfiability query."""
        self._core_spent += 1
        if (
            self.core_queries is not None
            and self._core_spent > self.core_queries
        ):
            raise BudgetExceeded(
                "core_queries", self.core_queries, self._core_spent
            )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def spent(self) -> dict[str, float]:
        out: dict[str, float] = {
            "solver_steps": self._solver_spent,
            "core_queries": self._core_spent,
            "clauses_peak": self._clauses_peak,
        }
        if self._expires_at is not None:
            out["seconds_remaining"] = max(
                0.0, self._expires_at - time.monotonic()
            )
        return out

    def as_dict(self) -> dict[str, object]:
        """The configured limits (``None`` entries omitted)."""
        out: dict[str, object] = {}
        if self.seconds is not None:
            out["ms"] = self.seconds * 1000.0
        if self.solver_steps is not None:
            out["solver_steps"] = self.solver_steps
        if self.max_clauses is not None:
            out["max_clauses"] = self.max_clauses
        if self.core_queries is not None:
            out["core_queries"] = self.core_queries
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limits = self.as_dict()
        return f"Budget({limits})" if limits else "Budget(unlimited)"


def tighten(
    base: Optional["Budget"], cap: Optional["Budget"]
) -> tuple[Optional["Budget"], bool]:
    """Pointwise-minimum of two budget specs, as a fresh uncharged budget.

    The daemon's brownout mode caps every request's budget with the
    configured brownout budget: each dimension takes the smaller of the
    two limits (an unset dimension never tightens).  Returns
    ``(budget, tightened)`` where ``tightened`` says whether ``cap``
    actually constrained anything — that flag is what makes a partial
    result honestly ``degraded`` (the brownout made it partial) rather
    than merely budget-limited by the caller's own request.

    The result is a *fresh* :class:`Budget` (its wall-clock starts now),
    so callers must tighten at service start, not at enqueue.
    """
    if cap is None or not cap.bounded:
        return base, False
    if base is None:
        return (
            Budget(
                seconds=cap.seconds,
                solver_steps=cap.solver_steps,
                max_clauses=cap.max_clauses,
                core_queries=cap.core_queries,
            ),
            True,
        )
    tightened = False

    def pick(mine, theirs):
        nonlocal tightened
        if theirs is None:
            return mine
        if mine is None or theirs < mine:
            tightened = True
            return theirs
        return mine

    merged = Budget(
        seconds=pick(base.seconds, cap.seconds),
        solver_steps=pick(base.solver_steps, cap.solver_steps),
        max_clauses=pick(base.max_clauses, cap.max_clauses),
        core_queries=pick(base.core_queries, cap.core_queries),
    )
    return (merged, True) if tightened else (base, False)
