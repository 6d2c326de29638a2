"""The per-declaration Engine protocol behind module inference sessions.

An :class:`~repro.infer.session.InferSession` checks a module one
declaration at a time.  What "check one declaration" means differs per
engine — the flow inference produces a scheme *and* a projected flow
formula, the plain Milner-Mycroft/Damas-Milner engines produce a scheme,
the Pottier comparison checker produces an abstract value — so the session
talks to engines through one small protocol:

* :meth:`SessionEngine.check_decl` receives a declaration plus the
  :class:`DeclCheck` exports of its dependencies and returns the
  declaration's own :class:`DeclCheck` (or raises
  :class:`~repro.infer.errors.InferenceError`).

Every engine renders a *canonical signature* for each declaration: type
and row variables, and flags, are renumbered in order of first occurrence,
so the signature text is stable across sessions even though the underlying
supplies issue different identifiers.  Canonical signatures serve two
roles: they are the user-facing interface of a declaration, and they are
the cache-key component that gives the session early cutoff — a dependent
is only re-checked when a dependency's *signature* changed, not merely its
body.

The flow engine's export additionally carries the projected flow clauses
of the signature (Sect. 5: the flow of a function body can be projected
onto the flags of its type without losing precision — "the obtained type
for a function is thus concise").  Dependents seed their local β with
those clauses; scheme instantiation then expands them per use exactly as
(VAR-LET) expands any other clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

from ..boolfn.cnf import Clause, Cnf
from ..boolfn.engine import SolverStats
from ..boolfn.flags import FlagSupply
from ..boolfn.projection import projected
from ..util import Budget, Deadline
from ..lang.ast import Expr, Let, Var
from ..lang.module import Decl
from ..lang.pretty import pretty
from ..types.schemes import Scheme
from ..types.terms import (
    TFun,
    TList,
    TRec,
    TVar,
    Type,
    VarSupply,
    all_flags,
    row_vars,
    type_vars,
)
from .builtins import DEFAULT_BUILTINS
from .env import Poly, TypeEnv
from .flow import FlowInference
from .hm import PlainInference
from .pottier import (
    AClosure,
    ARecord,
    DEFAULT_ABSTRACT_ENV,
    PottierChecker,
)
from .state import FlowOptions, FlowState


@dataclass
class DeclCheck:
    """The outcome of checking one declaration, as the session stores it.

    ``signature`` is canonical (stable across sessions and supplies) and
    doubles as the cache-key contribution this declaration makes to its
    dependents.  ``export`` is the engine-specific payload dependents are
    checked against.
    """

    signature: str
    type_text: str
    flow_text: str
    export: object
    trace: dict[str, float] = field(default_factory=dict)
    #: SatEngine telemetry of the run that produced this check (``None``
    #: for solver-free engines); rolled up by ``check --solver-stats``
    #: and the serving daemon's metrics.
    solver_stats: Optional[SolverStats] = None


class SessionEngine(Protocol):
    """What :class:`repro.infer.session.InferSession` needs from an engine."""

    name: str

    def check_decl(
        self,
        decl: Decl,
        deps: Sequence[tuple[str, DeclCheck]],
        deadline: Optional[Deadline] = None,
        budget: Optional[Budget] = None,
    ) -> DeclCheck:
        """Check one declaration given its dependencies' exports.

        Raises :class:`~repro.infer.errors.InferenceError` when the
        declaration is ill-typed, and lets the ``deadline``'s
        :class:`~repro.util.DeadlineExceeded`/:class:`~repro.util.Cancelled`
        propagate when the request budget runs out mid-check.  A
        ``budget`` (resource governor) is charged as the check works;
        its :class:`~repro.util.BudgetExceeded` likewise propagates and
        the *session* turns it into a per-declaration ``aborted`` report
        rather than failing the whole request.
        """
        ...


# ---------------------------------------------------------------------------
# canonical signature rendering
# ---------------------------------------------------------------------------
class _Canonicalizer:
    """First-occurrence renaming of type vars, row vars and flags."""

    def __init__(self) -> None:
        self.tvars: dict[int, str] = {}
        self.rvars: dict[int, str] = {}
        self.flags: dict[int, int] = {}

    def tvar(self, var: int) -> str:
        name = self.tvars.get(var)
        if name is None:
            name = f"a{len(self.tvars)}"
            self.tvars[var] = name
        return name

    def rvar(self, var: int) -> str:
        name = self.rvars.get(var)
        if name is None:
            name = f"r{len(self.rvars)}"
            self.rvars[var] = name
        return name

    def flag(self, value: Optional[int]) -> str:
        if value is None:
            return ""
        index = self.flags.get(value)
        if index is None:
            index = len(self.flags) + 1
            self.flags[value] = index
        return f".f{index}"

    def literal(self, value: int) -> str:
        index = self.flags.get(abs(value))
        name = f"f{index}" if index is not None else f"x{abs(value)}"
        return f"¬{name}" if value < 0 else name


def canonical_type_text(t: Type, names: _Canonicalizer) -> str:
    """Render a (flagged) type with canonical variable/flag numbering."""

    def go(t: Type, parenthesize_function: bool = False) -> str:
        if isinstance(t, TVar):
            return f"{names.tvar(t.var)}{names.flag(t.flag)}"
        if isinstance(t, TList):
            return f"[{go(t.elem)}]"
        if isinstance(t, TFun):
            inner = f"{go(t.arg, True)} -> {go(t.res)}"
            return f"({inner})" if parenthesize_function else inner
        if isinstance(t, TRec):
            parts = [
                f"{f.label}{names.flag(f.flag)} : {go(f.type)}"
                for f in t.fields
            ]
            if t.row is not None:
                parts.append(f"{names.rvar(t.row.var)}{names.flag(t.row.flag)}")
            return "{" + ", ".join(parts) + "}"
        return repr(t)

    return go(t)


def canonical_flow_text(flow: Cnf, names: _Canonicalizer) -> str:
    """Render projected flow clauses canonically (sorted, renumbered)."""

    def mapped(clause: Clause) -> tuple[int, ...]:
        out = []
        for lit in clause:
            index = names.flags.get(abs(lit), abs(lit) + 10_000_000)
            out.append(index if lit > 0 else -index)
        return tuple(sorted(out, key=lambda l: (abs(l), l)))

    conjuncts = []
    for clause in sorted(flow.clauses(), key=lambda c: (len(c), mapped(c))):
        if len(clause) == 1:
            conjuncts.append(names.literal(clause[0]))
            continue
        if len(clause) == 2:
            negatives = [lit for lit in clause if lit < 0]
            positives = [lit for lit in clause if lit > 0]
            if len(negatives) == 1 and len(positives) == 1:
                conjuncts.append(
                    f"{names.literal(-negatives[0])} -> "
                    f"{names.literal(positives[0])}"
                )
                continue
        conjuncts.append(
            "(" + " ∨ ".join(names.literal(lit) for lit in clause) + ")"
        )
    return " ∧ ".join(conjuncts)


def _scheme_signature(body: Type, flow: Optional[Cnf]) -> tuple[str, str, str]:
    """(signature, type_text, flow_text) for a scheme body + its flow."""
    names = _Canonicalizer()
    type_text = canonical_type_text(body, names)
    flow_text = canonical_flow_text(flow, names) if flow is not None else ""
    signature = type_text if not flow_text else f"{type_text} where {flow_text}"
    return signature, type_text, flow_text


# ---------------------------------------------------------------------------
# the flow engine (the paper's inference)
# ---------------------------------------------------------------------------
@dataclass
class FlowExport:
    """Flow-engine payload: the scheme plus its projected signature flow.

    ``names`` holds the debug names of the scheme's flags, which a
    dependent's diagnostics may inherit.
    """

    scheme: Scheme
    flow: Cnf
    names: dict[int, str]


class FlowSessionEngine:
    """Per-declaration driver for :class:`repro.infer.flow.FlowInference`.

    The session owns one variable supply and one flag supply; every
    declaration is checked by a fresh :class:`FlowInference` drawing from
    them, in an environment binding each dependency to its exported scheme
    with the dependency's signature clauses seeded into the local β.  The
    flag supply's debug names are those of one check at a time, seeded
    from the dependencies' exports, so a long-lived session does not
    accumulate a name for every flag it ever issued.
    """

    def __init__(self, options: Optional[FlowOptions] = None,
                 builtins: Optional[dict] = None) -> None:
        self.name = "flow"
        self.options = options or FlowOptions()
        self.builtins = DEFAULT_BUILTINS if builtins is None else builtins
        self.vars = VarSupply()
        self.flags = FlagSupply()

    def check_decl(
        self,
        decl: Decl,
        deps: Sequence[tuple[str, DeclCheck]],
        deadline: Optional[Deadline] = None,
        budget: Optional[Budget] = None,
    ) -> DeclCheck:
        if budget is not None:
            budget.check_time()
        names: dict[int, str] = {}
        for _, dep in deps:
            names.update(dep.export.names)
        self.flags.reset_names(names)
        state = FlowState(self.options, vars=self.vars, flags=self.flags)
        state.deadline = deadline
        state.budget = budget
        inference = FlowInference(builtins=self.builtins, state=state)
        env = TypeEnv()
        for dep_name, dep in deps:
            export = dep.export
            assert isinstance(export, FlowExport)
            env = env.bind(dep_name, Poly.of(export.scheme))
            for clause in export.flow.clauses():
                state.add_clause(clause)
        wrapped = Let(decl.name, decl.expr, Var(decl.name, span=decl.span),
                      span=decl.span)
        result = inference.infer_with_env(wrapped, env)
        t = result.type
        quantified_tvs = frozenset(type_vars(t) - env.free_type_vars())
        quantified_rvs = frozenset(row_vars(t) - env.free_row_vars())
        scheme = Scheme(quantified_tvs, quantified_rvs, t)
        flow = (
            projected(result.beta, set(all_flags(t)))
            if state.options.track_fields
            else Cnf()
        )
        signature, type_text, flow_text = _scheme_signature(t, flow)
        stats = state.stats
        flags = self.flags
        return DeclCheck(
            signature=signature,
            type_text=type_text,
            flow_text=flow_text,
            export=FlowExport(
                scheme=scheme,
                flow=flow,
                names={
                    flag: flags.name_of(flag)
                    for flag in all_flags(t)
                    if not flags.is_anonymous(flag)
                },
            ),
            trace={
                "unify": stats.applys_seconds,
                "sat": stats.solver_seconds,
                "gc": stats.gc_seconds,
            },
            solver_stats=result.solver_stats,
        )


# ---------------------------------------------------------------------------
# the plain engines (Fig. 2 baselines)
# ---------------------------------------------------------------------------
class PlainSessionEngine:
    """Per-declaration driver for the flag-free Fig. 2 engines."""

    def __init__(self, polymorphic_recursion: bool, name: str) -> None:
        self.name = name
        self.polymorphic_recursion = polymorphic_recursion
        self.supply = VarSupply()

    def check_decl(
        self,
        decl: Decl,
        deps: Sequence[tuple[str, DeclCheck]],
        deadline: Optional[Deadline] = None,
        budget: Optional[Budget] = None,
    ) -> DeclCheck:
        # The plain engines have no per-clause hot loop to instrument;
        # declaration granularity is their deadline/budget resolution.
        if deadline is not None:
            deadline.check()
        if budget is not None:
            budget.check_time()
        inference = PlainInference(
            polymorphic_recursion=self.polymorphic_recursion,
            supply=self.supply,
        )
        for dep_name, dep in deps:
            export = dep.export
            assert isinstance(export, Scheme)
            inference.env[dep_name] = export
        wrapped = Let(decl.name, decl.expr, Var(decl.name, span=decl.span),
                      span=decl.span)
        t = inference.infer(wrapped)
        scheme = inference.generalize(t, excluding=decl.name)
        signature, type_text, flow_text = _scheme_signature(t, None)
        return DeclCheck(
            signature=signature,
            type_text=type_text,
            flow_text=flow_text,
            export=scheme,
        )


# ---------------------------------------------------------------------------
# the Pottier comparison checker
# ---------------------------------------------------------------------------
class PottierSessionEngine:
    """Per-declaration driver for the Pottier-style abstract checker."""

    def __init__(self, rule: str = "D'r") -> None:
        self.name = "pottier"
        self.rule = rule

    def check_decl(
        self,
        decl: Decl,
        deps: Sequence[tuple[str, DeclCheck]],
        deadline: Optional[Deadline] = None,
        budget: Optional[Budget] = None,
    ) -> DeclCheck:
        if deadline is not None:
            deadline.check()
        if budget is not None:
            budget.check_time()
        env = dict(DEFAULT_ABSTRACT_ENV)
        for dep_name, dep in deps:
            env[dep_name] = dep.export
        checker = PottierChecker(rule=self.rule)
        wrapped = Let(decl.name, decl.expr, Var(decl.name, span=decl.span),
                      span=decl.span)
        value = checker.eval(wrapped, env)
        signature = _abstract_fingerprint(value)
        return DeclCheck(
            signature=signature,
            type_text=signature,
            flow_text="",
            export=value,
        )


def _abstract_fingerprint(value: object) -> str:
    """A content-faithful rendering of a Pottier abstract value.

    ``repr`` alone is not enough for cache keys: two different closures
    both print as ``<fun x>``.  Closures are rendered with their body and
    captured environment so a changed dependency body changes the
    fingerprint of every value that captured it.
    """
    if isinstance(value, AClosure):
        captured = ", ".join(
            f"{name}={_abstract_fingerprint(entry)}"
            for name, entry in value.env
        )
        return f"<fun {value.param} -> {pretty(value.body)} | {captured}>"
    if isinstance(value, ARecord):
        inner = ", ".join(
            f"{name}: {_field_fingerprint(state)}"
            for name, state in value.fields
        )
        return f"{{{inner} | {_field_fingerprint(value.rest)}}}"
    return repr(value)


def _field_fingerprint(state: object) -> str:
    inner = getattr(state, "value", None)
    if inner is None:
        return repr(state)
    return f"{type(state).__name__[1:]} {_abstract_fingerprint(inner)}"
