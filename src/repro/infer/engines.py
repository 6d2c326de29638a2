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

Scheme and clauses together are a complete summary of the declaration,
so the flow engine can also write its export into a store payload and
read it back in another session (:meth:`FlowSessionEngine.encode_export`,
:meth:`FlowSessionEngine.decode_export`): a dependent of a store-served
declaration then imports the export instead of re-inferring it.
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
    BOOL,
    INT,
    Field,
    Row,
    TBool,
    TCon,
    TFun,
    TInt,
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

    # An engine whose export can cross a store also offers
    # ``encode_export(check) -> Optional[dict]`` (JSON-ready, free of
    # the engine's supply ids) and ``decode_export(data) ->
    # Optional[DeclCheck]`` (``None`` for a malformed payload); the
    # flow engine does.


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


# A flow export's store encoding (``FlowSessionEngine.encode_export``):
#
#   "vars"   [type variables, row variables, flags]: how many of each;
#   "type"   the scheme body, walked in prefix order:
#              "v" VAR FLAG              a type variable
#              "l" ELEM                  a list
#              "f" ARG RES               a function
#              "r" N ROW FLAG {LABEL FLAG TYPE}*N
#                                        a record (ROW -1: closed)
#              "i" / "b" / "c" NAME      Int / Bool / a constructor
#   "flow"   the signature clauses in β order, each its length followed
#            by its literals;
#   "names"  flag and debug name, alternating.
#
# A variable is its rank among the export's variables of its kind (from
# 0); a flag is its rank among the export's flags (from 1, so that a
# literal carries a sign; 0 is no flag).  Ranks keep the ids' order.


def _encode_type(t: Type, tvars: dict[int, int], rvars: dict[int, int],
                 flags: dict[Optional[int], int], out: list) -> None:
    if isinstance(t, TVar):
        out += ("v", tvars[t.var], flags[t.flag])
    elif isinstance(t, TList):
        out.append("l")
        _encode_type(t.elem, tvars, rvars, flags, out)
    elif isinstance(t, TFun):
        out.append("f")
        _encode_type(t.arg, tvars, rvars, flags, out)
        _encode_type(t.res, tvars, rvars, flags, out)
    elif isinstance(t, TRec):
        row = t.row
        if row is None:
            out += ("r", len(t.fields), -1, 0)
        else:
            out += ("r", len(t.fields), rvars[row.var], flags[row.flag])
        for f in t.fields:
            out += (f.label, flags[f.flag])
            _encode_type(f.type, tvars, rvars, flags, out)
    elif isinstance(t, TInt):
        out.append("i")
    elif isinstance(t, TBool):
        out.append("b")
    elif isinstance(t, TCon):
        out += ("c", t.name)
    else:
        raise ValueError(f"no store encoding for {t!r}")


class _TypeDecoder:
    """Reads an encoded scheme body back, with the ids ranks pick."""

    def __init__(self, codes: list, tvars: list[int], rvars: list[int],
                 flags: list[Optional[int]]) -> None:
        self.codes = codes
        self.pos = 0
        self.tvars = tvars
        self.rvars = rvars
        self.flags = flags

    def take(self):
        code = self.codes[self.pos]
        self.pos += 1
        return code

    def pick(self, ids: list, rank) -> int:
        if type(rank) is not int or rank < 0:
            raise ValueError(f"bad rank {rank!r}")
        return ids[rank]

    def type(self) -> Type:
        tag = self.take()
        if tag == "v":
            var = self.pick(self.tvars, self.take())
            return TVar(var, self.pick(self.flags, self.take()))
        if tag == "l":
            return TList(self.type())
        if tag == "f":
            arg = self.type()
            return TFun(arg, self.type())
        if tag == "r":
            count, row, row_flag = self.take(), self.take(), self.take()
            tail = None
            if row != -1:
                tail = Row(self.pick(self.rvars, row),
                           self.pick(self.flags, row_flag))
            fields = []
            for _ in range(count):
                label = self.take()
                if type(label) is not str:
                    raise ValueError(f"bad label {label!r}")
                flag = self.pick(self.flags, self.take())
                fields.append(Field(label, self.type(), flag))
            return TRec(tuple(fields), tail)
        if tag == "i":
            return INT
        if tag == "b":
            return BOOL
        if tag == "c":
            return TCon(str(self.take()))
        raise ValueError(f"bad type tag {tag!r}")


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

    def encode_export(self, check: DeclCheck) -> Optional[dict]:
        """``check``'s export as flat JSON, each id replaced by its rank.

        The payload holds nothing of this session's supplies, so
        another session can import it (:meth:`decode_export`).  ``None``
        when the scheme leaves a variable free, which the scheme of a
        top-level declaration never does.
        """
        export = check.export
        body = export.scheme.body
        tvars = sorted(type_vars(body))
        rvars = sorted(row_vars(body))
        if (
            export.scheme.quantified_type_vars != frozenset(tvars)
            or export.scheme.quantified_row_vars != frozenset(rvars)
        ):
            return None
        flag_ranks: dict[Optional[int], int] = {None: 0}
        for flag in sorted(set(all_flags(body))):
            flag_ranks[flag] = len(flag_ranks)
        codes: list = []
        try:
            _encode_type(
                body,
                {var: rank for rank, var in enumerate(tvars)},
                {var: rank for rank, var in enumerate(rvars)},
                flag_ranks,
                codes,
            )
            flow: list[int] = []
            for clause in export.flow.clauses():
                flow.append(len(clause))
                flow.extend(
                    flag_ranks[lit] if lit > 0 else -flag_ranks[-lit]
                    for lit in clause
                )
            names: list = []
            for flag, name in export.names.items():
                names += (flag_ranks[flag], name)
        except (KeyError, ValueError):
            return None  # a clause or name outside the type's flags
        return {
            "vars": [len(tvars), len(rvars), len(flag_ranks) - 1],
            "type": codes,
            "flow": flow,
            "names": names,
        }

    def decode_export(self, data: object) -> Optional[DeclCheck]:
        """The check an :meth:`encode_export` payload describes.

        Fresh ids are drawn from this engine's supplies in rank order,
        as instantiation renames a scheme (Def. 2), so they keep the
        exported ids' relative order.  The signature is rendered anew
        from the decoded scheme and clauses, for the caller to compare
        with the stored one.  ``None`` when the payload is malformed.
        """
        try:
            n_tvars, n_rvars, n_flags = data["vars"]
            codes, flow, names = data["type"], data["flow"], data["names"]
            if not (
                isinstance(codes, list)
                and all(type(n) is int and 0 <= n <= len(codes)
                        for n in (n_tvars, n_rvars, n_flags))
            ):
                return None
            tvars = [self.vars.fresh_type_var() for _ in range(n_tvars)]
            rvars = [self.vars.fresh_row_var() for _ in range(n_rvars)]
            flags: list[Optional[int]] = [None]
            flags.extend(self.flags.fresh() for _ in range(n_flags))
            decoder = _TypeDecoder(codes, tvars, rvars, flags)
            body = decoder.type()
            if decoder.pos != len(codes):
                return None
            cnf = Cnf()
            pos = 0
            while pos < len(flow):
                width = flow[pos]
                if type(width) is not int or width < 1:
                    return None
                literals = flow[pos + 1:pos + 1 + width]
                if len(literals) != width:
                    return None
                cnf.add_clause(
                    decoder.pick(flags, lit) if lit > 0
                    else -decoder.pick(flags, -lit)
                    for lit in literals
                )
                pos += 1 + width
            if len(names) % 2:
                return None
            table = {
                decoder.pick(flags, names[i]): str(names[i + 1])
                for i in range(0, len(names), 2)
            }
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        if None in table:
            return None
        signature, type_text, flow_text = _scheme_signature(body, cnf)
        return DeclCheck(
            signature=signature,
            type_text=type_text,
            flow_text=flow_text,
            export=FlowExport(
                scheme=Scheme(frozenset(tvars), frozenset(rvars), body),
                flow=cnf,
                names=table,
            ),
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
