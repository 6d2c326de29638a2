"""The flow inference of Fig. 3 — the paper's primary contribution.

Judgements ``ρR|β ⊢ e : t; ρ'R|β'`` are implemented with

* a single threaded environment held in a live *slot* (rewritten in place by
  substitutions, cf. :mod:`repro.infer.applys`),
* a single global flow formula β in :class:`FlowState` (the per-judgement
  β's of the paper are its monotonically growing snapshots),
* explicit live-root registration for every pending type, so that
  ``applyS`` rewrites everything a substitution can reach.

Rule-by-rule correspondence:

===============  ==============================================
paper rule       method
===============  ==============================================
(VAR)            :meth:`FlowInference.infer_var` (Mono entry)
(VAR-LET)        :meth:`FlowInference.instantiate` (Poly entry)
(LAM)            ``infer_lam``
(APP)            ``infer_app``
(LETREC)         ``infer_let``
(COND)           ``infer_if``
(REC-EMPTY)      ``infer_empty``
(REC-SELECT)     ``infer_select``
(REC-UPDATE)     ``infer_update``
===============  ==============================================

The Sect. 5 extensions (concatenation, removal, renaming, ``when``) are
mixed in from :mod:`repro.infer.extensions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..boolfn.classify import FormulaClass
from ..boolfn.cnf import Cnf
from ..boolfn.engine import SolverStats
from ..boolfn.expansion import expand
from ..boolfn.projection import eliminate_variable, project_onto
from ..lang.ast import (
    App,
    BoolLit,
    Concat,
    EmptyRec,
    Expr,
    If,
    IntLit,
    Lam,
    Let,
    ListLit,
    Remove,
    Rename,
    Select,
    Update,
    Var,
    When,
    free_variables,
)
from ..types.lattice import alpha_equivalent
from ..types.project import flag_literals, strip
from ..types.schemes import Scheme
from ..types.terms import (
    BOOL,
    Field,
    INT,
    Row,
    TFun,
    TList,
    TRec,
    TVar,
    Type,
    all_flags,
    row_vars,
    type_vars,
)
from ..types.unify import UnifyError, _Unifier
from ..diag import Diagnostic, diagnose_unsat, fallback_diagnostic
from ..diag import codes as diag_codes
from ..diag.diagnostic import Pos
from ..util import BudgetExceeded
from .builtins import DEFAULT_BUILTINS, Builder
from .env import Mono, Poly, TypeEnv
from .errors import (
    FixpointDivergence,
    FlowUnsatisfiable,
    InferenceError,
    UnboundVariable,
    UnificationFailure,
)
from .extensions import ExtensionRules
from .state import FlowOptions, FlowState, Slot
from .applys import apply_subst


def _diagnose_budgeted(state: FlowState) -> list[Diagnostic]:
    """Unsat diagnostics, degraded (never failed) by a starved budget.

    Witness recovery and core minimization cost extra solver queries
    beyond the verdict.  When the resource budget runs out *during
    diagnosis*, the verdict (unsatisfiable) is already final — so the
    declaration is still reported as a type error, just with the
    fallback diagnostic instead of a minimized witness, rather than
    aborting a check whose answer is known.
    """
    try:
        diagnostics = diagnose_unsat(state)
    except BudgetExceeded:
        diagnostics = None
    return diagnostics or [fallback_diagnostic(state)]


@dataclass
class FlowResult:
    """Outcome of a successful inference run."""

    type: Type
    beta: Cnf
    model: Optional[dict[int, bool]]
    formula_class: FormulaClass
    stats: "object"
    solver_stats: Optional[SolverStats] = None
    #: Structured findings attached by the run; empty for a clean pass
    #: (rejections raise :class:`FlowUnsatisfiable`, whose diagnostics
    #: carry the same objects).
    diagnostics: tuple[Diagnostic, ...] = ()

    def __repr__(self) -> str:
        return f"FlowResult({self.type!r} | {len(self.beta)} clauses)"


class FlowInference(ExtensionRules):
    """One inference engine instance; not reusable across programs."""

    def __init__(
        self,
        options: Optional[FlowOptions] = None,
        builtins: Optional[dict[str, Builder]] = None,
        state: Optional[FlowState] = None,
    ) -> None:
        # A prebuilt state lets a module session share variable/flag
        # supplies (and seed β with dependency signatures) across the
        # per-declaration engine instances.
        self.state = state if state is not None else FlowState(options)
        self.builtins = DEFAULT_BUILTINS if builtins is None else builtins
        # Slots pinned for the whole run (lazy-field rhs types); popped in
        # LIFO order before the program-level pops in infer_program.
        self._lazy_value_slots: list[Slot] = []
        # The innermost expression being inferred (for error spans raised
        # from deep plumbing such as flag retirement).
        self._current_expr: Optional[Expr] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def infer_program(self, expr: Expr) -> FlowResult:
        """Infer the type of a closed program; raise on type errors."""
        return self.infer_with_env(expr, TypeEnv())

    def infer_with_env(self, expr: Expr, env: TypeEnv) -> FlowResult:
        """Infer ``expr`` under an initial environment.

        The environment's entries behave like let-bound context (a module
        session binds the schemes of previously checked declarations); the
        final satisfiability check and stale-flag GC run exactly as for a
        closed program.
        """
        env_slot = self.state.push(env)
        try:
            t = self.infer(env_slot, expr)
            result_slot = self.state.push(t)
            # Check before GC: projection can collapse the witness
            # implication chains that the diagnostics use to name the
            # offending field.
            self.check_satisfiable(expr, force=True)
        except InferenceError as error:
            # The rejection's telemetry includes the core extraction that
            # explained it (see FlowState.solver_stats).
            error.solver_stats = self.state.solver_stats()
            raise
        self.collect_garbage()
        t = result_slot.value
        assert isinstance(t, Type)
        self.state.pop(result_slot)
        self.state.pop(env_slot)
        model = None
        engine = self.state.sat_engine()
        formula_class = engine.formula_class()
        if self.state.options.track_fields:
            model = engine.solve()
        return FlowResult(
            type=t,
            beta=self.state.beta,
            model=model,
            formula_class=formula_class,
            stats=self.state.stats,
            solver_stats=engine.stats(),
        )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def fresh_tvar(self) -> TVar:
        return TVar(self.state.vars.fresh_type_var(), self.state.fresh_flag())

    def fresh_row(self) -> Row:
        return Row(self.state.vars.fresh_row_var(), self.state.fresh_flag())

    def redecorate(self, t: Type) -> Type:
        """⇑RP(⇓RP(t)): fresh flags everywhere, inheriting debug names.

        Name inheritance has no semantic effect; it keeps the witness
        paths of :mod:`repro.diag` informative across (VAR) copies.
        """
        state = self.state

        def fresh_like(old: Optional[int]) -> int:
            if old is None or state.flags.is_anonymous(old):
                return state.fresh_flag()
            return state.fresh_flag(state.flags.name_of(old))

        def go(t: Type) -> Type:
            if isinstance(t, TVar):
                return TVar(t.var, fresh_like(t.flag))
            if isinstance(t, TList):
                return TList(go(t.elem))
            if isinstance(t, TFun):
                return TFun(go(t.arg), go(t.res))
            if isinstance(t, TRec):
                fields = tuple(
                    Field(f.label, go(f.type), fresh_like(f.flag))
                    for f in t.fields
                )
                row = t.row
                if row is not None:
                    row = Row(row.var, fresh_like(row.flag))
                return TRec(fields, row)
            return t

        return go(t)

    def unify(self, t1: Type, t2: Type, expr: Expr) -> None:
        """mgu of the stripped terms + applyS on all live roots."""
        try:
            # The unifier is flag-agnostic; feeding flagged terms directly
            # avoids a full ⇓RP copy of both sides on the hot path.
            unifier = _Unifier(self.state.vars)
            unifier.unify(t1, t2)
            subst = unifier.to_subst()
        except UnifyError as error:
            raise UnificationFailure(
                f"{error} (at {expr.span})", expr.span, expr
            ) from error
        apply_subst(self.state, subst)

    def unify_envs(self, env1: TypeEnv, env2: TypeEnv, expr: Expr) -> None:
        """Pointwise mgu of two environments + applyS (the meet ⊓R)."""
        try:
            unifier = _Unifier(self.state.vars)
            for name, entry1 in env1.items():
                entry2 = env2.lookup(name)
                if entry2 is None:
                    raise UnifyError(f"environment domains differ at {name!r}")
                t1 = entry1.type if isinstance(entry1, Mono) else entry1.scheme.body
                t2 = entry2.type if isinstance(entry2, Mono) else entry2.scheme.body
                unifier.unify(t1, t2)
            subst = unifier.to_subst()
        except UnifyError as error:
            raise UnificationFailure(
                f"{error} (at {expr.span})", expr.span, expr
            ) from error
        apply_subst(self.state, subst)

    def env_literals(self, env: TypeEnv) -> tuple[int, ...]:
        """[ρ]_X in deterministic (sorted-name) order."""
        out: list[int] = []
        for name in sorted(env.names()):
            entry = env.lookup(name)
            assert entry is not None
            t = entry.type if isinstance(entry, Mono) else entry.scheme.body
            out.extend(flag_literals(t))
        return tuple(out)

    def collect_garbage(self) -> None:
        """Project β onto the flags of all live roots (stale-flag GC).

        This is the "aggressive removal of stale variables" the paper found
        necessary for the correctness of expansion (Sect. 6).  Disabled by
        ``FlowOptions(gc=False)`` to reproduce the bug.
        """
        state = self.state
        if not (state.options.gc and state.options.track_fields):
            return
        with state.timed_gc():
            project_onto(state.beta, state.live_flags())

    def _eliminate_dead(self, dead: set[int], expr: Optional[Expr]) -> None:
        """Eliminate retired flags; report unsatisfiability eagerly.

        Variable elimination preserves satisfiability, so deriving the
        empty clause here means β was already unsatisfiable — raise at once
        with diagnostics computed on the pre-elimination formula (the
        eliminated chains are what the explanations are made of).  On
        small formulas the batch records what it removes, and the
        pre-elimination formula is rebuilt from that trail only when ⊥ is
        derived.
        """
        state = self.state
        beta = state.beta
        self._transfer_debug_names(dead)
        trail = beta.start_trail() if len(beta) <= 250 else None
        try:
            with state.timed_gc():
                for flag in sorted(dead):
                    eliminate_variable(beta, flag)
        finally:
            beta.stop_trail()
        if beta.known_unsat:
            diagnostics: list[Diagnostic] = []
            if trail is not None:
                # Diagnose on the pre-elimination formula: the eliminated
                # implication chains are what the witness is made of (the
                # engine follows the temporary beta swap).
                state.beta = beta.rebuilt(trail)
                try:
                    diagnostics = diagnose_unsat(state)
                finally:
                    state.beta = beta
            if not diagnostics:
                diagnostics = [fallback_diagnostic(state)]
            anchor = expr if expr is not None else self._current_expr
            self._raise_flow_unsat(
                diagnostics,
                anchor.span if anchor is not None else None,
                anchor,
            )

    def discard_slot(self, slot: Slot, keep: Optional[Type] = None) -> Type:
        """Pop a consumed type root and eliminate its now-stale flags.

        Every rule that equates a pending type with something else and then
        drops it (the function type in (APP), the branch types in (COND),
        ...) must retire the dropped flags from β immediately: a clause
        connecting a live flag to a stale one turns later expansions
        incorrect — the Sect. 6 bug ("stale variables ... must be removed
        for the correctness of expansion").  Flags still reachable from a
        live root (shared environment entries, the ``keep`` subterm that
        the caller returns) are preserved.

        With ``gc=False`` the flags are left in place, reproducing the bug.
        """
        value = self.state.pop(slot)
        assert isinstance(value, Type)
        state = self.state
        if not (state.options.gc and state.options.track_fields):
            return value
        dead = set(all_flags(value))
        if keep is not None:
            dead -= set(all_flags(keep))
        if not dead:
            return value
        dead -= state.live_flags()
        if dead:
            self._eliminate_dead(dead, None)
        return value

    def _transfer_debug_names(self, dead: set[int]) -> None:
        """Keep diagnostics readable: before named flags are eliminated,
        propagate their names through bi-implied partners (walking across
        other dead flags) so a surviving flag carries the name.

        Any implication neighbour counts: (VAR) copies are one-directional,
        so requirement names must travel along single edges too.  Within
        one walk each flag is judged once, on the name it had before the
        walk, so the order partners are visited in does not matter."""
        flags = self.state.flags
        beta = self.state.beta
        for flag in sorted(dead):
            if flags.is_anonymous(flag):
                continue
            name = flags.name_of(flag)
            # Anonymous flags always take the name; ``via:`` hops yield to
            # stronger provenance (a select/empty endpoint must survive
            # elimination for the witness endpoints to stay named).
            overrides_via = not name.startswith("via:")
            seen = {flag}
            queue = [flag]
            while queue:
                for partner in beta.binary_partners(queue.pop()):
                    if partner in seen:
                        continue
                    seen.add(partner)
                    if flags.is_anonymous(partner) or (
                        overrides_via
                        and flags.name_of(partner).startswith("via:")
                    ):
                        flags.set_name(partner, name)
                        if partner in dead:
                            queue.append(partner)

    def _raise_flow_unsat(
        self,
        diagnostics: "list[Diagnostic]",
        span,
        expr: Optional[Expr],
    ) -> None:
        """Raise :class:`FlowUnsatisfiable` from diagnosed unsat cores.

        The exception message stays in the established shape ("a record
        field may be accessed without having been set: <explanation>") so
        tooling and tests matching on ``str(exc)`` keep working; the
        structured payload rides on ``exc.diagnostics``.
        """
        primary = diagnostics[0]
        if primary.code == diag_codes.FLOW_UNSAT_FALLBACK:
            # The fallback message already leads with the generic phrase.
            message = primary.message
            explanation: Optional[str] = None
        else:
            explanation = primary.message
            message = (
                "a record field may be accessed without having been set"
                f": {explanation}"
            )
        raise FlowUnsatisfiable(
            message,
            span,
            expr,
            label=primary.label,
            explanation=explanation,
            diagnostics=tuple(diagnostics),
        )

    def check_satisfiable(self, expr: Expr, force: bool = False) -> None:
        """Raise :class:`FlowUnsatisfiable` if β has become unsatisfiable.

        Cheap by default: the eager stale-flag elimination derives an empty
        clause as soon as a 2-CNF conflict is confined to retired flags, so
        intermediate checks only look at ``known_unsat``.  The full solver
        (and, with conditional unification constraints, the SMT check of
        Sect. 5) runs when ``force`` is set — at program level.
        """
        state = self.state
        if not state.options.track_fields:
            return
        if not force:
            if state.beta.known_unsat:
                diagnostics = _diagnose_budgeted(state)
                self._raise_flow_unsat(diagnostics, expr.span, expr)
            return
        if state.conditional_constraints:
            from .conditional import solve_with_unification_theory

            with state.timed_solver():
                outcome = solve_with_unification_theory(
                    state.beta, state.conditional_constraints, state.vars
                )
            if outcome is None:
                message = (
                    "no truth assignment makes the activated conditional "
                    "unification constraints solvable (Sect. 5 SMT check)"
                )
                raise FlowUnsatisfiable(
                    message,
                    expr.span,
                    expr,
                    diagnostics=(
                        Diagnostic(
                            code=diag_codes.CONDITIONAL_UNSAT,
                            message=message,
                            pos=Pos.from_span(expr.span),
                        ),
                    ),
                )
            state.stats.theory_iterations += outcome.iterations
            return
        model = state.solve_beta()
        if model is None:
            diagnostics = _diagnose_budgeted(state)
            self._raise_flow_unsat(diagnostics, expr.span, expr)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def infer(self, env_slot: Slot, expr: Expr) -> Type:
        """ρR|β ⊢ expr : t; mutates env_slot and the global β."""
        self._current_expr = expr
        if self.state.options.validate_invariants:
            result = self._dispatch(env_slot, expr)
            self._validate_liveness(expr, result)
            return result
        return self._dispatch(env_slot, expr)

    def _validate_liveness(self, expr: Expr, result: Type) -> None:
        """Testing hook: β may only mention live flags (+ the result's).

        A violation means a rule forgot to retire the flags of a consumed
        structure — the precursor of the Sect. 6 expansion bug.
        """
        state = self.state
        if not (state.options.gc and state.options.track_fields):
            return
        allowed = state.live_flags() | set(all_flags(result))
        leaked = state.beta.variables() - allowed
        if leaked:
            raise AssertionError(
                f"stale flags {sorted(leaked)} left in β after "
                f"{type(expr).__name__} at {expr.span}"
            )

    def _dispatch(self, env_slot: Slot, expr: Expr) -> Type:
        if isinstance(expr, Var):
            return self.infer_var(env_slot, expr)
        if isinstance(expr, IntLit):
            return INT
        if isinstance(expr, BoolLit):
            return BOOL
        if isinstance(expr, ListLit):
            return self.infer_list(env_slot, expr)
        if isinstance(expr, EmptyRec):
            return self.infer_empty(env_slot, expr)
        if isinstance(expr, Select):
            return self.infer_select(env_slot, expr)
        if isinstance(expr, Update):
            return self.infer_update(env_slot, expr)
        if isinstance(expr, Lam):
            return self.infer_lam(env_slot, expr)
        if isinstance(expr, App):
            return self.infer_app(env_slot, expr)
        if isinstance(expr, Let):
            return self.infer_let(env_slot, expr)
        if isinstance(expr, If):
            return self.infer_if(env_slot, expr)
        if isinstance(expr, Remove):
            return self.infer_remove(env_slot, expr)
        if isinstance(expr, Rename):
            return self.infer_rename(env_slot, expr)
        if isinstance(expr, Concat):
            return self.infer_concat(env_slot, expr)
        if isinstance(expr, When):
            return self.infer_when(env_slot, expr)
        raise TypeError(f"unknown expression node {expr!r}")

    # ------------------------------------------------------------------
    # (VAR) and (VAR-LET)
    # ------------------------------------------------------------------
    def infer_var(self, env_slot: Slot, expr: Var) -> Type:
        env = env_slot.value
        assert isinstance(env, TypeEnv)
        entry = env.lookup(expr.name)
        if entry is None:
            builder = self.builtins.get(expr.name)
            if builder is None:
                raise UnboundVariable(
                    f"unbound variable {expr.name!r} at {expr.span}",
                    expr.span,
                    expr,
                )
            return builder(self.state)
        if isinstance(entry, Mono):
            # (VAR): a fresh copy whose flags imply the entry's flags.
            tx = self.redecorate(entry.type)
            self.state.add_sequence_implication(
                flag_literals(tx), flag_literals(entry.type)
            )
            self._name_via(tx, expr)
            return tx
        instance = self.instantiate(entry.scheme)
        self._name_via(instance, expr)
        return instance

    def _name_via(self, t: Type, expr: Var) -> None:
        """Name the copy's anonymous flags ``via:x@pos`` (provenance).

        Flags that inherited a ``select:``/``empty-record@`` name keep it;
        the anonymous rest record which variable occurrence the record
        flowed through, giving the witness path its "flows through `g` at
        7:2" hops.  Purely cosmetic — names never affect solving.
        """
        state = self.state
        if not state.options.track_fields:
            return
        name = f"via:{expr.name}@{expr.span}"
        for flag in all_flags(t):
            if state.flags.is_anonymous(flag):
                state.flags.set_name(flag, name)

    def instantiate(self, scheme: Scheme) -> Type:
        """(VAR-LET): fresh variables *and* fresh flags + flow expansion.

        All flags of the scheme body are renamed to fresh flags and the
        clauses of β mentioning them are duplicated under that renaming
        (Def. 2) — clauses connecting the body to environment flags keep the
        environment side fixed, so each instance is independently linked to
        the context, exactly like ``applyS`` does for variable occurrences.
        """
        state = self.state
        type_map = {
            v: state.vars.fresh_type_var() for v in scheme.quantified_type_vars
        }
        row_map = {
            v: state.vars.fresh_row_var() for v in scheme.quantified_row_vars
        }
        flag_map: dict[int, int] = {}

        def fresh_like(old: int) -> int:
            """Fresh flag inheriting the debug name of ``old`` (diagnostics)."""
            fresh = flag_map.get(old)
            if fresh is None:
                flags = state.flags
                fresh = state.fresh_flag(
                    None if flags.is_anonymous(old) else flags.name_of(old)
                )
                flag_map[old] = fresh
            return fresh

        def copy(t: Type) -> Type:
            if isinstance(t, TVar):
                assert t.flag is not None
                return TVar(type_map.get(t.var, t.var), fresh_like(t.flag))
            if isinstance(t, TList):
                return TList(copy(t.elem))
            if isinstance(t, TFun):
                return TFun(copy(t.arg), copy(t.res))
            if isinstance(t, TRec):
                fields = []
                for f in t.fields:
                    assert f.flag is not None
                    fields.append(
                        Field(f.label, copy(f.type), fresh_like(f.flag))
                    )
                row = t.row
                if row is not None:
                    assert row.flag is not None
                    row = Row(
                        row_map.get(row.var, row.var), fresh_like(row.flag)
                    )
                return TRec(tuple(fields), row)
            return t

        body = copy(scheme.body)
        if state.options.track_fields and flag_map:
            state.stats.expansions += 1
            olds = list(flag_map)
            news = [flag_map[f] for f in olds]
            cursor = state.beta.cursor()
            expand(state.beta, olds, news)
            # The duplicated clauses are original constraints on the fresh
            # instance flags — record them for the diagnostics log.
            duplicated, _ = state.beta.clauses_from(cursor)
            state.log_clauses(duplicated)
            state._note_clauses()
        if state.conditional_constraints and (flag_map or type_map or row_map):
            self._duplicate_constraints(type_map, row_map, flag_map, copy)
        return body

    def _duplicate_constraints(self, type_map, row_map, flag_map, copy):
        """Instantiating a scheme also instantiates the conditional
        unification constraints attached to its flags/variables."""
        from .conditional import CondConstraint

        state = self.state
        fresh: list[CondConstraint] = []
        for constraint in state.conditional_constraints:
            touches = abs(constraint.guard) in flag_map or any(
                f in flag_map
                for f in all_flags(constraint.left) + all_flags(constraint.right)
            ) or (
                (type_vars(constraint.left) | type_vars(constraint.right))
                & set(type_map)
            ) or (
                (row_vars(constraint.left) | row_vars(constraint.right))
                & set(row_map)
            )
            if not touches:
                continue
            guard = constraint.guard
            mapped = flag_map.get(abs(guard))
            if mapped is not None:
                guard = mapped if guard > 0 else -mapped
            fresh.append(
                CondConstraint(
                    guard, copy(constraint.left), copy(constraint.right)
                )
            )
        state.conditional_constraints.extend(fresh)

    # ------------------------------------------------------------------
    # (LAM)
    # ------------------------------------------------------------------
    def infer_lam(self, env_slot: Slot, expr: Lam) -> Type:
        env = env_slot.value
        assert isinstance(env, TypeEnv)
        shadow_slot = self._stash_shadowed(env.lookup(expr.param))
        env_slot.value = env.bind(expr.param, Mono.of(self.fresh_tvar()))
        body_type = self.infer(env_slot, expr.body)
        env = env_slot.value
        assert isinstance(env, TypeEnv)
        param_entry = env.lookup(expr.param)
        assert isinstance(param_entry, Mono)
        result = TFun(param_entry.type, body_type)
        env = env.unbind(expr.param)
        env_slot.value = env
        self._restore_shadowed(env_slot, expr.param, shadow_slot)
        return result

    def _stash_shadowed(self, entry):
        """Keep a shadowed binding registered as a live root.

        A shadowed entry is invisible in the environment while the inner
        binding is in scope, but it comes back afterwards — substitutions
        applied in between must rewrite it and its flags must stay live.
        """
        if entry is None:
            return None
        body = entry.type if isinstance(entry, Mono) else entry.scheme.body
        return (entry, self.state.push(body))

    def _restore_shadowed(self, env_slot: Slot, name: str, stash) -> None:
        if stash is None:
            return
        entry, slot = stash
        body = self.state.pop(slot)
        assert isinstance(body, Type)
        env = env_slot.value
        assert isinstance(env, TypeEnv)
        if isinstance(entry, Mono):
            restored = Mono.of(body)
        else:
            scheme = entry.scheme
            restored = Poly.of(
                Scheme(
                    scheme.quantified_type_vars,
                    scheme.quantified_row_vars,
                    body,
                )
            )
        env_slot.value = env.bind(name, restored)

    # ------------------------------------------------------------------
    # (APP)
    # ------------------------------------------------------------------
    def infer_app(self, env_slot: Slot, expr: App) -> Type:
        state = self.state
        fn_type = self.infer(env_slot, expr.fn)
        fn_slot = state.push(fn_type)
        arg_type = self.infer(env_slot, expr.arg)
        target = TFun(arg_type, self.fresh_tvar())
        target_slot = state.push(target)
        self.unify(fn_slot.value, target_slot.value, expr)
        target = target_slot.value
        fn_type = fn_slot.value
        assert isinstance(target, TFun)
        assert isinstance(fn_type, Type)
        # [ta -> tr] <=> [tf]
        state.add_sequence_iff(
            flag_literals(target), flag_literals(fn_type)
        )
        # The function type and the argument part of the target are
        # consumed here; only the result component stays live.
        target = self.discard_slot(target_slot, keep=target.res)
        self.discard_slot(fn_slot)
        assert isinstance(target, TFun)
        return target.res

    # ------------------------------------------------------------------
    # (LETREC)
    # ------------------------------------------------------------------
    def infer_let(self, env_slot: Slot, expr: Let) -> Type:
        state = self.state
        env = env_slot.value
        assert isinstance(env, TypeEnv)
        shadow_slot = self._stash_shadowed(env.lookup(expr.name))
        if expr.name not in free_variables(expr.bound):
            # Non-recursive binding: no fixpoint needed (one iteration of
            # (LETREC) with x at ∀a.a, which the bound expression ignores).
            state.stats.letrec_iterations += 1
            if expr.name in env:
                env_slot.value = env.unbind(expr.name)
            bound_type = self.infer(env_slot, expr.bound)
            return self._finish_let(env_slot, expr, bound_type, shadow_slot)
        # Iteration 0: x bound to the most general scheme ∀a. a.
        seed = self.fresh_tvar()
        scheme = Scheme(frozenset((seed.var,)), frozenset(), seed)
        prev_slot = state.push(seed)
        iterations = 0
        while True:
            iterations += 1
            state.stats.letrec_iterations += 1
            if iterations > state.options.letrec_max_iterations:
                state.pop(prev_slot)
                raise FixpointDivergence(
                    f"let {expr.name!r}: the polymorphic-recursion fixpoint "
                    f"did not stabilise after {iterations - 1} iterations "
                    f"(the definition has no finite type, like f x = f 1 x)",
                    expr.span,
                    expr,
                )
            current = env_slot.value
            assert isinstance(current, TypeEnv)
            env_slot.value = current.bind(expr.name, Poly.of(scheme))
            # Rebinding x retired the previous iteration's scheme flags;
            # collect them before any expansion can see them.
            self.collect_garbage()
            bound_type = self.infer(env_slot, expr.bound)
            previous = prev_slot.value
            assert isinstance(previous, Type)
            if alpha_equivalent(strip(bound_type), strip(previous)):
                break
            prev_slot.value = bound_type
            scheme = self.generalize_here(env_slot, expr.name, bound_type)
        bound_slot = state.push(bound_type)
        self.discard_slot(prev_slot)  # pushed before bound_slot: remove-by-id
        bound_type = bound_slot.value
        assert isinstance(bound_type, Type)
        state.pop(bound_slot)
        return self._finish_let(env_slot, expr, bound_type, shadow_slot)

    def _finish_let(self, env_slot: Slot, expr: Let, bound_type: Type,
                    shadow_slot) -> Type:
        """Generalise, bind, check, infer the body, restore the scope."""
        state = self.state
        scheme = self.generalize_here(env_slot, expr.name, bound_type)
        current = env_slot.value
        assert isinstance(current, TypeEnv)
        env_slot.value = current.bind(expr.name, Poly.of(scheme))
        self.check_satisfiable(expr)
        self.collect_garbage()
        body_type = self.infer(env_slot, expr.body)
        env = env_slot.value
        assert isinstance(env, TypeEnv)
        retiring = env.lookup(expr.name)
        env = env.unbind(expr.name)
        env_slot.value = env
        self._restore_shadowed(env_slot, expr.name, shadow_slot)
        if retiring is not None:
            self._retire_flags(retiring.flags, keep=body_type)
        return body_type

    def _retire_flags(self, flags, keep: Optional[Type] = None) -> None:
        """Eliminate flags that just went out of scope (minus live ones)."""
        state = self.state
        if not (state.options.gc and state.options.track_fields):
            return
        dead = set(flags)
        if keep is not None:
            dead -= set(all_flags(keep))
        if not dead:
            return
        dead -= state.live_flags()
        if dead:
            self._eliminate_dead(dead, None)

    def generalize_here(
        self, env_slot: Slot, name: str, t: Type
    ) -> Scheme:
        """∀(vars(t) \\ vars(ρ \\ {name})). t."""
        env = env_slot.value
        assert isinstance(env, TypeEnv)
        without = env.unbind(name)
        quantified_tvs = frozenset(type_vars(t) - without.free_type_vars())
        quantified_rvs = frozenset(row_vars(t) - without.free_row_vars())
        return Scheme(quantified_tvs, quantified_rvs, t)

    # ------------------------------------------------------------------
    # record rules (REC-EMPTY), (REC-SELECT), (REC-UPDATE)
    # ------------------------------------------------------------------
    def infer_empty(self, env_slot: Slot, expr: EmptyRec) -> Type:
        """{} : {a.fa} with flow ¬fa — no field exists in any instance."""
        row = Row(
            self.state.vars.fresh_row_var(),
            self.state.fresh_flag(f"empty-record@{expr.span}"),
        )
        assert row.flag is not None
        self.state.add_unit(-row.flag)
        return TRec((), row)

    def infer_select(self, env_slot: Slot, expr: Select) -> Type:
        """#N : {N.fN : a.fa, b.fb} -> a.f'a with flow fN ∧ fa ↔ f'a."""
        state = self.state
        content = self.fresh_tvar()
        field_flag = state.fresh_flag(f"select:{expr.label}@{expr.span}")
        row = self.fresh_row()
        result = TVar(content.var, state.fresh_flag())
        state.add_unit(field_flag)
        assert content.flag is not None and result.flag is not None
        state.add_iff(content.flag, result.flag)
        record = TRec((Field(expr.label, content, field_flag),), row)
        return TFun(record, result)

    def infer_update(self, env_slot: Slot, expr: Update) -> Type:
        """@{N = e} : {N.fN : a.fa, b.fb} -> {N.f'N : t_e, b.f'b}; fb ↔ f'b.

        The input field's flag and type are unconstrained (the field may be
        absent or of a different type — it is overwritten); the output
        field's flag f'N is deliberately *not* asserted (Sect. 2.3): it is
        forced true only when a later selection needs the field.
        """
        state = self.state
        value_type = self.infer(env_slot, expr.value)
        value_slot = state.push(value_type)
        old_content = self.fresh_tvar()
        in_field_flag = state.fresh_flag()
        out_field_flag = state.fresh_flag()
        in_row = Row(state.vars.fresh_row_var(), state.fresh_flag())
        out_row = Row(in_row.var, state.fresh_flag())
        assert in_row.flag is not None and out_row.flag is not None
        state.add_iff(in_row.flag, out_row.flag)
        value_type = state.pop(value_slot)
        assert isinstance(value_type, Type)
        argument = TRec((Field(expr.label, old_content, in_field_flag),), in_row)
        if state.options.lazy_fields:
            # Pottier-style lazy content (Sect. 5): the output field holds a
            # fresh variable c with the conditional constraint c =f'N t —
            # the content needs a consistent type only if the field is
            # accessed.  Repairs the D'r incompleteness of Sect. 1.1.
            from .conditional import CondConstraint

            lazy_content = self.fresh_tvar()
            state.conditional_constraints.append(
                CondConstraint(out_field_flag, lazy_content, value_type)
            )
            value_slot = state.push(value_type)  # keep the rhs type live
            self._lazy_value_slots.append(value_slot)
            result = TRec(
                (Field(expr.label, lazy_content, out_field_flag),), out_row
            )
        else:
            result = TRec(
                (Field(expr.label, value_type, out_field_flag),), out_row
            )
        return TFun(argument, result)

    # ------------------------------------------------------------------
    # lists (no rules in the paper; treated like an n-way (COND) join)
    # ------------------------------------------------------------------
    def infer_list(self, env_slot: Slot, expr: ListLit) -> Type:
        state = self.state
        if not expr.items:
            return TList(self.fresh_tvar())
        item_slots = []
        for item in expr.items:
            item_type = self.infer(env_slot, item)
            item_slots.append(state.push(item_type))
        first = item_slots[0]
        for other in item_slots[1:]:
            self.unify(first.value, other.value, expr)
        element = self.redecorate(first.value)  # type: ignore[arg-type]
        for slot in item_slots:
            item_type = slot.value
            assert isinstance(item_type, Type)
            state.add_sequence_implication(
                flag_literals(element), flag_literals(item_type)
            )
        for slot in reversed(item_slots):
            self.discard_slot(slot)
        return TList(element)

    # ------------------------------------------------------------------
    # (COND)
    # ------------------------------------------------------------------
    def infer_if(self, env_slot: Slot, expr: If) -> Type:
        state = self.state
        cond_type = self.infer(env_slot, expr.cond)
        cond_slot = state.push(cond_type)
        self.unify(cond_slot.value, INT, expr.cond)
        self.discard_slot(cond_slot)
        # Snapshot ρc for the else branch; it stays live (and is rewritten
        # by substitutions applied while inferring the then branch).
        snapshot_slot = state.push(env_slot.value)
        then_type = self.infer(env_slot, expr.then)
        then_slot = state.push(then_type)
        # Swap: the threaded env becomes the (rewritten) snapshot; the then
        # env is parked in snapshot_slot, still live.
        env_slot.value, snapshot_slot.value = (
            snapshot_slot.value,
            env_slot.value,
        )
        else_type = self.infer(env_slot, expr.orelse)
        else_slot = state.push(else_type)
        then_env = snapshot_slot.value
        else_env = env_slot.value
        assert isinstance(then_env, TypeEnv) and isinstance(else_env, TypeEnv)
        self.unify(then_slot.value, else_slot.value, expr)
        self.unify_envs(snapshot_slot.value, env_slot.value, expr)  # type: ignore[arg-type]
        then_env = snapshot_slot.value
        else_env = env_slot.value
        assert isinstance(then_env, TypeEnv) and isinstance(else_env, TypeEnv)
        state.add_sequence_iff(
            self.env_literals(then_env), self.env_literals(else_env)
        )
        # Keep ρtσ as the resulting environment (the paper's choice); the
        # else environment is consumed and its exclusive flags retire.
        env_slot.value, snapshot_slot.value = (
            snapshot_slot.value,
            env_slot.value,
        )
        then_type = then_slot.value
        else_type = else_slot.value
        assert isinstance(else_type, Type) and isinstance(then_type, Type)
        # tr = ⇑(⇓(tσt)) with [tr] => [tσt] and [tr] => [tσe].
        result = self.redecorate(then_type)
        state.add_sequence_implication(
            flag_literals(result), flag_literals(then_type)
        )
        state.add_sequence_implication(
            flag_literals(result), flag_literals(else_type)
        )
        self.discard_slot(else_slot)
        self.discard_slot(then_slot)
        self.discard_env_slot(snapshot_slot)
        return result

    def discard_env_slot(self, slot: Slot) -> None:
        """Pop a consumed environment root; retire its exclusive flags.

        Entries that were never rewritten inside a branch are shared with
        the surviving environment, so their flags are still live; only the
        diverged copies die.
        """
        env = self.state.pop(slot)
        assert isinstance(env, TypeEnv)
        state = self.state
        if not (state.options.gc and state.options.track_fields):
            return
        dead: set[int] = set()
        for entry in env.entries():
            dead |= entry.flags
        dead -= state.live_flags()
        if dead:
            self._eliminate_dead(dead, None)
