"""applyS — applying a substitution to flagged types (Fig. 4, Sect. 2.4).

A substitution σ produced by unification maps type variables to *plain*
terms.  Every occurrence of a substituted variable in a live flagged
structure carries a flag, and the replacement term has its own flag
positions, so applying σ has three steps:

1. **Rewrite** every live root, replacing each occurrence of a substituted
   type variable by a freshly decorated copy of its image (one copy per
   occurrence — "each occurrence of t' may have a different flow
   information"), and each occurrence of a substituted row variable by a
   freshly decorated row segment.  Record the occurrence flag and the
   Def.-1 literal sequence of each copy.
2. **Expand** (Def. 2): for every substituted variable with occurrence
   flags ``f1..fn`` and copies with literal columns ``⟨l_1j..l_nj⟩``,
   replicate the flow of ``f1..fn`` onto each column.  Literals in
   contra-variant positions are negative and flip clause polarity (Ex. 3).
3. **Project** the now-dead occurrence flags out of β (the trailing
   ``∃_{f1..fn}`` of Fig. 4) so they cannot pollute later expansions
   (the stale-variable issue of Sect. 6).

The rewrite pass covers *all* live roots at once (the environments and
pending types registered in :class:`repro.infer.state.FlowState`), which is
how the paper's per-judgement ``applyS`` calls are realised with a single
global flow formula.
"""

from __future__ import annotations

from ..boolfn.expansion import expand
from ..boolfn.projection import eliminate_variable
from ..types.project import flag_literals
from ..types.schemes import Scheme
from ..types.subst import Subst
from ..types.terms import Field, Row, TFun, TList, TRec, TVar, Type
from .env import Mono, Poly, TypeEnv
from .state import FlowState

# occurrence key: ("t", type var) or ("r", row var)
_OccKey = tuple[str, int]


class _Rewriter:
    """One rewrite pass; accumulates occurrence records for expansion.

    Occurrences are grouped *per live root*: two roots may share flags (the
    (COND) rule snapshots the environment for the else branch, so the same
    position is referenced from both branch environments).  Expansion is
    run once per root, with the flags within a root pairwise distinct; the
    now-dead occurrence flags of all roots are projected out at the very
    end (the ``∃`` of Fig. 4).
    """

    def __init__(self, state: FlowState, subst: Subst) -> None:
        self.state = state
        self.subst = subst
        # One occurrence map per processed root.
        self.per_root: list[dict[_OccKey, list[tuple[int, tuple[int, ...]]]]] = []
        self.occurrences: dict[_OccKey, list[tuple[int, tuple[int, ...]]]] = {}

    def start_root(self) -> None:
        self.occurrences = {}
        self.per_root.append(self.occurrences)

    # -- decoration -----------------------------------------------------
    def _decorate(self, t: Type) -> Type:
        flags = self.state
        if isinstance(t, TVar):
            return TVar(t.var, flags.fresh_flag())
        if isinstance(t, TList):
            return TList(self._decorate(t.elem))
        if isinstance(t, TFun):
            return TFun(self._decorate(t.arg), self._decorate(t.res))
        if isinstance(t, TRec):
            fields = tuple(
                Field(f.label, self._decorate(f.type), flags.fresh_flag())
                for f in t.fields
            )
            row = t.row
            if row is not None:
                row = Row(row.var, flags.fresh_flag())
            return TRec(fields, row)
        return t

    # -- rewriting --------------------------------------------------------
    def rewrite(self, t: Type) -> Type:
        if isinstance(t, TVar):
            image = self.subst.types.get(t.var)
            if image is None:
                return t
            if t.flag is None:
                raise ValueError(f"undecorated occurrence of {t!r}")
            copy = self._decorate(image)
            self.occurrences.setdefault(("t", t.var), []).append(
                (t.flag, flag_literals(copy))
            )
            return copy
        if isinstance(t, TList):
            return TList(self.rewrite(t.elem))
        if isinstance(t, TFun):
            return TFun(self.rewrite(t.arg), self.rewrite(t.res))
        if isinstance(t, TRec):
            fields = [
                Field(f.label, self.rewrite(f.type), f.flag) for f in t.fields
            ]
            row = t.row
            if row is not None and row.var in self.subst.rows:
                if row.flag is None:
                    raise ValueError(f"undecorated row occurrence in {t!r}")
                extra, tail = self.subst.rows[row.var]
                # Decorate the replacement segment; keep a deterministic
                # (sorted-by-label) order so all copies align positionally.
                extra = sorted(extra, key=lambda f: f.label)
                decorated = [
                    Field(f.label, self._decorate(f.type), self.state.fresh_flag())
                    for f in extra
                ]
                new_tail = (
                    Row(tail.var, self.state.fresh_flag())
                    if tail is not None
                    else None
                )
                literals: list[int] = [f.flag for f in decorated]  # type: ignore[misc]
                if new_tail is not None:
                    literals.append(new_tail.flag)  # type: ignore[arg-type]
                for f in decorated:
                    literals.extend(flag_literals(f.type))
                self.occurrences.setdefault(("r", row.var), []).append(
                    (row.flag, tuple(literals))
                )
                fields.extend(decorated)
                row = new_tail
            return TRec(tuple(fields), row)
        return t

    def rewrite_env(self, env: TypeEnv) -> TypeEnv:
        stats = self.state.stats
        use_cache = self.state.options.env_var_cache
        subst_tvs = self.subst.domain_type_vars()
        subst_rvs = self.subst.domain_row_vars()
        changed: dict[str, object] = {}
        for name, entry in env.items():
            if use_cache and not (
                entry.free_type_vars & subst_tvs
                or entry.free_row_vars & subst_rvs
            ):
                stats.env_rewrites_skipped += 1
                continue
            stats.env_rewrites_done += 1
            if isinstance(entry, Mono):
                changed[name] = Mono.of(self.rewrite(entry.type))
            else:
                scheme = entry.scheme
                changed[name] = Poly.of(
                    Scheme(
                        scheme.quantified_type_vars,
                        scheme.quantified_row_vars,
                        self.rewrite(scheme.body),
                    )
                )
        if not changed:
            return env
        result = env
        for name, entry in changed.items():
            result = result.bind(name, entry)  # type: ignore[arg-type]
        return result


def apply_subst(state: FlowState, subst: Subst) -> None:
    """Apply ``subst`` to every live root, duplicating flow information.

    Mutates the live slots and the flow formula β in place.
    """
    if subst.is_identity():
        return
    with state.timed_applys():
        rewriter = _Rewriter(state, subst)
        for slot in state.live:
            rewriter.start_root()
            if isinstance(slot.value, TypeEnv):
                slot.value = rewriter.rewrite_env(slot.value)
            else:
                slot.value = rewriter.rewrite(slot.value)
        for constraint in state.conditional_constraints:
            rewriter.start_root()
            constraint.left = rewriter.rewrite(constraint.left)
            constraint.right = rewriter.rewrite(constraint.right)
        if not state.options.track_fields:
            return
        # Merge the per-root occurrence maps: Fig. 4 expands *all*
        # occurrences of a variable in one simultaneous substitution, so
        # that a clause linking two occurrence flags (e.g. the (VAR) copy
        # implication f_copy -> f_env) is replicated *positionally*
        # (column j of one copy with column j of the other), not as a full
        # cross product.  Only a flag shared by several roots — the (COND)
        # environment snapshot aliases positions — forces extra rounds.
        merged: dict[_OccKey, list[tuple[int, tuple[int, ...]]]] = {}
        for root_occurrences in rewriter.per_root:
            for key, records in root_occurrences.items():
                olds = [flag for flag, _ in records]
                if len(set(olds)) != len(olds):
                    raise AssertionError(
                        "duplicate occurrence flags within one live root"
                    )
                merged.setdefault(key, []).extend(records)
        dead_flags: set[int] = set()
        cursor = state.beta.cursor()
        for records in merged.values():
            widths = {len(literals) for _, literals in records}
            if len(widths) != 1:
                raise AssertionError(
                    "misaligned replacement copies in applyS: "
                    f"widths {sorted(widths)}"
                )
            (width,) = widths
            rounds: list[list[tuple[int, tuple[int, ...]]]] = []
            for record in records:
                for bucket in rounds:
                    if all(flag != record[0] for flag, _ in bucket):
                        bucket.append(record)
                        break
                else:
                    rounds.append([record])
            for bucket in rounds:
                olds = [flag for flag, _ in bucket]
                for column in range(width):
                    state.stats.expansions += 1
                    expand(
                        state.beta,
                        olds,
                        [literals[column] for _, literals in bucket],
                    )
            dead_flags.update(flag for flag, _ in records)
            # Provenance: the replacement columns inherit the occurrence
            # flag's debug name (select:/empty-record@/via:) so that the
            # diagnostics' witness endpoints survive the elimination below.
            flags = state.flags
            for flag, literals in records:
                if flags.is_anonymous(flag):
                    continue
                name = flags.name_of(flag)
                for literal in literals:
                    target = abs(literal)
                    if flags.is_anonymous(target):
                        flags.set_name(target, name)
        # The expanded duplicates are original constraints on the fresh
        # columns — record them for the diagnostics log before the
        # occurrence flags are resolved away.
        duplicated, _ = state.beta.clauses_from(cursor)
        state.log_clauses(duplicated)
        # The trailing ∃_{f1..fn}(β) of Fig. 4: the occurrence flags are no
        # longer attached to any live position.
        for flag in dead_flags:
            eliminate_variable(state.beta, flag)
        state._note_clauses()
