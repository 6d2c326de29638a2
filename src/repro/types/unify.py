"""Unification of polytypes, including Rémy-style row unification.

``mgu`` computes the most general unifier of two stripped type terms (or two
whole environments, pointwise).  Records unify by rewriting rows: fields
present on only one side are pushed into the other side's row variable, and
two open tails are unified through a fresh common tail (Rémy [19]).

Occurs checks cover both type variables and row variables; the paper's
Sect. 6 describes a real occurrence of the row occurs check (a monadic
action stored inside the state record of the monad itself).
"""

from __future__ import annotations

from typing import Optional

from .subst import Subst
from .terms import (
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
)


class UnifyError(Exception):
    """Unification failure; carries the two clashing subterms."""

    def __init__(self, message: str, left: Optional[Type] = None,
                 right: Optional[Type] = None) -> None:
        super().__init__(message)
        self.left = left
        self.right = right


class OccursCheckError(UnifyError):
    """A variable would have to contain itself (infinite type)."""


def _plain_texts(*terms: Type) -> list[str]:
    """``terms`` as text, with one first-occurrence naming and no flags.

    A term's variable and flag ids come from the supplies of the session
    that checks it, and a warm, a store-backed and an offline check of
    the same text advance those differently; a message renders the
    terms afresh, so that all three print the same bytes.
    """
    tvars: dict[int, int] = {}
    rvars: dict[int, int] = {}

    def go(t: Type) -> Type:
        if isinstance(t, TVar):
            return TVar(tvars.setdefault(t.var, len(tvars)))
        if isinstance(t, TList):
            return TList(go(t.elem))
        if isinstance(t, TFun):
            return TFun(go(t.arg), go(t.res))
        if isinstance(t, TRec):
            fields = tuple(Field(f.label, go(f.type)) for f in t.fields)
            row = t.row
            if row is not None:
                row = Row(rvars.setdefault(row.var, len(rvars)))
            return TRec(fields, row)
        return t

    return [repr(go(t)) for t in terms]


class _Unifier:
    """Mutable unification state: triangular bindings for both var kinds."""

    def __init__(self, supply: VarSupply) -> None:
        self.supply = supply
        self.type_bindings: dict[int, Type] = {}
        self.row_bindings: dict[int, tuple[tuple[Field, ...], Optional[Row]]] = {}

    # -- walking ---------------------------------------------------------
    def walk(self, t: Type) -> Type:
        """Chase top-level type-variable bindings."""
        while isinstance(t, TVar) and t.var in self.type_bindings:
            t = self.type_bindings[t.var]
        return t

    def flatten_record(self, record: TRec) -> tuple[list[Field], Optional[Row]]:
        """Resolve row bindings so the tail is unbound or absent.

        A label can arrive twice when a bound row var also occurs inside
        one of the record's field types (the binding's fields then
        overlap the literal ones); the two copies describe the same
        field, so their types are unified and one copy kept.
        """
        fields: list[Field] = []
        indices: dict[str, int] = {}

        def add(field: Field) -> None:
            index = indices.get(field.label)
            if index is None:
                indices[field.label] = len(fields)
                fields.append(field)
            else:
                self.unify(fields[index].type, field.type)

        for field in record.fields:
            add(field)
        row = record.row
        while row is not None and row.var in self.row_bindings:
            extra, tail = self.row_bindings[row.var]
            for field in extra:
                add(field)
            row = tail
        return fields, row

    # -- occurs checks -----------------------------------------------------
    def occurs_type(self, var: int, t: Type) -> bool:
        t = self.walk(t)
        if isinstance(t, TVar):
            return t.var == var
        if isinstance(t, TList):
            return self.occurs_type(var, t.elem)
        if isinstance(t, TFun):
            return self.occurs_type(var, t.arg) or self.occurs_type(var, t.res)
        if isinstance(t, TRec):
            fields, _ = self.flatten_record(t)
            return any(self.occurs_type(var, f.type) for f in fields)
        return False

    def occurs_row(self, var: int, t: Type) -> bool:
        t = self.walk(t)
        if isinstance(t, TList):
            return self.occurs_row(var, t.elem)
        if isinstance(t, TFun):
            return self.occurs_row(var, t.arg) or self.occurs_row(var, t.res)
        if isinstance(t, TRec):
            fields, row = self.flatten_record(t)
            if row is not None and row.var == var:
                return True
            return any(self.occurs_row(var, f.type) for f in fields)
        return False

    # -- unification -------------------------------------------------------
    def unify(self, t1: Type, t2: Type) -> None:
        t1 = self.walk(t1)
        t2 = self.walk(t2)
        if isinstance(t1, TVar) and isinstance(t2, TVar) and t1.var == t2.var:
            return
        if isinstance(t1, TVar):
            self.bind_type(t1.var, t2)
            return
        if isinstance(t2, TVar):
            self.bind_type(t2.var, t1)
            return
        if isinstance(t1, TInt) and isinstance(t2, TInt):
            return
        if isinstance(t1, TBool) and isinstance(t2, TBool):
            return
        if isinstance(t1, TCon) and isinstance(t2, TCon) and t1.name == t2.name:
            return
        if isinstance(t1, TList) and isinstance(t2, TList):
            self.unify(t1.elem, t2.elem)
            return
        if isinstance(t1, TFun) and isinstance(t2, TFun):
            self.unify(t1.arg, t2.arg)
            self.unify(t1.res, t2.res)
            return
        if isinstance(t1, TRec) and isinstance(t2, TRec):
            self.unify_records(t1, t2)
            return
        left, right = _plain_texts(t1, t2)
        raise UnifyError(
            f"cannot unify {left} with {right} (constructor clash)", t1, t2
        )

    def bind_type(self, var: int, t: Type) -> None:
        if self.occurs_type(var, t):
            left, right = _plain_texts(TVar(var), t)
            raise OccursCheckError(
                f"occurs check: type variable {left} would contain itself "
                f"in {right}",
                TVar(var),
                t,
            )
        self.type_bindings[var] = t

    def bind_row(
        self, var: int, fields: list[Field], tail: Optional[Row]
    ) -> None:
        # Unifying the common field types in ``unify_records`` can bind
        # a tail that was flattened before the loop ran; overwriting the
        # binding here would silently drop it, so reconcile the two row
        # descriptions by unifying them as records instead.
        existing = self.row_bindings.get(var)
        if existing is not None:
            self.unify(TRec(existing[0], existing[1]),
                       TRec(tuple(fields), tail))
            return
        for f in fields:
            if self.occurs_row(var, f.type):
                raise OccursCheckError(
                    f"occurs check: row variable would contain itself via "
                    f"field {f.label!r}",
                )
        self.row_bindings[var] = (tuple(fields), tail)

    def unify_records(self, r1: TRec, r2: TRec) -> None:
        fields1, tail1 = self.flatten_record(r1)
        fields2, tail2 = self.flatten_record(r2)
        by_label1 = {f.label: f for f in fields1}
        by_label2 = {f.label: f for f in fields2}
        if len(by_label1) != len(fields1) or len(by_label2) != len(fields2):
            left, right = _plain_texts(r1, r2)
            raise UnifyError(
                f"record with duplicate labels: {left} / {right}", r1, r2
            )
        only1 = [f for f in fields1 if f.label not in by_label2]
        only2 = [f for f in fields2 if f.label not in by_label1]
        for label, f1 in by_label1.items():
            f2 = by_label2.get(label)
            if f2 is not None:
                self.unify(f1.type, f2.type)
        if tail1 is not None and tail2 is not None and tail1.var == tail2.var:
            if only1 or only2:
                missing = [f.label for f in only1 + only2]
                raise UnifyError(
                    f"records share a row but differ in fields {missing}",
                    r1,
                    r2,
                )
            return
        if tail2 is None and only1:
            raise UnifyError(
                f"record {_plain_texts(r2)[0]} lacks fields "
                f"{[f.label for f in only1]} and has no row to extend",
                r1,
                r2,
            )
        if tail1 is None and only2:
            raise UnifyError(
                f"record {_plain_texts(r1)[0]} lacks fields "
                f"{[f.label for f in only2]} and has no row to extend",
                r1,
                r2,
            )
        if tail1 is None and tail2 is None:
            return
        if tail1 is None:
            assert tail2 is not None
            self.bind_row(tail2.var, only1, None)
            return
        if tail2 is None:
            self.bind_row(tail1.var, only2, None)
            return
        fresh = Row(self.supply.fresh_row_var())
        self.bind_row(tail1.var, only2, fresh)
        self.bind_row(tail2.var, only1, fresh)

    # -- extraction ----------------------------------------------------------
    def resolve(self, t: Type) -> Type:
        """Fully apply the accumulated bindings to ``t``, stripping flags.

        Unification itself is flag-agnostic (it may be fed flagged terms
        directly, saving a ⇓RP pass over every environment entry), but the
        extracted substitution must be plain: σ ∈ V → P (Sect. 2.4) —
        ``applyS`` freshly decorates every replacement copy.
        """
        t = self.walk(t)
        if isinstance(t, TVar):
            return TVar(t.var) if t.flag is not None else t
        if isinstance(t, TList):
            return TList(self.resolve(t.elem))
        if isinstance(t, TFun):
            return TFun(self.resolve(t.arg), self.resolve(t.res))
        if isinstance(t, TRec):
            fields, row = self.flatten_record(t)
            resolved = tuple(
                Field(f.label, self.resolve(f.type)) for f in fields
            )
            if row is not None and row.flag is not None:
                row = Row(row.var)
            return TRec(resolved, row)
        return t

    def to_subst(self) -> Subst:
        """Produce an idempotent substitution from the bindings.

        Resolution itself can grow the binding maps: flattening a row
        whose bound var also occurs inside a field type merges the
        duplicate label by unifying the two copies.  Extract again until
        no resolution adds a binding, so the result stays idempotent.
        """
        while True:
            before = (len(self.type_bindings), len(self.row_bindings))
            types = {
                var: self.resolve(TVar(var))
                for var in list(self.type_bindings)
            }
            rows = {}
            for var in list(self.row_bindings):
                fields, tail = self.flatten_record(TRec((), Row(var)))
                rows[var] = (
                    tuple(
                        Field(f.label, self.resolve(f.type))
                        for f in fields
                    ),
                    tail,
                )
            if (len(self.type_bindings), len(self.row_bindings)) == before:
                return Subst(types, rows)


def mgu(t1: Type, t2: Type, supply: VarSupply) -> Subst:
    """Most general unifier of two stripped types.

    Fresh row variables needed by row rewriting are drawn from ``supply``.
    Raises :class:`UnifyError` (or :class:`OccursCheckError`) on failure.
    """
    unifier = _Unifier(supply)
    unifier.unify(t1, t2)
    return unifier.to_subst()


def mgu_env(
    env1: dict[str, Type], env2: dict[str, Type], supply: VarSupply
) -> Subst:
    """Pointwise mgu of two environments with equal domains.

    This is the unification underlying the environment meet (Sect. 4.3):
    ``mgu(⇓(t1; ρ1), ⇓(t2; ρ2))`` unifies the κ-bound types *and* every
    program variable's type.
    """
    if set(env1) != set(env2):
        raise UnifyError(
            f"environments bind different variables: "
            f"{sorted(set(env1) ^ set(env2))}"
        )
    unifier = _Unifier(supply)
    for name in env1:
        unifier.unify(env1[name], env2[name])
    return unifier.to_subst()


def unifiable(t1: Type, t2: Type, supply: VarSupply) -> bool:
    """True if the two types unify."""
    try:
        mgu(t1, t2, supply)
    except UnifyError:
        return False
    return True
