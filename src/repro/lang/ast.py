"""Abstract syntax of the record calculus L(E) (Fig. 1 + Sect. 5 extensions).

The core grammar of the paper::

    e ::= x | \\x . e | e1 e2 | let x = e1 in e2
        | 0 | 1 | ... | {} | @{N = e} | #N
        | if e then e else e

plus the record operations discussed in Sect. 5::

    e1 @ e2                       -- asymmetric concatenation
    e1 @@ e2                      -- symmetric concatenation
    \\\\N                         -- field removal (a function, like #N)
    when N in x then e1 else e2   -- branch on field presence

Every node records an optional source ``span`` used by error diagnostics.
Nodes are immutable (frozen dataclasses) and hashable by identity of their
content, so they can be used as dictionary keys by analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class Span:
    """Where a node starts in its source: 1-based line and column.

    A span holds no character offset, so a declaration whose text and
    start position are unchanged has the spans a fresh parse would give
    it, wherever the rest of the source moved (the incremental re-parse
    of :func:`repro.lang.module.parse_module` relies on this).
    """

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


NO_SPAN = Span(0, 0)


@dataclass(frozen=True)
class Expr:
    """Base class of all expression nodes."""

    span: Span = field(default=NO_SPAN, compare=False, kw_only=True)


@dataclass(frozen=True)
class Var(Expr):
    """A variable occurrence ``x`` (λ- or let-bound, or a builtin)."""

    name: str


@dataclass(frozen=True)
class Lam(Expr):
    """Abstraction ``\\x . body``."""

    param: str
    body: Expr


@dataclass(frozen=True)
class App(Expr):
    """Application ``fn arg``."""

    fn: Expr
    arg: Expr


@dataclass(frozen=True)
class Let(Expr):
    """``let name = bound in body``; ``name`` may recur in ``bound``.

    The paper's let is Milner-Mycroft: the bound expression may use ``name``
    polymorphically (polymorphic recursion), handled by the (LETREC)
    fixpoint.
    """

    name: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class IntLit(Expr):
    """Integer constant."""

    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    """Boolean constant (used by Sect. 4.4 example programs)."""

    value: bool


@dataclass(frozen=True)
class ListLit(Expr):
    """List literal ``[e1, ..., en]`` (polymorphic lists, Sect. 2.1)."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class EmptyRec(Expr):
    """The empty record ``{}`` : ``{a.Abs}`` / flow ``¬fa``."""


@dataclass(frozen=True)
class Select(Expr):
    """Field selector ``#N`` — a *function* expecting a record."""

    label: str


@dataclass(frozen=True)
class Update(Expr):
    """Field update/addition ``@{N = e}`` — a function on records."""

    label: str
    value: Expr


@dataclass(frozen=True)
class Remove(Expr):
    """Field removal ``\\\\N`` — a function dropping N from its argument.

    Sect. 6: "Our solution was to define an operator to remove a record
    field."  Typeable with 2-variable Horn clauses (Sect. 5).
    """

    label: str


@dataclass(frozen=True)
class Rename(Expr):
    """Field renaming ``@[N -> M]`` — a function renaming field N to M.

    Sect. 5: renaming is implementable with 2-variable Horn clauses.
    """

    old_label: str
    new_label: str


@dataclass(frozen=True)
class If(Expr):
    """Conditional; the scrutinee must have type Int (Fig. 6)."""

    cond: Expr
    then: Expr
    orelse: Expr


@dataclass(frozen=True)
class Concat(Expr):
    """Record concatenation ``left @ right`` (asymmetric by default).

    Asymmetric: on a common field the *right* record wins.  With
    ``symmetric=True`` the operation is ``@@``: sharing a field is a type
    error (Sect. 5), and the flow leaves the Horn fragment.
    """

    left: Expr
    right: Expr
    symmetric: bool = False


@dataclass(frozen=True)
class When(Expr):
    """``when N in x then e1 else e2`` — branch on field presence (Fig. 8).

    ``record`` must be a variable per the paper's rule (the test refines the
    *environment entry* of x).
    """

    label: str
    record: str
    then: Expr
    orelse: Expr


Atom = Union[Var, IntLit, BoolLit, EmptyRec, Select]


def record_literal(
    fields: dict[str, Expr], *, span: Span = NO_SPAN
) -> Expr:
    """Desugar ``{n1 = e1, ..., nk = ek}`` to updates applied to ``{}``.

    ``{foo = 1, bar = 2}`` becomes ``@{bar=2} (@{foo=1} {})``; the order of
    application is the textual field order.
    """
    expr: Expr = EmptyRec(span=span)
    for label, value in fields.items():
        expr = App(Update(label, value, span=span), expr, span=span)
    return expr


def free_variables(expr: Expr) -> frozenset[str]:
    """The free program variables of ``expr``.

    ``when N in x`` counts ``x`` as a free occurrence.
    """
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Lam):
        return free_variables(expr.body) - {expr.param}
    if isinstance(expr, App):
        return free_variables(expr.fn) | free_variables(expr.arg)
    if isinstance(expr, Let):
        return (free_variables(expr.bound) | free_variables(expr.body)) - {
            expr.name
        }
    if isinstance(expr, ListLit):
        out: frozenset[str] = frozenset()
        for item in expr.items:
            out |= free_variables(item)
        return out
    if isinstance(expr, Update):
        return free_variables(expr.value)
    if isinstance(expr, If):
        return (
            free_variables(expr.cond)
            | free_variables(expr.then)
            | free_variables(expr.orelse)
        )
    if isinstance(expr, Concat):
        return free_variables(expr.left) | free_variables(expr.right)
    if isinstance(expr, When):
        return (
            frozenset((expr.record,))
            | free_variables(expr.then)
            | free_variables(expr.orelse)
        )
    return frozenset()


def subexpressions(expr: Expr):
    """Yield ``expr`` and all its subexpressions, pre-order."""
    yield expr
    if isinstance(expr, Lam):
        yield from subexpressions(expr.body)
    elif isinstance(expr, App):
        yield from subexpressions(expr.fn)
        yield from subexpressions(expr.arg)
    elif isinstance(expr, Let):
        yield from subexpressions(expr.bound)
        yield from subexpressions(expr.body)
    elif isinstance(expr, ListLit):
        for item in expr.items:
            yield from subexpressions(item)
    elif isinstance(expr, Update):
        yield from subexpressions(expr.value)
    elif isinstance(expr, If):
        yield from subexpressions(expr.cond)
        yield from subexpressions(expr.then)
        yield from subexpressions(expr.orelse)
    elif isinstance(expr, Concat):
        yield from subexpressions(expr.left)
        yield from subexpressions(expr.right)
    elif isinstance(expr, When):
        yield from subexpressions(expr.then)
        yield from subexpressions(expr.orelse)


def size(expr: Expr) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in subexpressions(expr))
