"""Modules: named top-level declarations (the Fig. 9 workload shape).

The paper's evaluation workload is not one closed expression but a *module*
of hundreds of top-level decoder declarations.  This layer gives the
reproduction the same granularity:

* :class:`Decl` — one named top-level declaration ``name = expr``,
* :class:`Module` — an ordered sequence of declarations (later ones may
  reference earlier ones; a declaration may reference itself recursively),
* :func:`parse_module` — parses module sources.  Three surface forms are
  accepted, so every existing program is also a module:

  1. a top-level binding sequence ``f x = e1; g = e2; ...`` (optionally
     introduced by ``let`` and optionally closed by ``in body``, i.e. the
     existing let-sequence sugar still parses),
  2. a ``let ... in body`` expression, whose outer let-chain is lifted
     into declarations,
  3. any other closed expression, which becomes the sole declaration.

  A trailing body expression becomes a final declaration named ``it``
  (:data:`MAIN_DECL`).

Declarations carry a *fingerprint* (a content hash of the pretty-printed
expression, spans excluded) and the module computes the dependency
relation between declarations — the inputs to the per-declaration result
cache of :class:`repro.infer.session.InferSession`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from .ast import Expr, Let, Span, Var, NO_SPAN, free_variables
from .lexer import Token, TokenKind, tokenize
from .parser import ParseError, _Parser
from .pretty import pretty

#: Name given to the anonymous trailing body of a module source.
MAIN_DECL = "it"


@dataclass(frozen=True)
class Decl:
    """One top-level declaration ``name = expr``.

    ``expr`` may reference ``name`` recursively (Milner-Mycroft let) and
    any declaration that precedes it in the module.
    """

    name: str
    expr: Expr
    span: Span = field(default=NO_SPAN, compare=False)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the declaration, independent of source spans."""
        payload = f"{self.name} = {pretty(self.expr)}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Decl({self.name!r})"


class Module:
    """An ordered sequence of uniquely named top-level declarations."""

    __slots__ = ("decls", "_by_name")

    def __init__(self, decls: tuple[Decl, ...] | list[Decl]) -> None:
        self.decls = tuple(decls)
        self._by_name: dict[str, Decl] = {}
        for decl in self.decls:
            if decl.name in self._by_name:
                raise ParseError(
                    f"duplicate top-level declaration {decl.name!r} "
                    f"at {decl.span}",
                    decl.span,
                )
            self._by_name[decl.name] = decl

    # -- container protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.decls)

    def __iter__(self):
        return iter(self.decls)

    def __getitem__(self, name: str) -> Decl:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> tuple[str, ...]:
        return tuple(decl.name for decl in self.decls)

    # -- dependency structure -------------------------------------------
    def dependencies(self) -> dict[str, tuple[str, ...]]:
        """Direct dependencies of each declaration, in declaration order.

        A dependency is a free variable of the declaration body that names
        an *earlier* declaration (self-references are recursion, not
        dependencies; scoping is sequential, so later names cannot be
        referenced).
        """
        out: dict[str, tuple[str, ...]] = {}
        seen: dict[str, int] = {}
        for index, decl in enumerate(self.decls):
            free = free_variables(decl.expr)
            deps = tuple(
                earlier.name
                for earlier in self.decls[:index]
                if earlier.name in free
            )
            out[decl.name] = deps
            seen[decl.name] = index
        return out

    def dependents(self) -> dict[str, frozenset[str]]:
        """Transitive dependents: decls to re-check when a decl changes."""
        deps = self.dependencies()
        downstream: dict[str, set[str]] = {d.name: set() for d in self.decls}
        for decl in self.decls:
            for dep in deps[decl.name]:
                downstream[dep].add(decl.name)
        # Propagate transitively (decls are topologically ordered already,
        # so one reverse pass suffices).
        for decl in reversed(self.decls):
            expanded = set(downstream[decl.name])
            for dependent in downstream[decl.name]:
                expanded |= downstream[dependent]
            downstream[decl.name] = expanded
        return {name: frozenset(users) for name, users in downstream.items()}

    # -- edits ------------------------------------------------------------
    def with_decl(self, name: str, expr: Expr) -> "Module":
        """A copy of this module with declaration ``name`` rebound."""
        if name not in self._by_name:
            raise KeyError(f"no declaration {name!r} in module")
        return Module(
            tuple(
                Decl(decl.name, expr, decl.span)
                if decl.name == name
                else decl
                for decl in self.decls
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Module({', '.join(self.names())})"


def module_to_expr(module: Module) -> Expr:
    """The module as one closed expression (nested Milner-Mycroft lets).

    The body of the innermost let is the last declaration's variable, so
    typing the expression types every declaration (each outer binding is
    in scope of — though possibly unused by — the body).
    """
    if not module.decls:
        raise ValueError("cannot convert an empty module to an expression")
    last = module.decls[-1]
    body: Expr = Var(last.name, span=last.span)
    for decl in reversed(module.decls):
        body = Let(decl.name, decl.expr, body, span=decl.span)
    return body


def module_from_expr(expr: Expr, main: str = MAIN_DECL) -> Module:
    """Lift the outer let-chain of ``expr`` into declarations.

    The chain stops at the first non-``Let`` node or at a rebinding of an
    already-lifted name; the remaining body becomes a final declaration
    named ``main`` (dropped when it is just a reference to the last
    lifted declaration, the inverse of :func:`module_to_expr`).
    """
    decls: list[Decl] = []
    names: set[str] = set()
    node = expr
    while isinstance(node, Let) and node.name not in names:
        decls.append(Decl(node.name, node.bound, node.span))
        names.add(node.name)
        node = node.body
    if decls and isinstance(node, Var) and node.name == decls[-1].name:
        return Module(decls)
    name = main
    while name in names:
        name += "_"
    decls.append(Decl(name, node, node.span))
    return Module(decls)


def _starts_with_binding(tokens: list[Token]) -> bool:
    """True if the tokens open with ``IDENT IDENT* =`` (a binding head)."""
    index = 0
    if tokens and tokens[0].kind is TokenKind.KW_LET:
        index = 1
    if index >= len(tokens) or tokens[index].kind is not TokenKind.IDENT:
        return False
    while index < len(tokens) and tokens[index].kind is TokenKind.IDENT:
        index += 1
    return index < len(tokens) and tokens[index].kind is TokenKind.EQUALS


def parse_module(source: str, main: str = MAIN_DECL) -> Module:
    """Parse a module source; raise :class:`ParseError` on junk.

    Accepts a top-level binding sequence (with or without the leading
    ``let`` and trailing ``in body``) or any closed expression (which
    becomes a single declaration named ``main``).
    """
    tokens = tokenize(source)
    parser = _Parser(tokens)
    if not _starts_with_binding(tokens):
        expr = parser.expr()
        trailing = parser.peek()
        if trailing.kind is not TokenKind.EOF:
            raise ParseError(
                f"unexpected {trailing.kind.value!r} ({trailing.text!r}) "
                f"after expression at {trailing.span}",
                trailing.span,
            )
        return module_from_expr(expr, main=main)
    if parser.at(TokenKind.KW_LET):
        parser.advance()
    decls: list[Decl] = []
    span = parser.peek().span
    name, bound = parser.binding()
    decls.append(Decl(name, bound, span))
    while parser.at(TokenKind.SEMI):
        parser.advance()
        if parser.at(TokenKind.KW_IN) or parser.at(TokenKind.EOF):
            break  # tolerate a trailing semicolon
        span = parser.peek().span
        name, bound = parser.binding()
        decls.append(Decl(name, bound, span))
    if parser.at(TokenKind.KW_IN):
        parser.advance()
        span = parser.peek().span
        body = parser.expr()
        taken = {decl.name for decl in decls}
        # The body's own outer let-chain is lifted too, so
        # ``let a = 1 in let b = a in e`` and ``let a = 1; b = a in e``
        # produce the same module.
        while isinstance(body, Let) and body.name not in taken:
            decls.append(Decl(body.name, body.bound, body.span))
            taken.add(body.name)
            body = body.body
        body_name = main
        while body_name in taken:
            body_name += "_"
        decls.append(Decl(body_name, body, span))
    trailing = parser.peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected {trailing.kind.value!r} ({trailing.text!r}) after "
            f"module declarations at {trailing.span}",
            trailing.span,
        )
    return Module(decls)
