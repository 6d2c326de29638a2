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

A binding-sequence module also keeps its source and where each
declaration starts in it (:class:`SourceIndex`).  Given the module of
the previous version of a source, :func:`parse_module` re-parses only the
declarations an edit touched and reuses every other :class:`Decl` object,
with the fingerprint and free variables already cached on it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .ast import Expr, Let, Span, Var, NO_SPAN, free_variables, subexpressions
from .lexer import LexError, Token, TokenKind, tokenize
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

    @cached_property
    def free_vars(self) -> frozenset[str]:
        """The free variables of ``expr`` (see :meth:`Module.dependencies`)."""
        return free_variables(self.expr)

    @cached_property
    def layout(self) -> str:
        """Hash of where the declaration and each of its nodes start.

        The complement of :attr:`fingerprint`: two declarations with equal
        fingerprints and equal layouts have equal ASTs, spans included.
        Node spans are the only positions a report or a flag name
        carries, so an edit that moves none of them (a same-length
        literal bump) leaves the layout as it was.
        """
        spans = [self.span] + [e.span for e in subexpressions(self.expr)]
        payload = " ".join(str(span) for span in spans)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Decl({self.name!r})"


@dataclass(frozen=True)
class SourceIndex:
    """Where the declarations of a binding-sequence module sit in its source.

    ``starts[i]`` is the offset of the name of the module's ``i``-th
    declaration, for each binding of the sequence; the declarations after
    those come from the ``in`` body, whose ``in`` is at offset ``body``
    (``None`` when there is no body).  ``main`` names the body's
    declaration.
    """

    source: str
    main: str
    starts: tuple[int, ...]
    body: Optional[int]


class Module:
    """An ordered sequence of uniquely named top-level declarations.

    ``index`` is set on a binding-sequence module parsed from source; it
    is what lets :func:`parse_module` re-parse an edited version of that
    source incrementally.
    """

    __slots__ = ("decls", "_by_name", "index")

    def __init__(
        self,
        decls: tuple[Decl, ...] | list[Decl],
        index: Optional[SourceIndex] = None,
    ) -> None:
        self.decls = tuple(decls)
        self.index = index
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
        position = {decl.name: index for index, decl in enumerate(self.decls)}
        out: dict[str, tuple[str, ...]] = {}
        for index, decl in enumerate(self.decls):
            earlier = sorted(
                position[name]
                for name in decl.free_vars
                if position.get(name, index) < index
            )
            out[decl.name] = tuple(self.decls[i].name for i in earlier)
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


def parse_module(
    source: str,
    main: str = MAIN_DECL,
    previous: Optional[Module] = None,
) -> Module:
    """Parse a module source; raise :class:`ParseError` on junk.

    Accepts a top-level binding sequence (with or without the leading
    ``let`` and trailing ``in body``) or any closed expression (which
    becomes a single declaration named ``main``).

    ``previous`` is the module parsed from an earlier version of the
    source.  Its declarations that an edit left in place are reused, and
    only the touched ones are re-parsed; the result equals a fresh parse
    of ``source`` either way, spans included.  Every error comes from the
    fresh parse.
    """
    if previous is not None:
        module = _reparse(source, main, previous)
        if module is not None:
            return module
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
    decls, starts, body, _ = _bindings(parser, main, set())
    trailing = parser.peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected {trailing.kind.value!r} ({trailing.text!r}) after "
            f"module declarations at {trailing.span}",
            trailing.span,
        )
    return Module(decls, SourceIndex(source, main, tuple(starts), body))


def _bindings(
    parser: _Parser, main: str, taken: set[str]
) -> tuple[list[Decl], list[int], Optional[int], bool]:
    """Parse ``binding (';' binding)* [';'] ['in' body]`` up to EOF.

    The one binding loop of both the fresh and the incremental parse.
    ``taken`` holds the names of the bindings before the parser's first
    token.  Returns the declarations, the offset of each binding's name,
    the offset of ``in`` (``None`` without a body) and whether the last
    binding was closed by a ``;``.
    """
    decls: list[Decl] = []
    starts: list[int] = []
    closed = False
    while True:
        token = parser.peek()
        name, bound = parser.binding()
        decls.append(Decl(name, bound, token.span))
        starts.append(token.offset)
        if not parser.at(TokenKind.SEMI):
            break
        parser.advance()
        if parser.at(TokenKind.KW_IN) or parser.at(TokenKind.EOF):
            closed = True  # tolerate a trailing semicolon
            break
    body_offset: Optional[int] = None
    if parser.at(TokenKind.KW_IN):
        body_offset = parser.advance().offset
        span = parser.peek().span
        body = parser.expr()
        taken = taken | {decl.name for decl in decls}
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
    return decls, starts, body_offset, closed


def _reparse(source: str, main: str, previous: Module) -> Optional[Module]:
    """``source`` parsed by re-using ``previous``, or ``None`` when the
    edit calls for a fresh parse.

    A declaration is reused only when its text is unchanged and it
    starts at the same line and column, so that each of its spans is
    what a fresh parse would give.  The re-parsed window runs from the
    declaration the edit starts in to the first declaration after the
    edit that kept its position, or to the end of the source.  A fresh
    parse is needed when the edit touches the header, when the window
    ends inside a token or comment or is not a run of whole bindings
    each closed by ``;`` (unless it runs to the end), and when its
    bindings are named differently (the body declarations' names
    depend on them).
    """
    index = previous.index
    if index is None or index.main != main:
        return None  # not a binding sequence, or another body name
    old = index.source
    if source == old:
        return previous
    prefix = _common_prefix(old, source)
    suffix = min(
        _common_prefix(old[::-1], source[::-1]),
        min(len(old), len(source)) - prefix,
    )
    old_end = len(old) - suffix
    shift = len(source) - len(old)
    starts = index.starts
    if prefix < starts[0]:
        return None  # the header: `let` and the comments before it
    first = bisect_right(starts, prefix) - 1
    last = len(starts)
    if old.count("\n", prefix, old_end) == source.count(
        "\n", prefix, old_end + shift
    ):
        for later in range(first + 1, len(starts)):
            offset = starts[later]
            if offset > old_end and _column(source, offset + shift) == (
                previous.decls[later].span.column
            ):
                last = later
                break
    start = previous.decls[first].span
    end = len(source) if last == len(starts) else starts[last] + shift
    kept = previous.decls[:first]
    try:
        parser = _Parser(
            tokenize(source, starts[first], end, start.line, start.column)
        )
        window, window_starts, body, closed = _bindings(
            parser, main, {decl.name for decl in kept}
        )
    except (ParseError, LexError):
        return None  # the fresh parse raises it
    if not parser.at(TokenKind.EOF):
        return None
    if last < len(starts):
        replaced = previous.decls[first:last]
        if body is not None or not closed or (
            {decl.name for decl in window}
            != {decl.name for decl in replaced}
        ):
            return None
        window.extend(previous.decls[last:])
        window_starts.extend(offset + shift for offset in starts[last:])
        body = None if index.body is None else index.body + shift
    try:
        return Module(
            kept + tuple(window),
            SourceIndex(
                source, main, starts[:first] + tuple(window_starts), body
            ),
        )
    except ParseError:
        return None  # a duplicate name: the fresh parse raises it


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    low, high = 0, min(len(a), len(b))
    while low < high:
        middle = (low + high + 1) // 2
        if a.startswith(b[low:middle], low):
            low = middle
        else:
            high = middle - 1
    return low


def _column(source: str, offset: int) -> int:
    """The 1-based column of ``source[offset]``."""
    return offset - source.rfind("\n", 0, offset)
