"""Lexer for the concrete syntax of the record calculus.

The concrete syntax follows the paper's Haskell-flavoured examples::

    let f s = if some_cond then
                let s2 = @{foo = 42} s in #foo s2
              else s
    in f {}

Tokens specific to records: ``{}`` (empty record), ``{n = e, ...}``
(record literal sugar), ``#n`` (selector), ``@{n = e}`` (update), ``~n``
(field removal), ``@[old -> new]`` (field renaming), ``@`` / ``@@``
(asymmetric / symmetric concatenation) and the keywords of
``when n in x then e1 else e2``.

Line comments start with ``--``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .ast import Span


class TokenKind(enum.Enum):
    """Lexical token categories."""

    IDENT = "identifier"
    INT = "integer"
    LAMBDA = "\\"
    ARROW = "->"
    EQUALS = "="
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    HASH = "#"
    AT_BRACE = "@{"
    AT_BRACKET = "@["
    AT_AT = "@@"
    AT = "@"
    TILDE = "~"
    KW_LET = "let"
    KW_IN = "in"
    KW_IF = "if"
    KW_THEN = "then"
    KW_ELSE = "else"
    KW_WHEN = "when"
    KW_TRUE = "true"
    KW_FALSE = "false"
    EOF = "end of input"


KEYWORDS = {
    "let": TokenKind.KW_LET,
    "in": TokenKind.KW_IN,
    "if": TokenKind.KW_IF,
    "then": TokenKind.KW_THEN,
    "else": TokenKind.KW_ELSE,
    "when": TokenKind.KW_WHEN,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
}


@dataclass(frozen=True)
class Token:
    """One lexical token: its source span and its character offset."""

    kind: TokenKind
    text: str
    span: Span
    offset: int

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.span}"


class LexError(SyntaxError):
    """Raised on an unrecognised character.

    ``span`` locates the offending character for structured diagnostics.
    """

    def __init__(self, message: str, span: "Span | None" = None) -> None:
        super().__init__(message)
        self.span = span


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<nl>\n)
    | (?P<comment>--[^\n]*)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<atbrace>@\{)
    | (?P<atbracket>@\[)
    | (?P<atat>@@)
    | (?P<arrow>->)
    | (?P<punct>[\\={}()\[\],;#@~])
    """,
    re.VERBOSE,
)

_PUNCT = {
    "\\": TokenKind.LAMBDA,
    "=": TokenKind.EQUALS,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    "#": TokenKind.HASH,
    "@": TokenKind.AT,
    "~": TokenKind.TILDE,
}


def tokenize(
    source: str,
    start: int = 0,
    end: int | None = None,
    line: int = 1,
    column: int = 1,
) -> list[Token]:
    """Tokenize ``source[start:end]``; the result always ends with an EOF
    token at ``end``.

    ``line`` and ``column`` give the position of ``source[start]``, so a
    region cut out of a larger source gets the spans a tokenization of
    the whole source would give it.  A token that runs on past ``end``
    (the region ends inside a comment or a name, say) is a
    :class:`LexError`: the region is not a run of whole tokens.
    """
    if end is None:
        end = len(source)
    tokens: list[Token] = []
    position = start
    line_start = start - column + 1
    while position < end:
        match = _TOKEN_RE.match(source, position)
        if match is None:
            span = Span(line, position - line_start + 1)
            raise LexError(
                f"unexpected character {source[position]!r} at {span}", span
            )
        offset = position
        position = match.end()
        kind_name = match.lastgroup
        text = match.group()
        if position > end:
            span = Span(line, offset - line_start + 1)
            raise LexError(f"{text!r} at {span} runs past the region", span)
        if kind_name == "nl":
            line += 1
            line_start = position
            continue
        if kind_name in ("ws", "comment"):
            continue
        span = Span(line, offset - line_start + 1)
        if kind_name == "int":
            tokens.append(Token(TokenKind.INT, text, span, offset))
        elif kind_name == "ident":
            tokens.append(
                Token(KEYWORDS.get(text, TokenKind.IDENT), text, span, offset)
            )
        elif kind_name == "atbrace":
            tokens.append(Token(TokenKind.AT_BRACE, text, span, offset))
        elif kind_name == "atbracket":
            tokens.append(Token(TokenKind.AT_BRACKET, text, span, offset))
        elif kind_name == "atat":
            tokens.append(Token(TokenKind.AT_AT, text, span, offset))
        elif kind_name == "arrow":
            tokens.append(Token(TokenKind.ARROW, text, span, offset))
        else:
            tokens.append(Token(_PUNCT[text], text, span, offset))
    tokens.append(
        Token(TokenKind.EOF, "", Span(line, end - line_start + 1), end)
    )
    return tokens
