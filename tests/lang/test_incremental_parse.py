"""Incremental re-parse ≡ fresh parse.

``parse_module(new, previous=parse_module(old))`` reuses the declarations
an edit left in place and re-parses the rest; a fresh parse of ``new`` is
the reference.  The two must agree on everything a parse produces: the
declaration names, every AST, the line and column of every
node and declaration, and the source index a later incremental parse
starts from.  When one raises, both must raise the same error at the same span.

The edit streams run over generated GDSL decoders and mix literal bumps,
edits of the header and of the ``in`` body, edits that change the line
count, edits that merge or split declarations, and short insertions and
deletions anywhere (including ``;``, newlines, ``--`` and ``in``).
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdsl import FIG9_CORPORA, build_corpus
from repro.lang import LexError, ParseError, parse_module
from repro.lang.ast import Expr

#: Text an edit may insert at a random offset.
SNIPPETS = (
    ";", "\n", "\n\n", "--", "-- note\n", "in", " in ", " ", "x", "7",
    "(", ")", "=", "{}", "let ", "\n    extra = 1;\n", "#", "@",
)

_LITERAL = re.compile(r"\d+")

SOURCES = {
    (index, seed): build_corpus(FIG9_CORPORA[index], 0.02, seed=seed).source
    for index in (0, 1)
    for seed in (0, 1)
}


def dump(node):
    """A node with every field, its span included (ASTs compare spans
    out)."""
    if isinstance(node, Expr):
        return (
            type(node).__name__,
            (node.span.line, node.span.column),
            *(
                dump(getattr(node, f.name))
                for f in dataclasses.fields(node)
                if f.name != "span"
            ),
        )
    if isinstance(node, tuple):
        return tuple(dump(item) for item in node)
    return node


def parsed(source, previous=None):
    """What parsing ``source`` gives: the module's full shape, or the
    error."""
    try:
        module = parse_module(source, previous=previous)
    except (ParseError, LexError) as error:
        return "error", (type(error).__name__, str(error), str(error.span))
    shape = [
        (decl.name, (decl.span.line, decl.span.column), dump(decl.expr))
        for decl in module
    ]
    return module, (shape, module.index)


def apply_edit(source, edit):
    """``source`` after one drawn edit."""
    kind, where, choice = edit
    position = int(where * len(source))
    if kind == "literal":
        literals = list(_LITERAL.finditer(source))
        if literals:
            match = literals[choice % len(literals)]
            bumped = str(int(match.group()) + 1 + choice)
            return source[: match.start()] + bumped + source[match.end():]
    if kind == "header":
        head = source.index("let") + len("let")
        position = int(where * head)
    if kind == "body" and "\nin" in source:
        tail = source.rindex("\nin")
        position = tail + int(where * (len(source) - tail))
    if kind == "merge" and ";" in source:
        separators = [m.start() for m in re.finditer(";", source)]
        cut = separators[choice % len(separators)]
        return source[:cut] + source[cut + 1:]
    if kind == "delete":
        return source[:position] + source[position + 1 + choice % 3:]
    if kind == "lines":
        return source[:position] + "\n" * (1 + choice % 2) + source[position:]
    return source[:position] + SNIPPETS[choice % len(SNIPPETS)] + (
        source[position:]
    )


edits = st.tuples(
    st.sampled_from(
        ("literal", "literal", "insert", "insert", "delete", "header",
         "body", "lines", "merge")
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=60),
)


@settings(max_examples=60, deadline=None)
@given(
    corpus=st.sampled_from(sorted(SOURCES)),
    stream=st.lists(edits, min_size=1, max_size=8),
)
def test_incremental_parse_equals_fresh_parse(corpus, stream):
    source = SOURCES[corpus]
    previous = parse_module(source)
    for edit in stream:
        source = apply_edit(source, edit)
        fresh, fresh_shape = parsed(source)
        incremental, incremental_shape = parsed(source, previous)
        assert incremental_shape == fresh_shape
        if incremental != "error":
            # The next edit is parsed against the last good module, as a
            # warm session does; a broken text leaves it in place.
            previous = incremental


def test_one_literal_edit_reuses_every_other_declaration():
    source = SOURCES[(1, 0)]
    previous = parse_module(source)
    match = re.search(r"@\{(\w+) = (\d+)\}", source)
    start, end = match.span(2)
    edited = source[:start] + str(int(match.group(2)) + 1) + source[end:]
    module = parse_module(edited, previous=previous)
    changed = [
        decl.name for decl, old in zip(module, previous) if decl is not old
    ]
    assert len(module) == len(previous)
    assert changed == [previous.decls[_owner(previous, start)].name]


def test_line_count_edit_reuses_the_declarations_before_it():
    source = SOURCES[(0, 1)]
    previous = parse_module(source)
    middle = previous.index.starts[len(previous.index.starts) // 2]
    edited = source[:middle] + "\n\n" + source[middle:]
    module = parse_module(edited, previous=previous)
    index = _owner(previous, middle)
    assert all(
        decl is old for decl, old in zip(module.decls[:index], previous)
    )
    assert module.decls[index] is not previous.decls[index]
    assert parsed(edited)[1] == parsed(edited, previous)[1]


def test_unchanged_source_returns_the_previous_module():
    previous = parse_module(SOURCES[(0, 0)])
    assert parse_module(SOURCES[(0, 0)], previous=previous) is previous


@pytest.mark.parametrize(
    "old, new",
    [
        # a header edit: the `let` keyword goes
        ("let a = 1; b = 2 in b", "a = 1; b = 2 in b"),
        # the window ends inside a comment that swallows `b`
        ("a = 1; b = 2; c = b", "a = 1; --b = 2; c = b"),
        # a binding renamed: the body declaration's name depends on it
        (
            "let a = 1; b = 2;\nc = 3 in plus a b",
            "let a = 1; it = 2;\nc = 3 in plus a it",
        ),
        # two declarations merged by a deleted separator
        ("a = plus 1\n; b = 2;\nc = 3", "a = plus 1\n b = 2;\nc = 3"),
        # an expression-form module
        ("plus 1 2", "plus 1 3"),
    ],
)
def test_fallbacks_agree_with_a_fresh_parse(old, new):
    previous = parse_module(old)
    assert parsed(new, previous)[1] == parsed(new)[1]


def _owner(module, offset):
    """Index of the binding whose text holds ``offset``."""
    return max(
        index for index, start in enumerate(module.index.starts)
        if start <= offset
    )
