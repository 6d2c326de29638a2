"""Metamorphic property: incremental recheck ≡ from-scratch check.

For any module and any stream of single-declaration edits, an
:class:`~repro.infer.InferSession` that replays the edits with
:meth:`recheck` must agree — declaration for declaration, on status,
error class and canonical signature — with a fresh session checking the
final module from scratch.  Ill-typed intermediate and final states are
deliberately in scope: error propagation must be as deterministic as
success.

Modules are drawn from body templates over a small expression pool, with
holes optionally filled by references to earlier declarations, so the
generated dependency graphs exercise caching, invalidation and
(sometimes) dependency errors across all four session engines.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer import REGISTRY, InferSession, check_module
from repro.lang import parse
from repro.lang.module import Decl, Module

import pytest

#: Closed declaration bodies (no holes).
CLOSED_BODIES = (
    "42",
    "true",
    r"\x -> x",
    "{a = 1, b = true}",
    r"\r -> #a r",
    r"\r -> @{c = 2} r",
    "plus 1 2",
    "#a (plus 1 true)",  # ill-typed under every engine
)

#: Bodies with a hole for a reference to an earlier declaration.  Some
#: combinations are deliberately ill-typed (e.g. applying a record).
HOLE_BODIES = (
    "{hole}",
    "({hole}) 1",
    r"\x -> ({hole}) x",
    "#a ({hole})",
    "@{{z = 3}} ({hole})",
    "plus 1 ({hole})",
)

NAMES = tuple(f"d{index}" for index in range(6))


def _decl(index: int, choice: int, dep: int | None) -> Decl:
    if dep is None or index == 0:
        source = CLOSED_BODIES[choice % len(CLOSED_BODIES)]
    else:
        template = HOLE_BODIES[choice % len(HOLE_BODIES)]
        source = template.format(hole=NAMES[dep % index])
    return Decl(NAMES[index], parse(source))


@st.composite
def modules(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    decls = []
    for index in range(count):
        choice = draw(st.integers(min_value=0, max_value=23))
        dep = (
            draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
            if index > 0
            else None
        )
        decls.append(_decl(index, choice, dep))
    return Module(tuple(decls))


@st.composite
def edit_streams(draw):
    module = draw(modules())
    count = draw(st.integers(min_value=1, max_value=3))
    edits = []
    for _ in range(count):
        index = draw(st.integers(min_value=0, max_value=len(module) - 1))
        choice = draw(st.integers(min_value=0, max_value=23))
        dep = (
            draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
            if index > 0
            else None
        )
        edits.append(_decl(index, choice, dep))
    return module, edits


def _summary(result):
    return [
        (r.name, r.status, r.error_class, r.signature) for r in result.decls
    ]


@pytest.mark.parametrize("engine", REGISTRY.session_names())
@settings(max_examples=25, deadline=None)
@given(data=edit_streams())
def test_recheck_equals_fresh_check(engine, data):
    module, edits = data
    session = InferSession(engine)
    session.check(module)
    current = module
    for edit in edits:
        current = current.with_decl(edit.name, edit.expr)
        incremental = session.recheck(current)
        fresh = check_module(current, engine)
        assert _summary(incremental) == _summary(fresh)
        # The incremental pass must not re-infer outside the edited
        # declaration's cone of influence.
        rechecked = {r.name for r in incremental.decls if not r.cached}
        allowed = {edit.name} | set(current.dependents()[edit.name])
        assert rechecked <= allowed
