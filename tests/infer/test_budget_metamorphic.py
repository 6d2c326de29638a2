"""Metamorphic property: abort-then-retry ≡ fresh check.

For any module, any engine and any resource budget, a session whose
first check was starved (possibly aborting some declarations with
``RP0998``) must, when re-run *unbudgeted on the same session*, agree
declaration-for-declaration with a fresh session that never saw a
budget.  This is the "budgets never poison" contract stated as a
property: exhaustion may cost work, never correctness.

A companion property pins the abort-report shape itself: a budgeted
check's declarations are each ``ok`` (finished inside the budget),
``aborted`` (carrying ``RP0998``), a genuine error, or a
``dependency-error`` shadow — and the ok prefix agrees with the fresh
run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diag import codes
from repro.infer import REGISTRY, InferSession, check_module
from repro.lang import parse
from repro.lang.module import Decl, Module
from repro.util import Budget

#: Bodies biased toward solver work: records, concat (CDCL class),
#: defaults, and a couple of ill-typed ones so genuine errors and
#: aborts coexist in one report.
BODIES = (
    "42",
    "{a = 1, b = true}",
    r"\r -> #a r",
    r"\r -> @{c = 2} r",
    r"\r -> #x (r @@ {z = 3})",
    "({a = 1} @@ {b = 2})",
    "#a (plus 1 true)",  # ill-typed under every engine
    "plus 1 2",
)

HOLE_BODIES = (
    "{hole}",
    "({hole}) 1",
    "#a ({hole})",
    "plus 1 ({hole})",
    "({hole}) @@ {{q = 9}}",
)

NAMES = tuple(f"d{index}" for index in range(5))


def _decl(index: int, choice: int, dep: int | None) -> Decl:
    if dep is None or index == 0:
        source = BODIES[choice % len(BODIES)]
    else:
        template = HOLE_BODIES[choice % len(HOLE_BODIES)]
        source = template.format(hole=NAMES[dep % index])
    return Decl(NAMES[index], parse(source))


@st.composite
def modules(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    decls = []
    for index in range(count):
        choice = draw(st.integers(min_value=0, max_value=23))
        dep = (
            draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
            if index > 0
            else None
        )
        decls.append(_decl(index, choice, dep))
    return Module(tuple(decls))


@st.composite
def budgets(draw):
    kind = draw(st.sampled_from(
        ["solver_steps", "max_clauses", "core_queries", "none"]
    ))
    if kind == "none":
        return None  # degenerate case: the property must hold trivially
    amount = draw(st.integers(min_value=1, max_value=6))
    return Budget(**{kind: amount})


def _summary(result):
    return [
        (r.name, r.status, r.error_class, r.signature) for r in result.decls
    ]


@pytest.mark.parametrize("engine", REGISTRY.session_names())
@settings(max_examples=25, deadline=None)
@given(module=modules(), budget=budgets())
def test_starved_session_retry_equals_fresh(engine, module, budget):
    session = InferSession(engine)
    session.check(module, budget=budget)

    retried = session.check(module)
    fresh = check_module(module, engine)
    assert _summary(retried) == _summary(fresh)
    # Nothing aborted may linger after the unbudgeted retry.
    assert all(r.status != "aborted" for r in retried.decls)


@pytest.mark.parametrize("engine", REGISTRY.session_names())
@settings(max_examples=25, deadline=None)
@given(module=modules(), budget=budgets())
def test_budgeted_report_shape(engine, module, budget):
    session = InferSession(engine)
    starved = session.check(module, budget=budget)
    fresh_by_name = {r.name: r for r in check_module(module, engine).decls}

    for report in starved.decls:
        assert report.status in (
            "ok", "error", "aborted", "dependency-error"
        )
        if report.status == "aborted":
            assert report.error_class == "BudgetExceeded"
            assert report.code == codes.RESOURCE_LIMIT
        elif report.status == "ok":
            # A declaration that finished under the budget reports
            # exactly what an unbudgeted run reports.
            fresh = fresh_by_name[report.name]
            assert (report.status, report.signature) == (
                fresh.status, fresh.signature
            )


@pytest.mark.parametrize("engine", REGISTRY.session_names())
@settings(max_examples=25, deadline=None)
@given(module=modules(), budget=budgets(),
       edit_choice=st.integers(min_value=0, max_value=23))
def test_starved_recheck_retry_equals_fresh(engine, module, budget,
                                            edit_choice):
    """The incremental path: a budget trip mid-recheck never lingers."""
    session = InferSession(engine)
    session.check(module)
    edited = module.with_decl(
        module.decls[0].name, _decl(0, edit_choice, None).expr
    )
    session.recheck(edited, budget=budget)

    retried = session.recheck(edited)
    fresh = check_module(edited, engine)
    assert _summary(retried) == _summary(fresh)
    assert all(r.status != "aborted" for r in retried.decls)


@pytest.mark.parametrize("engine", REGISTRY.session_names())
@settings(max_examples=10, deadline=None)
@given(module=modules())
def test_budget_aborts_are_deterministic(engine, module):
    budget_a = Budget(solver_steps=2)
    budget_b = Budget(solver_steps=2)
    first = InferSession(engine).check(module, budget=budget_a)
    second = InferSession(engine).check(module, budget=budget_b)
    assert _summary(first) == _summary(second)
