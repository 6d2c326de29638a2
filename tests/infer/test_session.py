"""Tests for module inference sessions: caching, invalidation, parity."""

import pytest

from repro.infer import REGISTRY, InferSession, check_module
from repro.lang import parse, parse_module

WELL_TYPED = r"""
let id = \x -> x;
    mk = \v -> {a = v, b = 1};
    get = \r -> #a r;
    use = get (mk true)
in use
"""


@pytest.fixture(params=REGISTRY.session_names())
def engine(request):
    return request.param


class TestFreshCheck:
    def test_all_declarations_ok(self, engine):
        result = check_module(parse_module(WELL_TYPED), engine)
        assert result.ok
        assert [r.name for r in result.decls] == [
            "id", "mk", "get", "use", "it",
        ]
        assert all(r.signature for r in result.decls)

    def test_flow_signatures_are_concise(self):
        result = check_module(parse_module(WELL_TYPED), "flow")
        get = result.report("get")
        # Projected onto the type's flags and canonically renumbered.
        assert get.type_text == "{a.f1 : a0.f2, r0.f3} -> a0.f4"
        assert "f1" in get.flow_text

    def test_recursive_declaration(self, engine):
        module = parse_module(
            r"len = \l -> if null l then 0 else plus 1 (len (tail l));"
            r"n = len [1, 2, 3]"
        )
        result = check_module(module, engine)
        assert result.ok

    def test_ill_typed_declaration_and_dependents(self, engine):
        # `#a (plus 1 true)` fails under every engine: a unification
        # clash for the term engines, a non-Pre field for Pottier (the
        # plain engines have open rows, so `#a {}` alone would pass).
        module = parse_module(
            "bad = #a (plus 1 true); dep = bad; independent = 1"
        )
        result = check_module(module, engine)
        assert not result.ok
        assert result.report("bad").status == "error"
        assert result.report("bad").error_class
        assert result.report("dep").status == "dependency-error"
        assert result.report("independent").status == "ok"
        assert {d["decl"] for d in result.diagnostics()} == {"bad", "dep"}


class TestIncrementalRecheck:
    def test_noop_recheck_reuses_everything(self, engine):
        module = parse_module(WELL_TYPED)
        session = InferSession(engine)
        session.check(module)
        result = session.recheck(module)
        assert result.checked == 0
        assert result.reused == len(module)
        assert all(r.cached for r in result.decls)

    def test_edit_rechecks_only_decl_and_dependents(self, engine):
        module = parse_module(WELL_TYPED)
        session = InferSession(engine)
        session.check(module)
        edited = module.with_decl("get", parse(r"\r -> #b r"))
        result = session.recheck(edited)
        rechecked = {r.name for r in result.decls if not r.cached}
        assert "get" in rechecked
        assert rechecked <= {"get"} | set(module.dependents()["get"])
        assert result.report("id").cached
        assert result.report("mk").cached

    @pytest.mark.parametrize("cutoff_engine",
                             ["flow", "mycroft", "damas-milner"])
    def test_early_cutoff_on_signature_preserving_edit(self, cutoff_engine):
        # (Pottier is excluded: its abstract-closure signatures include
        # the body text, so an alpha-rename is a signature change there.)
        module = parse_module(WELL_TYPED)
        session = InferSession(cutoff_engine)
        session.check(module)
        # `mk` has dependents, but an alpha-renamed body yields the same
        # canonical signature, so propagation stops at `mk` itself.
        edited = module.with_decl("mk", parse(r"\w -> {a = w, b = 1}"))
        result = session.recheck(edited)
        assert result.checked == 1
        assert result.reused == len(module) - 1

    def test_recheck_matches_fresh_session(self, engine):
        module = parse_module(WELL_TYPED)
        session = InferSession(engine)
        session.check(module)
        edited = module.with_decl("get", parse(r"\r -> #b r"))
        incremental = session.recheck(edited)
        fresh = check_module(edited, engine)
        assert [
            (r.name, r.status, r.signature) for r in incremental.decls
        ] == [(r.name, r.status, r.signature) for r in fresh.decls]

    def test_break_then_fix_recovers(self, engine):
        module = parse_module(WELL_TYPED)
        session = InferSession(engine)
        assert session.check(module).ok
        # A non-lambda body that fails eagerly under every engine
        # (Pottier analyses lambda bodies lazily at call sites).
        broken = module.with_decl("mk", parse("#missing (plus 1 true)"))
        result = session.recheck(broken)
        assert not result.ok
        assert result.report("use").status == "dependency-error"
        fixed = session.recheck(module)
        assert fixed.ok
        # `id` and `get` never changed; only mk + dependents re-ran.
        assert fixed.report("id").cached
        assert fixed.report("get").cached

    def test_removed_declaration_is_invalidated(self):
        module = parse_module("a = {x = 1}; b = 2")
        session = InferSession("flow")
        session.check(module)
        smaller = parse_module("b = 2")
        result = session.recheck(smaller)
        assert result.ok
        assert [r.name for r in result.decls] == ["b"]
        assert result.report("b").cached

    def test_stats_accumulate(self, engine):
        module = parse_module(WELL_TYPED)
        session = InferSession(engine)
        session.check(module)
        session.recheck(module)
        stats = session.stats.as_dict()
        assert stats["checks"] == 2
        assert stats["rechecks"] == 1
        assert stats["decls_checked"] == len(module)
        assert stats["decls_reused"] == len(module)


class TestCanonicalSignatures:
    def test_stable_across_sessions(self, engine):
        # Two sessions allocate different variable/flag ids; the canonical
        # renumbering must hide that.
        module = parse_module(WELL_TYPED)
        first = check_module(module, engine).signatures()
        warmed = InferSession(engine)
        warmed.check(parse_module("unrelated = {q = 7}; z = #q unrelated"))
        second = warmed.recheck(module).signatures()
        assert first == second

    def test_as_dict_is_timing_free(self, engine):
        result = check_module(parse_module(WELL_TYPED), engine)
        payload = result.as_dict()
        assert payload["ok"] is True
        for decl in payload["decls"]:
            assert "seconds" not in decl
            assert "cached" not in decl


class TestUnknownEngine:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            InferSession("banana")


class TestFailingDeclarationTelemetry:
    """A rejected declaration keeps the solver work that explained it."""

    SOURCE = "f r = #x r;\ng = f {}"

    def test_core_extraction_reaches_the_report_and_the_rollup(self):
        result = check_module(parse_module(self.SOURCE), "flow")
        failing = result.report("g")
        assert failing.status == "error" and failing.code == "RP0001"
        assert failing.solver_stats is not None
        assert failing.solver_stats.cores >= 1
        assert failing.solver_stats.unsat_answers >= 1
        rollup = result.solver_rollup()
        assert rollup.cores >= 1
        assert rollup.unsat_answers >= 1

    def test_stable_payload_is_unchanged(self):
        result = check_module(parse_module(self.SOURCE), "flow")
        payload = result.report("g").as_dict()
        assert "solver_stats" not in payload
        assert set(payload) == {
            "decl", "status", "error", "message", "line", "column",
            "code", "diagnostics",
        }


class TestReusedTelemetry:
    """A reused declaration solved nothing in the check that reuses it."""

    SOURCE = "g = \\r -> #x r; h = plus 1 2; k = plus (g {x = 1}) (\\y -> y)"

    def test_recheck_that_reuses_everything_rolls_up_nothing(self):
        session = InferSession("flow")
        module = parse_module(self.SOURCE)
        assert session.check(module).solver_rollup().queries > 0
        again = session.recheck(module)
        assert again.reused == len(module)
        assert again.solver_rollup().queries == 0
        assert all(r.solver_stats is None for r in again.decls)

    def test_reused_report_is_built_once(self):
        session = InferSession("flow")
        module = parse_module(self.SOURCE)
        session.check(module)
        first = session.recheck(module).decls
        second = session.recheck(module).decls
        assert all(a is b for a, b in zip(first, second))


class TestMovedDeclarations:
    """A failing report names source positions (its own, and where the
    records of its witness were made, possibly in a dependency); a warm
    session must re-derive it when the text around it moves."""

    SOURCE = "a = {}\n;\nb = #foo a\n"

    @pytest.mark.parametrize(
        "moved",
        [
            "\n\n" + SOURCE,  # both declarations move down two lines
            "\na = {};\nb = #foo a\n",  # only the dependency moves
            "a =  {}\n;\nb = #foo a\n",  # a node inside the dependency
            "a = {}\n;\nb =  #foo a\n",  # a node inside the declaration
        ],
    )
    def test_warm_session_reports_where_offline_does(self, moved):
        from repro.server.service import check_source

        session = InferSession()
        check_source("m.rp", self.SOURCE, session=session)
        warm = check_source("m.rp", moved, session=session)
        offline = check_source("m.rp", moved)
        assert warm.report["decls"][1]["status"] == "error"
        assert warm.report == offline.report

    def test_unmoved_failing_report_is_reused(self):
        from repro.server.service import check_source

        session = InferSession()
        check_source("m.rp", self.SOURCE, session=session)
        # A new declaration after the failure moves nothing before it.
        edited = self.SOURCE + ";\nc = 1\n"
        checked = session.check(parse_module(edited))
        assert checked.report("b").cached
        assert not checked.report("c").cached

    def test_dependency_error_follows_its_declaration(self):
        source = "a = #x {};\nb = a\n"
        session = InferSession()
        session.check(parse_module(source))
        warm = session.check(parse_module("\n" + source))
        fresh = check_module(parse_module("\n" + source))
        assert warm.report("b").status == "dependency-error"
        assert warm.as_dict() == fresh.as_dict()


class TestFlagNameTable:
    """A warm flow session keeps debug names for what its live exports
    and the current check can reach, not for every flag it issued."""

    def test_name_table_does_not_grow_with_edits(self):
        from repro.gdsl import FIG9_CORPORA, build_corpus

        source = build_corpus(FIG9_CORPORA[1], 0.02, seed=0).source
        session = InferSession()
        session.check(parse_module(source))
        sizes = []
        for bump in range(1, 31):
            edited = source.replace("@{opnd0 = 32}", f"@{{opnd0 = {bump}}}")
            session.check(parse_module(edited, previous=session.module))
            sizes.append(len(session.engine.flags.named_flags()))
        assert sizes[-1] == sizes[0]
        assert session.engine.flags.issued > 10 * sizes[-1]

    def test_export_names_only_its_own_flags(self):
        from repro.types.terms import all_flags

        session = InferSession()
        session.check(parse_module(WELL_TYPED))
        for entry in session._cache.values():
            export = entry.check.export
            assert set(export.names) <= set(all_flags(export.scheme.body))

    def test_fallback_cites_the_selections_its_check_reaches(self):
        # RP0999 lists selections from the check's name table: here the
        # one inside dependency ``k``, reached through its export, and
        # never the selection of ``g``, which ``it`` does not depend on.
        source = (
            "let\n"
            "  g = \\r -> #x r;\n"
            "  k = \\s -> when foo in s then #foo s else #bar s;\n"
            "  it = k {}\n"
            "in it\n"
        )
        expected = (
            "a record field may be accessed without having been set "
            "(asserted selections: 'foo' at {at}, 'foo' at {at})"
        )
        offline = check_module(parse_module(source)).report("it")
        assert offline.code == "RP0999"
        assert offline.message == expected.format(at="3:32")
        session = InferSession()
        session.check(parse_module(source))
        moved = "\n" + source
        warm = session.check(parse_module(moved, previous=session.module))
        assert warm.report("it").message == expected.format(at="4:32")
        assert warm.as_dict() == check_module(parse_module(moved)).as_dict()

    def test_fallback_without_a_selection_in_beta_reads_the_check_table(self):
        # When projection has dropped every asserted selection from β,
        # RP0999 lists the selections the flag supply names: after a
        # reset, only those the check was seeded with.
        from types import SimpleNamespace

        from repro.boolfn.flags import FlagSupply
        from repro.diag.flow_unsat import fallback_diagnostic

        flags = FlagSupply()
        earlier = flags.fresh("select:x@2:13")
        dependency = flags.fresh("select:foo@3:32")
        flags.reset_names({dependency: flags.name_of(dependency)})
        state = SimpleNamespace(
            flags=flags, beta=SimpleNamespace(variables=lambda: set())
        )
        diagnostic = fallback_diagnostic(state)
        assert earlier not in flags.named_flags()
        assert diagnostic.message == (
            "a record field may be accessed without having been set "
            "(asserted selections: 'foo' at 3:32)"
        )
