"""Flow exports cross the store: a dependent imports them, never guesses.

A store entry of an ``ok`` flow declaration carries its export (scheme
body, signature clauses in β order, flag names), each id renumbered by
its rank, and the layout stamp its flag names were made at.  A session
that needs the export of a store-served declaration imports it with
fresh ids drawn in rank order, and re-infers it only when the entry has
no usable export.  Every path must print what an offline check prints.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdsl import FIG9_CORPORA, build_corpus
from repro.infer import InferSession, check_module
from repro.infer.engines import FlowExport, FlowSessionEngine
from repro.lang import parse_module
from repro.server.service import check_source
from repro.store.backend import MemoryCache
from repro.types.terms import TFun, TList, TRec, TVar

#: ``use`` fails with an RP0001 whose witness cites the record made in
#: ``mk`` and the select in ``get``: positions that reach ``use`` only
#: through the flag names of those two declarations' exports.
FAILING = "mk = \\v -> @{a = v} {};\nget = \\r -> #b r;\nuse = get (mk 1)\n"
#: The same ``mk`` and ``get``, with a ``use`` that needs neither.
SEED = FAILING.replace("use = get (mk 1)", "use = 1")

WELL_TYPED = (
    "id = \\x -> x;\nmk = \\v -> {a = v, b = 1};\nget = \\r -> #a r;\n"
    "use = get (mk true)\n"
)


def _bytes(outcome) -> str:
    return json.dumps(outcome.report, indent=2, sort_keys=True)


def _stable(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def _checks(source: str, engine: FlowSessionEngine) -> dict:
    """Every declaration's check, in order, as a session makes them."""
    module = parse_module(source)
    dependencies = module.dependencies()
    checks = {}
    for decl in module:
        checks[decl.name] = engine.check_decl(
            decl, [(dep, checks[dep]) for dep in dependencies[decl.name]]
        )
    return checks


def _pairs(old, new, out) -> None:
    """(kind, old id, new id) for every variable and flag, walking two
    bodies of the same shape side by side."""
    assert type(old) is type(new)
    if isinstance(old, TVar):
        out += [("t", old.var, new.var), ("f", old.flag, new.flag)]
    elif isinstance(old, TList):
        _pairs(old.elem, new.elem, out)
    elif isinstance(old, TFun):
        _pairs(old.arg, new.arg, out)
        _pairs(old.res, new.res, out)
    elif isinstance(old, TRec):
        assert old.labels() == new.labels()
        if old.row is not None:
            out += [("r", old.row.var, new.row.var),
                    ("f", old.row.flag, new.row.flag)]
        for f, g in zip(old.fields, new.fields):
            out.append(("f", f.flag, g.flag))
            _pairs(f.type, g.type, out)
    else:
        assert old == new


class TestCodec:
    @settings(max_examples=12, deadline=None)
    @given(
        corpus=st.sampled_from(FIG9_CORPORA),
        seed=st.integers(min_value=0, max_value=40),
        advance=st.integers(min_value=0, max_value=300),
    )
    def test_round_trip_keeps_signature_and_id_order(
        self, corpus, seed, advance
    ):
        source = build_corpus(corpus, 0.02, seed=seed).source
        origin = FlowSessionEngine()
        target = FlowSessionEngine()
        for _ in range(advance):
            target.vars.fresh_type_var()
            target.vars.fresh_row_var()
            target.flags.fresh()
        for name, check in _checks(source, origin).items():
            data = json.loads(json.dumps(origin.encode_export(check)))
            floor = (target.vars._next_type, target.vars._next_row,
                     target.flags.issued + 1)
            imported = target.decode_export(data)
            assert imported is not None, name
            assert imported.signature == check.signature
            assert imported.type_text == check.type_text
            assert imported.flow_text == check.flow_text
            old, new = check.export, imported.export
            assert isinstance(new, FlowExport)
            pairs = []
            _pairs(old.scheme.body, new.scheme.body, pairs)
            for kind, start in zip("trf", floor):
                mapping = {a: b for k, a, b in pairs if k == kind}
                assert len(set(mapping.values())) == len(mapping)
                olds = sorted(mapping)
                # Fresh ids, in the exported ids' relative order.
                assert [mapping[a] for a in olds] == sorted(mapping.values())
                assert all(b >= start for b in mapping.values())
            flags = {a: b for k, a, b in pairs if k == "f"}
            assert list(new.flow.clauses()) == [
                tuple(flags[abs(lit)] * (1 if lit > 0 else -1)
                      for lit in clause)
                for clause in old.flow.clauses()
            ]
            assert new.names == {
                flags[flag]: text for flag, text in old.names.items()
            }
            assert new.scheme.quantified_type_vars == frozenset(
                b for k, a, b in pairs if k == "t")
            assert new.scheme.quantified_row_vars == frozenset(
                b for k, a, b in pairs if k == "r")

    def test_malformed_exports_decode_to_none(self):
        engine = FlowSessionEngine()
        check = _checks(WELL_TYPED, engine)["get"]
        good = engine.encode_export(check)
        assert engine.decode_export(good).signature == check.signature
        n_tvars, n_rvars, n_flags = good["vars"]
        bad = [
            None,
            [],
            {**good, "vars": [n_tvars, n_rvars]},  # wrong arity
            {**good, "vars": [n_tvars, n_rvars, -1]},
            {**good, "vars": [n_tvars, n_rvars, 10 ** 9]},
            {**good, "type": good["type"][:-1]},  # truncated
            {**good, "type": good["type"] + ["i"]},  # trailing codes
            {**good, "type": ["v", n_tvars, 1]},  # rank out of range
            {**good, "type": ["v", -1, 1]},  # negative rank
            {**good, "type": ["q"]},  # no such tag
            {**good, "type": ["r", 1, -1, 0, 7, 1, "i"]},  # label not text
            {**good, "flow": [3, 1, 2]},  # clause wider than the list
            {**good, "flow": [1, 0]},  # literal 0
            {**good, "flow": [1, n_flags + 1]},
            {**good, "names": [1]},  # odd length
            {**good, "names": [0, "x"]},  # names no flag
            {key: value for key, value in good.items() if key != "flow"},
        ]
        for data in bad:
            assert engine.decode_export(data) is None, data


class TestImport:
    def test_edited_dependent_imports_its_dependencies(self):
        store = MemoryCache()
        InferSession(store=store).check(parse_module(WELL_TYPED))
        edited = parse_module(WELL_TYPED.replace("mk true", "mk false"))
        warm = InferSession(store=store)
        calls = []
        check_decl = warm.engine.check_decl
        warm.engine.check_decl = (
            lambda decl, *args, **kwargs:
            calls.append(decl.name) or check_decl(decl, *args, **kwargs)
        )
        result = warm.check(edited)
        assert warm.stats.decls_imported == warm.stats.decls_rehydrated
        assert warm.stats.decls_imported >= 2
        assert calls == ["use"]  # no inference but the edited one's
        assert _stable(result) == _stable(check_module(edited))

    def test_failing_dependent_witness_crosses_imported_names(self):
        store = MemoryCache()
        check_source("m.rp", SEED, store=store)
        warm = InferSession(store=store)
        served = check_source("m.rp", FAILING, session=warm)
        offline = check_source("m.rp", FAILING)
        assert warm.stats.decls_imported == warm.stats.decls_rehydrated == 2
        assert _bytes(served) == _bytes(offline)
        use = served.report["decls"][2]
        assert use["code"] == "RP0001"
        witness = use["diagnostics"][0]["witness"]
        assert [step["pos"] for step in witness] == [
            {"line": 1, "column": 21},  # in mk
            {"line": 2, "column": 13},  # in get
        ]

    def test_prelude_at_another_position_is_reinferred(self):
        store = MemoryCache()
        check_source("a.rp", SEED, store=store)
        moved = "\n\n" + FAILING
        warm = InferSession(store=store)
        served = check_source("b.rp", moved, session=warm)
        offline = check_source("b.rp", moved)
        assert warm.stats.store_hits == 2  # `mk` and `get`: ok reports
        assert warm.stats.decls_imported == 0
        assert warm.stats.decls_rehydrated == 2
        assert _bytes(served) == _bytes(offline)
        witness = served.report["decls"][2]["diagnostics"][0]["witness"]
        assert witness[0]["pos"] == {"line": 3, "column": 21}

    def test_ok_payloads_carry_an_export_and_all_a_layout(self):
        store = MemoryCache()
        check_source("m.rp", FAILING, store=store)
        payloads = [p for p in store._entries.values() if "name" in p]
        assert {p["name"] for p in payloads if "export" in p} == {
            "mk", "get"}
        assert all("layout" in p for p in payloads)


class _Corrupting(MemoryCache):
    """Stores every export through ``corrupt``."""

    def __init__(self, corrupt) -> None:
        super().__init__()
        self.corrupt = corrupt

    def put(self, key, payload):
        if "export" in payload:
            payload = {**payload, "export": self.corrupt(payload["export"])}
        super().put(key, payload)


class TestMalformedExportFallsBack:
    CORRUPTIONS = {
        "bad rank": lambda e: {**e, "type": ["v", 0, e["vars"][2] + 5]},
        "wrong arity": lambda e: {**e, "vars": e["vars"][:2]},
        "truncated": lambda e: {**e, "type": e["type"][:3]},
        # Well-formed, but not the stored signature's scheme.
        "other scheme": lambda e: {
            "vars": [0, 0, 0], "type": ["i"], "flow": [], "names": []},
        "not an object": lambda e: "export",
    }

    def test_every_corruption_reinfers_and_matches_offline(self):
        for label, corrupt in self.CORRUPTIONS.items():
            for source, seed in ((WELL_TYPED.replace("mk true", "mk false"),
                                  WELL_TYPED), (FAILING, SEED)):
                store = _Corrupting(corrupt)
                check_source("m.rp", seed, store=store)
                warm = InferSession(store=store)
                served = check_source("m.rp", source, session=warm)
                assert warm.stats.decls_imported == 0, label
                assert warm.stats.decls_rehydrated >= 2, label
                assert _bytes(served) == _bytes(
                    check_source("m.rp", source)), label
