"""Session-level tests of the persistent store integration.

The contract: a fresh session over a warm store serves byte-identical
reports without solving; edits rehydrate exactly the dependencies a
re-solve needs; aborted (budget-starved) results are never persisted;
and diagnostics survive the disk round-trip bit-for-bit.
"""

import json

import pytest

from repro.infer import InferSession, check_module
from repro.lang import parse_module
from repro.store import open_store
from repro.util import Budget

WELL_TYPED = r"""
let id = \x -> x;
    mk = \v -> {a = v, b = 1};
    get = \r -> #a r;
    use = get (mk true)
in use
"""

ILL_TYPED = "bad = #a (plus 1 true); dep = bad; independent = 1"


def _stable(result):
    """The deterministic per-decl payloads (provenance stripped)."""
    payloads = []
    for report in result.decls:
        payload = report.as_dict()
        payload.pop("cached", None)
        payloads.append(payload)
    return json.dumps(payloads, sort_keys=True)


@pytest.fixture()
def store(tmp_path):
    return open_store(str(tmp_path / "store"))


class TestRestartParity:
    def test_second_session_serves_from_store_without_solving(self, store):
        module = parse_module(WELL_TYPED)
        cold = InferSession("flow", store=store)
        first = cold.check(module)
        assert cold.stats.store_hits == 0
        assert cold.stats.store_misses == len(module)

        warm = InferSession("flow", store=store)
        second = warm.check(module)
        assert second.checked == 0
        assert second.reused == len(module)
        assert warm.stats.store_hits == len(module)
        assert warm.stats.decls_checked == 0
        assert _stable(first) == _stable(second)

    def test_store_run_matches_storeless_run(self, store):
        module = parse_module(WELL_TYPED)
        InferSession("flow", store=store).check(module)
        served = InferSession("flow", store=store).check(module)
        fresh = check_module(parse_module(WELL_TYPED), "flow")
        assert _stable(served) == _stable(fresh)

    def test_error_reports_roundtrip_with_diagnostics(self, store):
        module = parse_module(ILL_TYPED)
        first = InferSession("flow", store=store).check(module)
        warm = InferSession("flow", store=store)
        second = warm.check(module)
        # `bad` and `independent` come from the store; `dep` is a
        # dependency-error, which is re-derived (cheaply, no solving)
        # rather than persisted.
        assert warm.stats.store_hits == 2
        assert second.checked == 1
        assert _stable(first) == _stable(second)
        bad = second.report("bad")
        assert bad.status == "error"
        assert bad.diagnostics  # structured diagnostics survived the disk

    def test_different_options_never_share_entries(self, store):
        from repro.infer import FlowOptions

        module = parse_module(WELL_TYPED)
        InferSession("flow", store=store).check(module)
        other = InferSession(
            "flow", FlowOptions(track_fields=False), store=store
        )
        other.check(module)
        assert other.stats.store_hits == 0

    def test_different_engines_never_share_entries(self, store):
        module = parse_module(WELL_TYPED)
        InferSession("flow", store=store).check(module)
        other = InferSession("mycroft", store=store)
        other.check(module)
        assert other.stats.store_hits == 0


class TestRehydration:
    def test_edit_rehydrates_dependencies_and_matches_fresh(self, store):
        module = parse_module(WELL_TYPED)
        InferSession("flow", store=store).check(module)

        edited = parse_module(
            WELL_TYPED.replace("get (mk true)", "get (mk false)")
        )
        warm = InferSession("flow", store=store)
        result = warm.check(edited)
        # `use` changed and must re-solve; its dependencies `get` and
        # `mk` were served from the store (no live engine state), so the
        # session rehydrates them first. Everything else stays served.
        assert result.checked > 0
        assert result.checked < len(edited)
        assert warm.stats.decls_rehydrated >= 2
        fresh = check_module(edited, "flow")
        assert _stable(result) == _stable(fresh)


class TestAbortedNeverPersisted:
    def test_budget_starved_run_leaves_no_entries_behind(self, tmp_path):
        from repro.store import DiskStore

        root = str(tmp_path / "store")
        module = parse_module(WELL_TYPED)
        starved = InferSession("flow", store=open_store(root))
        result = starved.check(module, budget=Budget(solver_steps=1))
        aborted = [r for r in result.decls if r.status == "aborted"]
        assert aborted, "budget was not low enough to abort anything"
        disk = DiskStore(root)
        # Whatever completed before the budget tripped may be stored;
        # no aborted declaration's name may appear in any entry.
        names = set()
        for path, _ in disk._entries():
            with open(path) as handle:
                payload = json.load(handle)["payload"]
            if "name" in payload:
                names.add(payload["name"])
        assert names.isdisjoint({r.name for r in aborted})

    def test_completed_budgeted_run_replays_byte_identically(self, store):
        module = parse_module(WELL_TYPED)
        first = InferSession("flow", store=store).check(
            module, budget=Budget(solver_steps=1_000_000)
        )
        assert all(r.status == "ok" for r in first.decls)
        # Budget is deliberately not part of the cache key: a completed
        # run is byte-identical to an unbudgeted one, so an unbudgeted
        # session may serve it.
        warm = InferSession("flow", store=store)
        second = warm.check(module)
        assert second.checked == 0
        assert _stable(first) == _stable(second)


class TestDegradation:
    def test_failing_store_still_checks_correctly(self, tmp_path):
        """Every store I/O failing (injected) costs performance only."""
        from repro.store import DiskStore
        from repro.testing.faults import FaultRule, injected

        store = DiskStore(str(tmp_path / "store"))
        module = parse_module(WELL_TYPED)
        with injected([
            FaultRule("store.get", 1.0, "io"),
            FaultRule("store.put", 1.0, "io"),
        ]):
            result = InferSession("flow", store=store).check(module)
        assert result.ok
        fresh = check_module(parse_module(WELL_TYPED), "flow")
        assert _stable(result) == _stable(fresh)
        assert store.stats()["io_errors"] > 0
        assert store.stats()["entries"] == 0


class TestMovedFailingDeclaration:
    """A stored failing report names positions; another file holding the
    same declarations elsewhere must not be served them."""

    SOURCE = "a = {}\n;\nb = #foo a\n"
    MOVED = "\n\n" + SOURCE

    def test_shared_store_across_two_files(self, store):
        from repro.server.service import check_source

        check_source("first.rp", self.SOURCE, store=store)
        served = check_source("second.rp", self.MOVED, store=store)
        offline = check_source("second.rp", self.MOVED)
        assert served.report == offline.report
        assert served.report["decls"][1]["line"] == 5

    def test_same_position_is_still_a_hit(self, store):
        module = parse_module(self.SOURCE)
        first = InferSession("flow", store=store).check(module)
        warm = InferSession("flow", store=store)
        second = warm.check(parse_module(self.SOURCE))
        assert warm.stats.store_hits == 2
        assert _stable(first) == _stable(second)

    def test_failing_payload_without_a_layout_is_a_miss(self):
        from repro.store.backend import MemoryCache

        class LayoutFree(MemoryCache):
            """Keeps payloads as a store written before layouts: none."""

            def put(self, key, payload):
                super().put(
                    key, {k: v for k, v in payload.items() if k != "layout"}
                )

        store = LayoutFree()
        module = parse_module(self.SOURCE)
        first = InferSession("flow", store=store).check(module)
        warm = InferSession("flow", store=store)
        second = warm.check(module)
        assert warm.stats.store_hits == 1  # `a`, whose report is ok
        assert second.report("b").status == "error"
        assert not second.report("b").cached
        assert _stable(first) == _stable(second)
