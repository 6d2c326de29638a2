"""End-to-end daemon tests over a real TCP socket.

Each test spins up a :class:`~repro.server.daemon.Daemon` on an ephemeral
port and drives it with :class:`~repro.server.client.ServeClient` — the
same stack ``rowpoly serve`` / ``rowpoly check --server`` use.
"""

import json

import pytest

from repro.api import check_path
from repro.infer import InferSession
from repro.lang import parse_module
from repro.server.client import ServeClient, ServeError
from repro.server.daemon import Daemon, DaemonConfig
from repro.server.service import EXIT_ILL_TYPED, EXIT_USAGE, check_source

WELL_TYPED = """
let make p = {x = p, y = 2};
    get r = #x r;
    out = get (make 1)
in out
"""

ILL_TYPED = "let bad = #a {}; dep = bad in dep"

#: Big enough that inference takes well over a millisecond.
SLOW_SCALE = 0.05


@pytest.fixture()
def daemon():
    daemons = []

    def start(**config):
        instance = Daemon(DaemonConfig(**config))
        host, port = instance.serve_tcp(port=0, background=True)
        daemons.append(instance)
        return instance, f"{host}:{port}"

    yield start
    for instance in daemons:
        instance.request_shutdown()
        assert instance.wait_drained(timeout=30.0)


def _report(outcome):
    return json.dumps(outcome, sort_keys=True)


class TestCheckParity:
    def test_matches_offline_check_source(self, daemon):
        _, address = daemon()
        offline = check_source("m.rp", WELL_TYPED)
        with ServeClient(address) as client:
            served = client.check("m.rp", WELL_TYPED)
        assert served["exit"] == offline.exit == 0
        assert _report(served["report"]) == _report(offline.report)

    def test_ill_typed_parity(self, daemon):
        _, address = daemon()
        offline = check_source("m.rp", ILL_TYPED)
        with ServeClient(address) as client:
            served = client.check("m.rp", ILL_TYPED)
        assert served["exit"] == offline.exit == EXIT_ILL_TYPED
        assert _report(served["report"]) == _report(offline.report)

    def test_parse_error_parity_includes_span(self, daemon):
        _, address = daemon()
        source = "let = = nonsense"
        offline = check_source("m.rp", source)
        with ServeClient(address) as client:
            served = client.check("m.rp", source)
        assert served["exit"] == offline.exit == EXIT_USAGE
        assert _report(served["report"]) == _report(offline.report)
        assert "line" in served["report"]
        assert "column" in served["report"]

    def test_replay_hit_returns_identical_report(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            first = client.check("m.rp", WELL_TYPED)
            second = client.check("m.rp", WELL_TYPED)
        assert first["cached"] is False
        assert second["cached"] is True
        assert _report(first["report"]) == _report(second["report"])

    def test_edit_invalidates_and_rechecks(self, daemon):
        instance, address = daemon()
        with ServeClient(address) as client:
            client.check("m.rp", WELL_TYPED)
            edited = WELL_TYPED.replace("p, y = 2", "p, y = 3")
            served = client.check("m.rp", edited)
        assert served["cached"] is False
        assert served["exit"] == 0
        sessions = instance.metrics.snapshot()["sessions"]
        assert sessions["misses"] == 1
        assert sessions["invalidations"] == 1

    def test_path_based_check_reads_the_file(self, daemon, tmp_path):
        _, address = daemon()
        module = tmp_path / "m.rp"
        module.write_text(WELL_TYPED)
        offline = check_source(str(module), WELL_TYPED)
        with ServeClient(address) as client:
            served = client.check(str(module))
        assert _report(served["report"]) == _report(offline.report)

    def test_missing_file_matches_offline_io_report(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            served = client.check("/definitely/not/there.rp")
        assert served["exit"] == EXIT_USAGE
        assert served["report"]["error"] == "IOError"

    def test_undecodable_file_is_unreadable_not_quarantined(
        self, daemon, tmp_path
    ):
        _, address = daemon()
        module = tmp_path / "latin1.rp"
        module.write_bytes(b"b = 1 \xff\n")
        offline = check_path(str(module))
        # One past the default quarantine threshold of three strikes.
        with ServeClient(address) as client:
            answers = [client.check(str(module)) for _ in range(4)]
        for served in answers:
            assert served["exit"] == EXIT_USAGE
            assert _report(served["report"]) == _report(offline.report)

    def test_lone_surrogate_source_is_invalid_params_not_quarantined(
        self, daemon
    ):
        _, address = daemon()
        # One past the default quarantine threshold of three strikes.
        with ServeClient(address) as client:
            for _ in range(4):
                with pytest.raises(ServeError) as excinfo:
                    client.check("m.rp", "b = 1 \udcff\n")
                assert excinfo.value.code == -32602
                assert "not valid Unicode" in str(excinfo.value)
            served = client.check("m.rp", WELL_TYPED)
        assert served["exit"] == 0
        assert _report(served["report"]) == _report(
            check_source("m.rp", WELL_TYPED).report
        )

    def test_edits_of_a_failing_module_match_offline(self, daemon):
        _, address = daemon()
        source = "n = 9;\na = @{x = n} {};\nb = #foo a\n"
        bumped = source.replace("9", "10")
        # The failing `b` and the record its witness names move down.
        moved = "\n\n" + bumped
        with ServeClient(address) as client:
            answers = [client.check("m.rp", text)
                       for text in (source, bumped, moved)]
        for served, text in zip(answers, (source, bumped, moved)):
            offline = check_source("m.rp", text)
            assert served["exit"] == offline.exit == 1
            assert _report(served["report"]) == _report(offline.report)


class TestDeadlines:
    def test_deadline_exceeded_is_structured_and_non_poisoning(self, daemon):
        from repro.gdsl import FIG9_CORPORA, build_corpus

        _, address = daemon(workers=1)
        program = build_corpus(FIG9_CORPORA[0], scale=SLOW_SCALE, seed=0)
        with ServeClient(address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.check("corpus.rp", program.source, deadline_ms=1.0)
            assert excinfo.value.code == 408
            assert excinfo.value.name == "deadline-exceeded"
            assert excinfo.value.data["path"] == "corpus.rp"
            # the session the timeout interrupted must not be poisoned:
            # the very next request on the same path succeeds and agrees
            # with a fresh offline check.
            served = client.check("corpus.rp", program.source)
        offline = check_source("corpus.rp", program.source)
        assert served["exit"] == offline.exit == 0
        assert _report(served["report"]) == _report(offline.report)

    def test_invalid_deadline_is_invalid_params(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.check("m.rp", WELL_TYPED, deadline_ms=-5)
        assert excinfo.value.code == -32602


class TestControlPlane:
    def test_ping(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            assert client.ping() is True

    def test_stats_counts_requests_and_sessions(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            client.check("m.rp", WELL_TYPED)
            client.check("m.rp", WELL_TYPED)
            stats = client.stats()
        assert stats["requests"]["check"]["ok"] == 2
        assert stats["sessions"]["hits"] == 1
        assert stats["sessions"]["misses"] == 1
        assert stats["solver"]["merged_runs"] == 1

    def test_literal_bump_adds_only_the_edited_declarations_queries(
        self, daemon
    ):
        bumped = WELL_TYPED.replace("make 1", "make 2")
        offline = InferSession("flow").check(parse_module(bumped))
        edited = offline.report("out").solver_stats.queries
        assert 0 < edited < offline.solver_rollup().queries
        _, address = daemon()
        with ServeClient(address) as client:
            client.check("m.rp", WELL_TYPED)
            before = client.stats()["solver"]["rollup"]["queries"]
            client.check("m.rp", bumped)
            after = client.stats()["solver"]["rollup"]["queries"]
        assert after - before == edited

    def test_cancel_unknown_request_is_false(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            assert client.cancel(12345) is False

    def test_unknown_method(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.request("frobnicate")
        assert excinfo.value.code == -32601

    def test_unknown_method_names_do_not_grow_the_metrics(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            for method in ("frobnicate", "defenestrate"):
                with pytest.raises(ServeError):
                    client.request(method)
            stats = client.stats()
        for method in ("frobnicate", "defenestrate"):
            assert method not in stats["requests"]
            assert method not in stats["latency"]
        assert stats["requests"]["?"]["invalid"] == 2

    def test_missing_path_is_invalid_params(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.request("check", {})
        assert excinfo.value.code == -32602

    def test_unknown_engine_is_invalid_params(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.request(
                    "check", {"path": "m.rp", "source": "x = 1",
                              "engine": "imaginary"},
                )
        assert excinfo.value.code == -32602

    def test_malformed_json_line_gets_an_error_response(self, daemon):
        _, address = daemon()
        with ServeClient(address) as client:
            client._writer.write("{not json\n")
            client._writer.flush()
            response = json.loads(client._reader.readline())
        assert response["error"]["code"] == -32700


class TestShutdown:
    def test_shutdown_rpc_drains_cleanly(self, daemon):
        instance, address = daemon()
        with ServeClient(address) as client:
            client.check("m.rp", WELL_TYPED)
            result = client.shutdown()
        assert result == {"ok": True, "draining": True}
        assert instance.wait_drained(timeout=30.0)
        # intake is closed after the drain
        assert instance.scheduler.submit is not None  # object still alive
        assert instance.scheduler.draining

    def test_requests_after_shutdown_are_refused(self, daemon):
        instance, address = daemon()
        instance.request_shutdown()
        assert instance.wait_drained(timeout=30.0)
        daemon_responses = []
        instance.handle_line(
            '{"id": 1, "method": "check", "params": {"path": "m.rp", '
            '"source": "x = 1"}}',
            daemon_responses.append,
            client="test",
        )
        assert daemon_responses[0]["error"]["code"] == 503
