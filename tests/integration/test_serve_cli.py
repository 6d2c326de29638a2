"""CLI-level tests for the serving layer and the batch telemetry flags.

Covers ``rowpoly check --server`` (byte parity with the offline path),
``rowpoly check --solver-stats``, ``rowpoly client``, and the ``rowpoly
serve`` process lifecycle (TCP announce, SIGTERM drain, metrics dump).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.server.daemon import Daemon, DaemonConfig

WELL_TYPED = """
let make p = {x = p, y = 2};
    get r = #x r;
    out = get (make 1)
in out
"""

ILL_TYPED = "let bad = #a {}; dep = bad in dep"


@pytest.fixture()
def module_dir(tmp_path):
    (tmp_path / "good.rp").write_text(WELL_TYPED)
    (tmp_path / "bad.rp").write_text(ILL_TYPED)
    return str(tmp_path)


@pytest.fixture()
def live_daemon():
    daemon = Daemon(DaemonConfig(workers=2))
    host, port = daemon.serve_tcp(port=0, background=True)
    yield f"{host}:{port}"
    daemon.request_shutdown()
    assert daemon.wait_drained(timeout=30.0)


class TestCheckServerFlag:
    def test_json_is_byte_identical_to_offline(
        self, module_dir, live_daemon, capsys
    ):
        offline_exit = main(["check", module_dir, "--json"])
        offline = capsys.readouterr().out
        served_exit = main(
            ["check", module_dir, "--json", "--server", live_daemon]
        )
        served = capsys.readouterr().out
        assert served_exit == offline_exit == 1  # bad.rp is ill-typed
        assert served == offline

    def test_warm_second_run_is_still_identical(
        self, module_dir, live_daemon, capsys
    ):
        main(["check", module_dir, "--json", "--server", live_daemon])
        first = capsys.readouterr().out
        main(["check", module_dir, "--json", "--server", live_daemon])
        second = capsys.readouterr().out
        assert second == first

    def test_unreachable_server_is_usage_error(self, module_dir, capsys):
        assert (
            main(["check", module_dir, "--server", "127.0.0.1:1"]) == 2
        )
        assert "cannot reach server" in capsys.readouterr().err

    def test_bad_address_is_usage_error(self, module_dir, capsys):
        assert main(["check", module_dir, "--server", "nonsense"]) == 2
        assert "cannot reach server" in capsys.readouterr().err


class TestSolverStatsFlag:
    def test_rollup_on_stdout_in_plain_mode(self, module_dir, capsys):
        assert main(["check", module_dir, "--solver-stats"]) == 1
        out = capsys.readouterr().out
        start = out.index("{")
        rollup = json.loads(out[start:])
        assert rollup["queries"] > 0
        assert "dispatch_counts" in rollup

    def test_rollup_moves_to_stderr_under_json(self, module_dir, capsys):
        main(["check", module_dir, "--json", "--solver-stats"])
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays the pure report array
        rollup = json.loads(captured.err[captured.err.index("{"):])
        assert rollup["queries"] > 0

    def test_jobs_rollup_matches_serial(self, module_dir, capsys):
        main(["check", module_dir, "--solver-stats"])
        serial = capsys.readouterr().out
        main(["check", module_dir, "--solver-stats", "--jobs", "2"])
        parallel = capsys.readouterr().out

        def stable(text):
            rollup = json.loads(text[text.index("{"):])
            rollup.pop("wall_seconds")  # timing is the one unstable field
            return rollup

        assert stable(parallel) == stable(serial)

    def test_server_mode_defers_to_daemon_stats(
        self, module_dir, live_daemon, capsys
    ):
        main(
            ["check", module_dir, "--solver-stats", "--server", live_daemon]
        )
        captured = capsys.readouterr()
        assert "rowpoly client" in captured.err
        assert "{" not in captured.out.splitlines()[-1]  # no local rollup


class TestJsonSpans:
    def test_parse_error_report_has_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.rp"
        path.write_text("x =\n  let = nonsense")
        assert main(["check", str(path), "--json"]) == 2
        report = json.loads(capsys.readouterr().out)[0]
        assert report["ok"] is False
        assert report["error"] == "ParseError"
        assert report["line"] == 2
        assert report["column"] >= 1

    def test_lex_error_report_has_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.rp"
        path.write_text("x = 1 $ 2")
        assert main(["check", str(path), "--json"]) == 2
        report = json.loads(capsys.readouterr().out)[0]
        assert report["error"] in ("LexError", "ParseError")
        assert report["line"] == 1
        assert report["column"] >= 1

    def test_type_error_decls_carry_spans(self, tmp_path, capsys):
        path = tmp_path / "bad.rp"
        path.write_text(ILL_TYPED)
        assert main(["check", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)[0]
        failed = [d for d in report["decls"] if d["status"] != "ok"]
        assert failed
        for decl in failed:
            assert decl["line"] >= 1
            assert decl["column"] >= 1


class TestClientCommand:
    def test_ping_round_trip(self, live_daemon, capsys):
        assert main(["client", live_daemon, "ping"]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["result"] == {"pong": True}

    def test_error_response_exits_nonzero(self, live_daemon, capsys):
        assert main(["client", live_daemon, "frobnicate"]) == 1
        response = json.loads(capsys.readouterr().out)
        assert response["error"]["code"] == -32601

    def test_bad_params_json_is_usage_error(self, live_daemon, capsys):
        assert (
            main(["client", live_daemon, "ping", "--params", "{nope"]) == 2
        )
        assert "--params" in capsys.readouterr().err

    def test_non_object_params_is_usage_error(self, live_daemon, capsys):
        assert main(["client", live_daemon, "ping", "--params", "[1]"]) == 2

    def test_unreachable_server_is_usage_error(self, capsys):
        assert main(["client", "127.0.0.1:1", "ping"]) == 2
        assert "cannot reach server" in capsys.readouterr().err


class TestServeProcess:
    """One full daemon lifecycle through the real CLI entry point."""

    def test_tcp_serve_sigterm_drains_and_dumps_metrics(self, tmp_path):
        dump_path = tmp_path / "metrics.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tcp", "127.0.0.1:0", "--metrics-dump", str(dump_path)],
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            announce = process.stderr.readline()
            assert "listening on" in announce
            address = announce.rsplit(" ", 1)[-1].strip()

            module = tmp_path / "m.rp"
            module.write_text(WELL_TYPED)
            from repro.server.client import ServeClient

            with ServeClient(address, timeout=30.0) as client:
                assert client.ping() is True
                assert client.check(str(module))["exit"] == 0

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)

        stderr_tail = process.stderr.read()
        assert "rowpoly serve metrics" in stderr_tail
        snapshot = json.loads(dump_path.read_text())
        assert snapshot["requests"]["check"]["ok"] == 1
        assert snapshot["sessions"]["misses"] == 1
        assert "queue" in snapshot

    @pytest.mark.parametrize("shards", [[], ["--shards", "1"]],
                             ids=["daemon", "shards-1"])
    def test_stdio_serve_answers_and_drains_on_eof(self, shards, tmp_path):
        """``serve`` without ``--tcp`` speaks JSON-RPC on stdin/stdout."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ])
        )
        check = {"path": "m.rp", "source": WELL_TYPED}
        requests = [
            {"id": 1, "method": "ping"},
            {"id": 2, "method": "check", "params": check},
            {"id": 3, "method": "check", "params": check},
            None,  # a garbage line
            {"id": 5, "method": "frobnicate"},
        ]
        stdin = "".join(
            "{not json\n" if request is None
            else json.dumps(request) + "\n"
            for request in requests
        )
        process = subprocess.run(
            # One worker: the two checks of m.rp are served in order.
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             *shards],
            input=stdin,
            capture_output=True,
            env=env,
            text=True,
            timeout=120.0,
        )
        assert process.returncode == 0, process.stderr
        answers = [json.loads(line) for line in process.stdout.splitlines()]
        assert len(answers) == 5
        by_id = {answer["id"]: answer for answer in answers}
        assert by_id[1]["result"] == {"pong": True}
        assert by_id[2]["result"]["exit"] == 0
        assert by_id[2]["result"]["cached"] is False
        assert by_id[3]["result"]["cached"] is True
        assert by_id[3]["result"]["report"] == by_id[2]["result"]["report"]
        assert by_id[None]["error"]["code"] == -32700
        assert by_id[5]["error"]["code"] == -32601
        assert "rowpoly serve metrics" in process.stderr
