"""End-to-end ``rowpoly audit`` CLI: parity, gating, schema, metrics.

The audit pipeline's headline contract is byte parity: the findings
document for a corpus is identical whether the Execute stage ran
offline in-process, over a worker pool, against a single daemon, or
against a 4-shard router fleet.  These tests drive the real CLI
(``repro.cli.main``) against real servers over loopback TCP.
"""

import json
import os

import pytest

from repro.cli import main
from repro.server.daemon import Daemon, DaemonConfig
from repro.server.router import Router, RouterConfig

CLEAN = "mk = @{x = 1} ({});\nit = #x mk\n"
BROKEN = "bad = #absent (@{x = 1} ({}));\nuse = plus bad 1\n"

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "schema",
    "audit-findings.schema.json",
)


@pytest.fixture()
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "clean.rp").write_text(CLEAN)
    (root / "broken.rp").write_text(BROKEN)
    (root / "nested").mkdir()
    (root / "nested" / "other.rp").write_text(BROKEN)
    return str(root)


@pytest.fixture()
def live_daemon():
    daemon = Daemon(DaemonConfig(workers=2))
    host, port = daemon.serve_tcp(port=0, background=True)
    yield f"{host}:{port}"
    daemon.request_shutdown()
    assert daemon.wait_drained(timeout=30.0)


@pytest.fixture()
def live_fleet():
    router = Router(RouterConfig(shards=4, workers=1))
    host, port = router.serve_tcp("127.0.0.1", 0, background=True)
    yield f"{host}:{port}"
    router.request_shutdown()
    assert router.wait_drained(60.0), "router drain hung"


def _run_json(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestExecutionModeParity:
    def test_offline_jobs_server_and_fleet_agree_byte_for_byte(
        self, corpus_dir, live_daemon, live_fleet, capsys
    ):
        base = ["audit", "run", corpus_dir, "--json"]
        offline_exit, offline = _run_json(capsys, base)
        jobs_exit, jobs = _run_json(capsys, base + ["--jobs", "2"])
        daemon_exit, daemon = _run_json(
            capsys, base + ["--server", live_daemon]
        )
        fleet_exit, fleet = _run_json(
            capsys,
            base + ["--server", live_fleet, "--shards", "4"],
        )
        assert offline_exit == jobs_exit == daemon_exit == fleet_exit == 1
        assert offline == jobs == daemon == fleet

    @pytest.mark.parametrize("seed", [4, 11])
    def test_every_store_and_server_mode_prints_the_same_bytes(
        self, tmp_path, capsys, seed
    ):
        # Finding ids come from the fingerprints each path carries: a
        # fresh check's, a module store entry's, a daemon's response.
        corpus = str(tmp_path / "corpus")
        assert main([
            "generate", "--corpus-dir", corpus, "--modules", "10",
            "--error-rate", "0.4", "--seed", str(seed),
        ]) == 0
        capsys.readouterr()
        (tmp_path / "corpus" / "broken.rp").write_text(BROKEN)
        base = ["audit", "run", corpus, "--json"]
        store, pool_store = str(tmp_path / "s"), str(tmp_path / "p")
        runs = {
            "offline": _run_json(capsys, base),
            "store cold": _run_json(capsys, base + ["--store", store]),
            "store warm": _run_json(capsys, base + ["--store", store]),
        }
        for label in ("cold", "warm"):
            runs[f"jobs store {label}"] = _run_json(
                capsys, base + ["--jobs", "2", "--store", pool_store]
            )
        served_store = str(tmp_path / "d")
        # No store; a store filled by the first daemon; and that store
        # read by a second one (module entries served from disk, then a
        # replay of the same sources).
        for label, store_dir, audits in (
            ("daemon", None, 1),
            ("daemon store cold", served_store, 1),
            ("daemon store warm", served_store, 2),
        ):
            daemon = Daemon(DaemonConfig(workers=2, store_dir=store_dir))
            host, port = daemon.serve_tcp(port=0, background=True)
            try:
                for audit in range(audits):
                    runs[f"{label} {audit}"] = _run_json(
                        capsys, base + ["--server", f"{host}:{port}"]
                    )
            finally:
                daemon.request_shutdown()
                assert daemon.wait_drained(timeout=30.0)
        code, offline = runs["offline"]
        assert code == 1
        assert '"RP0006"' in offline
        for label, run in runs.items():
            assert run == (code, offline), label

    def test_identical_defects_merge_across_files(
        self, corpus_dir, capsys
    ):
        code, out = _run_json(
            capsys, ["audit", "run", corpus_dir, "--json"]
        )
        document = json.loads(out)
        assert code == 1
        assert document["modules"] == 3
        assert document["modules_with_findings"] == 2
        # broken.rp and nested/other.rp are byte-identical: one finding
        # per code, each citing both files.
        for finding in document["findings"]:
            assert len(finding["occurrences"]) == 2

    def test_clean_corpus_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.rp").write_text(CLEAN)
        code, out = _run_json(
            capsys, ["audit", "run", str(tmp_path), "--json"]
        )
        assert code == 0
        assert json.loads(out)["findings"] == []

    def test_missing_root_is_usage_error(self, tmp_path, capsys):
        assert main(["audit", "run", str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestSchema:
    def test_document_validates_against_published_schema(
        self, corpus_dir, capsys
    ):
        jsonschema = pytest.importorskip("jsonschema")
        with open(SCHEMA_PATH) as handle:
            schema = json.load(handle)
        jsonschema.Draft202012Validator.check_schema(schema)
        _, out = _run_json(
            capsys, ["audit", "run", corpus_dir, "--json"]
        )
        jsonschema.Draft202012Validator(schema).validate(json.loads(out))

    def test_generated_corpus_document_validates(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        corpus = str(tmp_path / "gen")
        assert main([
            "generate", "--corpus-dir", corpus, "--modules", "12",
            "--error-rate", "0.4", "--seed", "3",
        ]) == 0
        capsys.readouterr()
        code, out = _run_json(capsys, ["audit", "run", corpus, "--json"])
        assert code == 1
        with open(SCHEMA_PATH) as handle:
            schema = json.load(handle)
        jsonschema.Draft202012Validator(schema).validate(json.loads(out))


class TestReportAndDiff:
    def _save(self, capsys, corpus_dir, out_path, extra=()):
        code = main(
            ["audit", "run", corpus_dir, "--out", out_path, *extra]
        )
        capsys.readouterr()
        return code

    def test_report_renders_saved_findings(
        self, corpus_dir, tmp_path, capsys
    ):
        findings = str(tmp_path / "findings.json")
        self._save(capsys, corpus_dir, findings)
        assert main(["audit", "report", "--findings", findings]) == 0
        out = capsys.readouterr().out
        assert "RP0001" in out
        assert main([
            "audit", "report", "--findings", findings, "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["modules"] == 3
        assert summary["by_code"]["RP0001"]["findings"] == 1

    def test_diff_of_rename_is_empty_and_exits_zero(
        self, corpus_dir, tmp_path, capsys
    ):
        baseline = str(tmp_path / "baseline.json")
        current = str(tmp_path / "current.json")
        self._save(capsys, corpus_dir, baseline)
        os.replace(
            os.path.join(corpus_dir, "broken.rp"),
            os.path.join(corpus_dir, "renamed.rp"),
        )
        self._save(capsys, corpus_dir, current)
        assert main([
            "audit", "diff", "--baseline", baseline, current, "--json",
        ]) == 0
        delta = json.loads(capsys.readouterr().out)
        assert delta["summary"]["new"] == 0
        assert delta["summary"]["resolved"] == 0
        assert delta["summary"]["persisting"] == 2

    def test_diff_gates_on_injected_regression(
        self, corpus_dir, tmp_path, capsys
    ):
        baseline = str(tmp_path / "baseline.json")
        current = str(tmp_path / "current.json")
        self._save(capsys, corpus_dir, baseline)
        with open(os.path.join(corpus_dir, "regress.rp"), "w") as handle:
            handle.write("mk = @{x = 1} ({});\nregress = #vanished mk\n")
        self._save(capsys, corpus_dir, current)
        assert main([
            "audit", "diff", "--baseline", baseline, current, "--json",
        ]) == 1
        delta = json.loads(capsys.readouterr().out)
        assert delta["summary"]["new"] == 1
        (new,) = delta["new"]
        assert new["code"] == "RP0001"
        assert "regress.rp" in new["repro"]["command"]

    def test_corrupt_findings_file_is_usage_error(
        self, corpus_dir, tmp_path, capsys
    ):
        findings = str(tmp_path / "findings.json")
        self._save(capsys, corpus_dir, findings)
        with open(findings, "a") as handle:
            handle.write("garbage")
        assert main(["audit", "report", "--findings", findings]) == 2
        err = capsys.readouterr().err
        assert "unreadable findings file" in err
        assert os.path.exists(findings + ".corrupt")


class TestStoreAndMetrics:
    def test_warm_reaudit_hits_the_store(
        self, corpus_dir, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        dump = str(tmp_path / "metrics.json")
        args = [
            "audit", "run", corpus_dir, "--json",
            "--store", store, "--metrics-dump", dump,
        ]
        _, cold = _run_json(capsys, args)
        with open(dump) as handle:
            cold_metrics = json.load(handle)
        _, warm = _run_json(capsys, args)
        with open(dump) as handle:
            warm_metrics = json.load(handle)
        assert warm == cold  # byte-identical findings either way
        assert cold_metrics["store"]["misses"] > 0
        assert warm_metrics["store"]["hits"] > 0
        assert warm_metrics["store"]["misses"] == 0
        assert warm_metrics["audit"]["modules_audited"] == 3
        assert warm_metrics["audit"]["shard_sizes"] == {"0": 3}
