"""The stable ``repro.api`` facade and the published report schema.

Three contracts under test:

* the facade returns the same stable payload the CLI prints and the
  daemon serves (one code path, byte-for-byte);
* every ``rowpoly check --json`` output — offline, ``--jobs N`` and
  ``--server`` — validates against ``docs/schema/check-report.schema.json``;
* the public modules import without deprecation warnings.
"""

import json
import os
import warnings

import pytest

from repro import CheckReport, check_path, check_source
from repro.cli import main
from repro.diag import codes

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "schema",
    "check-report.schema.json",
)

WELL_TYPED = """
let make p = {x = p, y = 2};
    get r = #x r;
    out = get (make 1)
in out
"""

ILL_TYPED = "let bad = #a {}; dep = bad in dep"

#: Symmetric concat forces the CDCL solver class — the program a
#: solver-step budget can starve into an `aborted` partial report.
CDCL_MODULE = """
let
  pair = {x = 1, y = 2};
  use = \\r -> #x (r @@ {z = 3});
  it = use pair
in it
"""


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as handle:
        loaded = json.load(handle)
    jsonschema.Draft202012Validator.check_schema(loaded)
    return loaded


def validate(payload, schema):
    jsonschema.validate(payload, schema)


class TestCheckSourceFacade:
    def test_well_typed(self):
        report = check_source(WELL_TYPED)
        assert isinstance(report, CheckReport)
        assert report.ok
        assert report.exit_code == 0
        assert report.codes() == []
        assert report.diagnostics == []
        assert [d["decl"] for d in report.decls] == [
            "make", "get", "out", "it",
        ]

    def test_ill_typed(self):
        report = check_source(ILL_TYPED)
        assert not report.ok
        assert report.exit_code == 1
        # `bad` fails, `dep` and the implicit `it` result are skipped.
        assert report.codes() == [
            codes.MISSING_FIELD, codes.DEPENDENCY, codes.DEPENDENCY,
        ]
        diagnostics = report.diagnostics
        assert diagnostics[0]["code"] == codes.MISSING_FIELD
        assert diagnostics[0]["label"] == "a"
        assert diagnostics[0]["witness"], "expected a witness path"

    def test_parse_failure_is_reported_not_raised(self):
        report = check_source("let = =")
        assert not report.ok
        assert report.exit_code == 2
        assert report.codes() == [codes.PARSE]

    def test_as_dict_and_json_round_trip(self):
        report = check_source(ILL_TYPED)
        assert json.loads(report.to_json()) == report.as_dict()

    def test_fingerprint_present(self):
        assert check_source(WELL_TYPED).fingerprint

    def test_lone_surrogate_is_unreadable_not_raised(self):
        report = check_source("b = 1 \udcff\n", "m.rp")
        assert report.exit_code == 2
        assert report.report == {
            "file": "m.rp",
            "ok": False,
            "error": "IOError",
            "message": "m.rp: not valid Unicode text "
                       "(character 6: surrogates not allowed)",
        }


class TestCheckPathFacade:
    def test_matches_cli_json_output(self, tmp_path, capsys):
        path = tmp_path / "module.rp"
        path.write_text(ILL_TYPED)
        report = check_path(str(path))
        assert main(["check", "--json", str(path)]) == report.exit_code
        cli_payload = json.loads(capsys.readouterr().out)
        assert cli_payload == [report.as_dict()]

    def test_missing_file(self):
        report = check_path("/definitely/not/there.rp")
        assert not report.ok
        assert report.exit_code == 2
        assert report.report["error"] == "IOError"

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "latin1.rp"
        path.write_bytes(b"b = 1 \xff\n")
        report = check_path(str(path))
        assert report.exit_code == 2
        assert report.report == {
            "file": str(path),
            "ok": False,
            "error": "IOError",
            "message": f"{path}: not valid UTF-8 (byte 6: invalid start byte)",
        }


class TestSchemaValidation:
    def test_offline_json_validates(self, tmp_path, capsys, schema):
        (tmp_path / "good.rp").write_text(WELL_TYPED)
        (tmp_path / "bad.rp").write_text(ILL_TYPED)
        (tmp_path / "junk.rp").write_text("let = =")
        main(["check", "--json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        validate(payload, schema)

    def test_jobs_json_validates_and_matches(self, tmp_path, capsys, schema):
        (tmp_path / "good.rp").write_text(WELL_TYPED)
        (tmp_path / "bad.rp").write_text(ILL_TYPED)
        main(["check", "--json", "--jobs", "1", str(tmp_path)])
        serial = capsys.readouterr().out
        main(["check", "--json", "--jobs", "2", str(tmp_path)])
        parallel = capsys.readouterr().out
        assert serial == parallel
        validate(json.loads(serial), schema)

    def test_server_json_validates_identically(
        self, tmp_path, capsys, schema
    ):
        from repro.server.daemon import Daemon, DaemonConfig

        (tmp_path / "good.rp").write_text(WELL_TYPED)
        (tmp_path / "bad.rp").write_text(ILL_TYPED)
        daemon = Daemon(DaemonConfig(workers=2))
        host, port = daemon.serve_tcp(port=0, background=True)
        try:
            main(["check", "--json", str(tmp_path)])
            offline = capsys.readouterr().out
            main([
                "check", "--json", str(tmp_path),
                "--server", f"{host}:{port}",
            ])
            served = capsys.readouterr().out
        finally:
            daemon.request_shutdown()
            assert daemon.wait_drained(timeout=30.0)
        assert served == offline
        validate(json.loads(served), schema)

    def test_facade_report_validates(self, schema):
        for source in (WELL_TYPED, ILL_TYPED, "let = ="):
            validate([check_source(source).as_dict()], schema)

    def test_aborted_partial_report_validates(self, schema):
        from repro.util import Budget

        report = check_source(
            CDCL_MODULE, budget=Budget(solver_steps=1)
        )
        assert report.aborted
        assert report.exit_code == 3
        assert codes.RESOURCE_LIMIT in report.codes()
        validate([report.as_dict()], schema)


class TestDeprecatedExplainUnsat:
    def test_public_modules_import_clean(self):
        # Importing the facade must not trip any deprecation warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro.api  # noqa: F401
            import repro.diag  # noqa: F401
