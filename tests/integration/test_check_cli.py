"""Tests for ``rowpoly check`` and the CLI exit-code conventions."""

import io
import json

import pytest

from repro.cli import main

WELL_TYPED = """
let make p = {x = p, y = 2};
    get r = #x r;
    out = get (make 1)
in out
"""

ILL_TYPED = "let bad = #a {}; dep = bad in dep"


def _byte_stdin(data: bytes) -> io.TextIOWrapper:
    """A stdin over ``data`` that, like the interpreter's own, decodes
    leniently: undecodable bytes become surrogates."""
    return io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape"
    )


@pytest.fixture()
def module_file(tmp_path):
    def write(source, name="module.rp"):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    return write


class TestCheckCommand:
    def test_well_typed_file(self, module_file, capsys):
        assert main(["check", module_file(WELL_TYPED)]) == 0
        out = capsys.readouterr().out
        assert "ok (4 declarations)" in out

    def test_directory_collects_rp_files(self, tmp_path, capsys):
        (tmp_path / "a.rp").write_text("a = 1")
        (tmp_path / "b.rp").write_text("b = 2")
        (tmp_path / "ignored.txt").write_text("not a module")
        assert main(["check", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 2

    def test_ill_typed_exit_code_and_diagnostics(self, module_file, capsys):
        assert main(["check", module_file(ILL_TYPED)]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "bad" in captured.err
        assert "FlowUnsatisfiable" in captured.err
        assert "dependency-error" not in captured.out  # details on stderr

    def test_parse_error_exit_code(self, module_file, capsys):
        assert main(["check", module_file("let = = nonsense")]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_missing_path_exit_code(self, capsys):
        assert main(["check", "/definitely/not/there.rp"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_empty_directory_exit_code(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        assert "no module files" in capsys.readouterr().err

    def test_parse_error_dominates_type_error(self, module_file):
        bad_types = module_file(ILL_TYPED, "ill.rp")
        bad_syntax = module_file("let = =", "junk.rp")
        assert main(["check", bad_types, bad_syntax]) == 2

    def test_engines(self, module_file):
        path = module_file(WELL_TYPED)
        for engine in ("flow", "mycroft", "damas-milner", "pottier"):
            assert main(["check", "--engine", engine, path]) == 0

    def test_examples_directory(self):
        assert main(["check", "examples/modules"]) == 0


class TestCheckJson:
    def test_json_payload(self, module_file, capsys):
        assert main(["check", "--json", module_file(WELL_TYPED)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        report = payload[0]
        assert report["ok"] is True
        assert report["engine"] == "flow"
        assert [d["decl"] for d in report["decls"]] == [
            "make", "get", "out", "it",
        ]
        for decl in report["decls"]:
            assert decl["status"] == "ok"
            assert decl["signature"]
            assert "seconds" not in decl

    def test_json_error_payload(self, module_file, capsys):
        assert main(["check", "--json", module_file(ILL_TYPED)]) == 1
        payload = json.loads(capsys.readouterr().out)
        statuses = {d["decl"]: d["status"] for d in payload[0]["decls"]}
        assert statuses["bad"] == "error"
        assert statuses["dep"] == "dependency-error"
        failing = [d for d in payload[0]["decls"] if d["status"] != "ok"]
        assert all(
            {"error", "message", "line", "column"} <= set(d) for d in failing
        )

    def test_jobs_byte_identical_output(self, tmp_path, capsys, monkeypatch):
        for index in range(4):
            source = WELL_TYPED if index % 2 == 0 else ILL_TYPED
            (tmp_path / f"m{index}.rp").write_text(source)
        # One module on stdin too: it must be read once, by this
        # process, whatever N is.
        monkeypatch.setattr("sys.stdin", io.StringIO(WELL_TYPED))
        code_serial = main(
            ["check", "--json", "--jobs", "1", str(tmp_path), "-"]
        )
        serial = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(WELL_TYPED))
        code_parallel = main(
            ["check", "--json", "--jobs", "4", str(tmp_path), "-"]
        )
        parallel = capsys.readouterr().out
        assert code_serial == code_parallel == 1
        assert serial == parallel
        reports = json.loads(serial)
        assert len(reports) == 5
        assert reports[-1]["file"] == "-" and reports[-1]["ok"] is True

    def test_undecodable_file_is_unreadable_at_every_jobs(
        self, tmp_path, capsys
    ):
        (tmp_path / "a.rp").write_text(WELL_TYPED)
        (tmp_path / "b.rp").write_bytes(b"b = 1 \xff\n")
        outputs = []
        for jobs in ("1", "4"):
            assert main(
                ["check", "--json", "--jobs", jobs, str(tmp_path)]
            ) == 2
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        good, bad = json.loads(outputs[0])
        assert good["ok"] is True
        assert bad["error"] == "IOError"
        assert bad["message"].startswith(str(tmp_path / "b.rp"))

    def test_undecodable_stdin_is_unreadable(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", _byte_stdin(b"b = 1 \xff\n"))
        assert main(["check", "--json", "-"]) == 2
        (report,) = json.loads(capsys.readouterr().out)
        assert report["error"] == "IOError"
        assert report["message"] == (
            "-: not valid UTF-8 (byte 6: invalid start byte)"
        )

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
    def test_stdin_translates_newlines_like_a_file(
        self, newline, tmp_path, monkeypatch, capsys
    ):
        # A comment line and a failing declaration below it: without
        # newline translation a CR-only module is one line, which the
        # comment swallows, and the failing line moves.
        data = newline.join(
            [b"-- header", b"a = {}", b";", b"b = #foo a", b""]
        )
        path = tmp_path / "module.rp"
        path.write_bytes(data)
        assert main(["check", "--json", str(path)]) == 1
        (from_file,) = json.loads(capsys.readouterr().out)
        monkeypatch.setattr("sys.stdin", _byte_stdin(data))
        assert main(["check", "--json", "-"]) == 1
        (from_stdin,) = json.loads(capsys.readouterr().out)
        assert from_stdin == dict(from_file, file="-")
        failing = [d for d in from_stdin["decls"] if d["status"] != "ok"]
        assert [(d["decl"], d["line"]) for d in failing] == [("b", 4)]


class TestBudgetFlags:
    """A budget of zero or less is a usage error at parse time."""

    @pytest.mark.parametrize("flag, value", [
        ("--budget-ms", "0"),
        ("--budget-solver-steps", "0"),
        ("--budget-core-queries", "0"),
        ("--budget-max-clauses", "-1"),
    ])
    @pytest.mark.parametrize("command", [["check"], ["audit", "run"]])
    def test_non_positive_budget_is_usage_error(
        self, command, flag, value, module_file, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(command + [module_file(WELL_TYPED), flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive number, not {value}" \
            in err
        assert "Traceback" not in err

    def test_positive_budgets_check(self, module_file, capsys):
        assert main([
            "check", module_file(WELL_TYPED), "--budget-ms", "60000",
            "--budget-solver-steps", "100000", "--budget-core-queries",
            "100", "--budget-max-clauses", "100000",
        ]) == 0


class TestCheckTrace:
    def test_trace_goes_to_stderr(self, module_file, capsys):
        assert main(["check", "--trace", module_file(WELL_TYPED)]) == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.err
        for phase in ("parse=", "infer=", "unify=", "sat=", "gc="):
            assert phase in captured.err
        assert "trace:" not in captured.out

    def test_trace_absent_from_json(self, module_file, capsys):
        assert main(
            ["check", "--trace", "--json", module_file(WELL_TYPED)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "trace" not in payload[0]


class TestInferExitCodes:
    def test_stdin_program(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("plus 20 22"))
        assert main(["infer", "-"]) == 0
        assert "Int" in capsys.readouterr().out

    def test_stdin_ill_typed(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("#a {}"))
        assert main(["infer", "-"]) == 1
        assert "type error" in capsys.readouterr().err

    def test_parse_error_is_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("let = ="))
        assert main(["infer", "-"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["infer", "/definitely/not/there.rp"]) == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_undecodable_file_is_exit_2(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.rp"
        path.write_bytes(b"plus 1 \xff\n")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_undecodable_stdin_is_exit_2(self, command, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", _byte_stdin(b"plus 1 \xff\n"))
        assert main([command, "-"]) == 2
        assert capsys.readouterr().err.startswith("error: -: not valid UTF-8")

    def test_eval_parse_error_is_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 +"))
        assert main(["eval", "-"]) == 2
        assert "parse error" in capsys.readouterr().err
