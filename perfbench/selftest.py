"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that
each prints every metric BENCHMARK.json names, with its unit, and no
failed operation.  Then plants wrong expectations into each known-answer
check and into the percentile guard, which must trip.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

sys.path.insert(0, str(harness.SRC))

import ci_audit  # noqa: E402
import editor_fleet  # noqa: E402
import fig9_cold  # noqa: E402
from run import WORKLOADS  # noqa: E402


class SelfTestError(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def trips(failures: list[str], what: str) -> None:
    expect(bool(failures), f"known-answer check did not trip: {what}")


def load_spec() -> dict:
    with open(harness.REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


#: Toy windows long enough for the percentile guard (20 re-sends).
TOY_SECONDS = {"editor-fleet": 4}


def toy_runs(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            seconds = str(TOY_SECONDS.get(workload, 1))
            argv = [sys.executable, str(HERE / "run.py"), "--workload",
                    workload, "--seed", "3", "--seconds", seconds,
                    "--trace", str(trace), "--toy"]
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=180)
            where = f"{workload} --trace {trace}"
            expect(done.returncode == 0,
                   f"{where}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{where}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{where}: {result['failed']} of {result['attempted']} "
                   f"failed\n{done.stderr}")
            listed = spec["per_layer" if trace else "end_to_end"]
            expect(list(result["metrics"]) == [m["name"] for m in listed],
                   f"{where}: metric names differ from BENCHMARK.json")
            for metric in listed:
                got = result["metrics"][metric["name"]]
                expect(got["unit"] == metric["unit"],
                       f"{where}: {metric['name']} unit {got['unit']}")
                expect(math.isfinite(got["value"]),
                       f"{where}: {metric['name']} = {got['value']}")
                if not trace:
                    expect(got["value"] > 0,
                           f"{where}: {metric['name']} is not positive")
            print(f"ok  {where}: {result['attempted']} operations")


def planted_fig9() -> None:
    good = [
        {"decoder": 0, "mode": "fields", "exit": 0, "digest": "f",
         "statuses": ["ok", "ok"]},
        {"decoder": 0, "mode": "plain", "exit": 0, "digest": "p",
         "statuses": ["ok", "ok"]},
        {"decoder": 0, "mode": "fields", "exit": 0, "digest": "f",
         "statuses": ["ok", "ok"]},
    ]
    expect(fig9_cold.verify(good) == [], "fig9: clean samples fail")
    bad = copy.deepcopy(good)
    bad[0]["exit"] = 1
    trips(fig9_cold.verify(bad), "fig9 check exiting 1")
    bad = copy.deepcopy(good)
    bad[1]["statuses"] = ["ok", "error"]
    trips(fig9_cold.verify(bad), "fig9 verdicts disagreeing")
    bad = copy.deepcopy(good)
    bad[2]["digest"] = "f'"
    trips(fig9_cold.verify(bad), "fig9 report changing between checks")


def planted_editor() -> None:
    requests = [
        {"index": 0, "kind": "edit", "path": "a.rp", "exit": 0,
         "cached": False},
        {"index": 1, "kind": "resend", "path": "a.rp", "exit": 0,
         "cached": True},
    ]
    registry = {"hits": 1, "invalidations": 1, "misses": 0}
    parity = [("a.rp", "{}", "{}")]
    expect(editor_fleet.verify([(requests, registry)], parity) == [],
           "editor: clean traffic fails")
    bad = copy.deepcopy(requests)
    bad[1]["kind"] = "edit"  # a re-send expected to be uncached
    trips(editor_fleet.verify([(bad, registry)], parity),
          "re-send expected uncached")
    bad = copy.deepcopy(requests)
    bad[0]["kind"] = "resend"  # an edit expected to replay
    trips(editor_fleet.verify([(bad, registry)], parity),
          "edit expected cached")
    trips(editor_fleet.verify([(requests, dict(registry, hits=2))], parity),
          "registry replays off by one")
    # Right in total, wrong per fleet: one replay counted by the other.
    trips(editor_fleet.verify([(requests, dict(registry, hits=0)),
                               ([], dict(registry, hits=1,
                                         invalidations=0))], parity),
          "registry replays counted by the wrong fleet")
    trips(editor_fleet.verify([(requests, registry)],
                              [("a.rp", "{}", "[]")]),
          "served report differing from offline")


def planted_ci() -> None:
    import tempfile

    from repro.gdsl import CorpusConfig, generate_corpus, write_corpus

    corpus = generate_corpus(CorpusConfig(modules=ci_audit.TOY_MODULES,
                                          seed=3, error_rate=0.2))
    expected = {m.name: sorted(m.injected) for m in corpus.modules}
    clean = next(name for name, codes in expected.items() if not codes)
    harness.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK_ROOT) as work:
        write_corpus(corpus, f"{work}/corpus")
        off = harness.Tracer(False)
        cold = ci_audit.audit_pass(f"{work}/corpus", f"{work}/store", off)
        warm = ci_audit.audit_pass(f"{work}/corpus", f"{work}/store", off)
    expect(ci_audit.verify(expected, cold, [warm]) == [],
           "ci: clean audit fails")
    wrong = dict(expected, **{clean: ["RP0001", "RP0006"]})
    trips(ci_audit.verify(wrong, cold, [warm]),
          "clean module listed as injected")
    trips(ci_audit.verify(expected, cold, [dict(warm, misses=1)]),
          "warm pass with a store miss")
    trips(ci_audit.verify(expected, cold,
                          [dict(warm, document=warm["document"] + " ")]),
          "warm findings differing from cold")


def planted_percentiles() -> None:
    for function in (harness.p50, harness.tail):
        try:
            function([1.0] * 19, "nineteen samples")
        except harness.PercentileError:
            pass
        else:
            raise SelfTestError(f"{function.__name__} accepted 19 samples")
    got = harness.tail([float(i) for i in range(30)], "thirty")
    expect(got["value"] == 19.0 and got["n"] == 30,
           f"tail of 30 samples: {got}")


def predictions_cover(spec: dict) -> None:
    with open(HERE / "predictions.json") as handle:
        predictions = json.load(handle)
    names = {m["name"] for m in spec["per_layer"]}
    expect(set(predictions["per_layer"]) == names,
           "predictions.json and BENCHMARK.json list different metrics")
    expect(set(predictions["workloads"]) == set(WORKLOADS),
           "predictions.json misses a workload reason")
    expect(set(predictions["end_to_end"]) ==
           {m["name"] for m in spec["end_to_end"]},
           "predictions.json misses an end-to-end metric")


def main() -> int:
    spec = load_spec()
    predictions_cover(spec)
    planted_percentiles()
    planted_fig9()
    planted_editor()
    planted_ci()
    print("ok  planted wrong expectations all tripped")
    toy_runs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
