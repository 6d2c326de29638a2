"""perfbench: the layer-attributed benchmark of this repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload in this process (see README.md in this
directory), checks the program's outputs against known answers, and
prints two JSON lines on stdout: a detail record (environment,
calibration loop, sample counts, percentiles, failures) and, last, the
result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list, with
``--trace 1`` its ``per_layer`` list; names and units come from that
file.  A per-layer metric of a layer the workload never crosses (the
store, say, on an in-process check) reads 0.

``--toy`` shrinks every input for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: Workload name -> (module, namespace of its per-layer metrics).
WORKLOADS = {
    "fig9-cold": ("fig9_cold", "fig9"),
    "editor-fleet": ("editor_fleet", "editor"),
    "ci-audit": ("ci_audit", "ci"),
}
#: Per-layer namespace every workload reports.
SHARED_NAMESPACE = "trace"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def select_metrics(spec: dict, workload: str, trace: bool,
                   produced: dict[str, float]) -> dict[str, dict]:
    """BENCHMARK.json's metric list for this mode, with measured values.

    Raises :class:`harness.BenchmarkError` when a listed metric was not
    measured or a measured one is not listed, so the code and the file
    cannot drift apart.
    """
    listed = spec["per_layer" if trace else "end_to_end"]
    own = {WORKLOADS[workload][1], SHARED_NAMESPACE}
    foreign = {ns for _, ns in WORKLOADS.values()} - own
    out: dict[str, dict] = {}
    for metric in listed:
        name = metric["name"]
        if name in produced:
            value = float(produced[name])
        elif trace and name.split(".")[0] in foreign:
            value = 0.0  # a layer this workload never crosses
        else:
            raise harness.BenchmarkError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": metric["unit"]}
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unlisted = sorted(set(produced) - known)
    if unlisted:
        raise harness.BenchmarkError(
            f"measured metrics missing from BENCHMARK.json: {unlisted}")
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no checker sources under {harness.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    with open(harness.REPO_ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    module = importlib.import_module(WORKLOADS[args.workload][0])
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace),
                            args.toy)
        metrics = select_metrics(spec, args.workload, bool(args.trace),
                                 result.metrics)
    except harness.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if result.tracer is not None and result.tracer.spans:
        result.detail["span_self_s"] = result.tracer.self_times()
        result.tracer.write(harness.WORK_ROOT / (
            f"spans-{args.workload}-seed{args.seed}.jsonl"))
    for failure in result.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    detail = {"workload": args.workload, "trace": args.trace,
              **result.detail, "failures": result.failures}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
