"""fig9-cold: the paper's Fig. 9 decoders through the `rowpoly check` path.

Closed loop, one thread, in-process.  One operation is one cold
``check_source`` call (no store, fresh session) on one of the four
``FIG9_CORPORA`` decoders, followed by the JSON encoding ``rowpoly check
--json`` prints.  A round checks every decoder once with field tracking
and once with ``FlowOptions(track_fields=False)``; the run measures
whole rounds only, so every run weighs the four sizes alike.  Lines per
second are per CPU second of this process (see ``harness.cpu_clock``);
the wall-clock figure is kept in the detail record.

The traced run drives the same work through the layers' own entry
points (``parse_module`` -> ``InferSession.check`` -> ``as_dict`` + JSON)
with a span around each.  Every operation of it runs twice on the same
input, once with a recording tracer and once with a disabled one (the
same statements minus the bookkeeping), so the tracing overhead compares
the spans' cost alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from statistics import median

from harness import (
    Result,
    Tracer,
    calibration_loop,
    cpu_clock,
    environment,
    self_peak_rss_mb,
    time_import,
)

SCALE = 0.1
TOY_SCALE = 0.02
IMPORT = "repro.server.service"
MODES = ("fields", "plain")


def build_inputs(seed: int, scale: float) -> list[tuple[str, str, int]]:
    """``(name, source, lines)`` for the four decoders at ``scale``."""
    from repro.gdsl import FIG9_CORPORA, build_corpus

    programs = [build_corpus(spec, scale, seed=seed)
                for spec in FIG9_CORPORA]
    return [(p.name, p.source, p.lines) for p in programs]


def _options(mode: str):
    from repro.infer.state import FlowOptions

    return None if mode == "fields" else FlowOptions(track_fields=False)


def _encode(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _digest(text: str) -> str:
    """What a sample keeps of its report: holding every report's text
    until the end would grow the peak RSS with the number of checks."""
    return hashlib.sha256(text.encode()).hexdigest()


def check_op(name: str, source: str, mode: str) -> dict:
    """One untraced operation: the `rowpoly check --json` routine."""
    from repro.server.service import check_source

    options = _options(mode)
    cpu_started = cpu_clock()
    started = time.perf_counter()
    outcome = check_source(name, source, options=options)
    text = _encode(outcome.report)
    seconds = time.perf_counter() - started
    cpu_seconds = cpu_clock() - cpu_started
    statuses = [d["status"] for d in outcome.report.get("decls", ())]
    return {"exit": outcome.exit, "digest": _digest(text),
            "statuses": statuses, "seconds": seconds,
            "cpu_seconds": cpu_seconds}


def traced_op(tracer: Tracer, name: str, source: str, mode: str) -> dict:
    """The same operation, one span per layer entry point.

    With a disabled ``tracer`` this is the untraced half of the traced
    run.  Counters are read after the clock stops.
    """
    from repro.infer import InferSession
    from repro.lang import parse_module
    from repro.util import run_deep

    options = _options(mode)

    def body():
        with tracer.span("fig9.check"):
            with tracer.span("lang.parse"):
                module = parse_module(source)
            with tracer.span("infer.session"):
                result = InferSession("flow", options).check(module)
            with tracer.span("infer.report"):
                report: dict[str, object] = {"file": name}
                report.update(result.as_dict())
                text = _encode(report)
        return result, text

    mark = len(tracer.spans)
    cpu_started = cpu_clock()
    started = time.perf_counter()
    result, text = run_deep(body)
    seconds = time.perf_counter() - started
    cpu_seconds = cpu_clock() - cpu_started
    layers = {s.name: s.seconds for s in tracer.spans[mark:]}
    rollup = result.solver_rollup()
    return {
        "exit": 0 if result.ok else 1,
        "digest": _digest(text),
        "seconds": seconds,
        "cpu_seconds": cpu_seconds,
        "statuses": [d.status for d in result.decls],
        "layers": layers,
        "phases": result.trace_spans(),
        "solver": {
            "queries": rollup.queries,
            "cache_hits": rollup.cache_hits,
            "rebuilds": rollup.rebuilds,
            "clauses_ingested": rollup.clauses_ingested,
        },
    }


def verify(samples: list[dict]) -> list[str]:
    """Known answers, one failure per failed operation.

    Every generated decoder is well-typed, so every check exits 0; the
    per-declaration verdicts with and without fields agree; and repeated
    (or traced) checks of one input produce byte-identical reports.
    """
    failures: list[str] = []
    reference: dict[tuple[int, str], str] = {}
    verdicts: dict[int, dict[str, list[str]]] = {}
    for sample in samples:
        where = f"decoder {sample['decoder']} {sample['mode']}"
        if sample["exit"] != 0:
            failures.append(f"{where}: exit {sample['exit']}, expected 0")
            continue
        key = (sample["decoder"], sample["mode"])
        first = reference.setdefault(key, sample["digest"])
        if sample["digest"] != first:
            failures.append(f"{where}: report differs from an earlier "
                            f"check of the same input")
            continue
        seen = verdicts.setdefault(sample["decoder"], {})
        seen.setdefault(sample["mode"], sample["statuses"])
        other = seen.get("plain" if sample["mode"] == "fields" else "fields")
        if other is not None and other != sample["statuses"]:
            failures.append(f"{where}: verdicts with and without fields "
                            f"disagree")
    return failures


def _growth_exponent(lines: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) over log(lines)."""
    xs = [math.log(x) for x in lines]
    ys = [math.log(y) for y in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def run(seed: int, seconds: float, trace: bool, toy: bool) -> Result:
    setup = time_import(IMPORT)
    scale = TOY_SCALE if toy else SCALE
    inputs = build_inputs(seed, scale)
    tracer = Tracer(trace)
    untraced_tracer = Tracer(False)
    # Unmeasured warm-up on the smallest decoder: lazy imports and the
    # first-call costs of the interpreter are not what a round measures.
    # Its report is the `rowpoly check` reference the traced checks of
    # that decoder must reproduce.
    warm_up = check_op(inputs[0][0], inputs[0][1], "fields")
    warm_up.update(decoder=0, mode="fields")

    calibration_before = calibration_loop()
    samples: list[dict] = []
    rounds = 0
    started = time.perf_counter()
    while rounds == 0 or time.perf_counter() - started < seconds:
        for index, (name, source, lines) in enumerate(inputs):
            for mode in MODES:
                # Traced and untraced take turns going first.
                variants = ((False, True) if (rounds + index) % 2 == 0
                            else (True, False)) if trace else (False,)
                for traced in variants:
                    if trace:
                        sample = traced_op(
                            tracer if traced else untraced_tracer,
                            name, source, mode)
                    else:
                        sample = check_op(name, source, mode)
                    sample.update(decoder=index, mode=mode, lines=lines,
                                  traced=traced)
                    samples.append(sample)
        rounds += 1
    window = time.perf_counter() - started
    calibration_after = calibration_loop()

    failures = verify([warm_up] + samples)
    untraced = [s for s in samples if not s["traced"]]

    def lines_per_s(mode: str, clock: str) -> float:
        picked = [s for s in untraced if s["mode"] == mode]
        return (sum(s["lines"] for s in picked)
                / sum(s[clock] for s in picked))

    def median_seconds(mode: str, index: int) -> float:
        return median([s["seconds"] for s in untraced
                       if s["mode"] == mode and s["decoder"] == index])

    fields_s = [median_seconds("fields", i) for i in range(len(inputs))]
    plain_s = [median_seconds("plain", i) for i in range(len(inputs))]
    sizes = [lines for _, _, lines in inputs]
    shape = {
        "fields_overhead": sum(fields_s) / sum(plain_s),
        "growth_exponent": _growth_exponent(sizes, fields_s),
    }
    result = Result(attempted=1 + len(samples), failures=failures,
                    tracer=tracer)
    result.metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": self_peak_rss_mb(),
        "heavy_lines_per_s": lines_per_s("fields", "cpu_seconds"),
        "light_lines_per_s": lines_per_s("plain", "cpu_seconds"),
    }
    result.detail = {
        "env": environment(seed, scale=scale, decoders=[
            {"name": name, "lines": lines} for name, _, lines in inputs]),
        "calibration_s": {"before": calibration_before,
                          "after": calibration_after},
        "setup_samples_s": setup,
        "rounds": rounds,
        "window_s": window,
        "median_check_s": {"fields": fields_s, "plain": plain_s},
        "wall_lines_per_s": {mode: lines_per_s(mode, "seconds")
                             for mode in MODES},
        "fig9": shape,
    }
    if trace:
        result.metrics.update(_layers(samples, rounds, shape))
        result.detail["trace_accounting"] = _accounting(samples)
        failures.extend(result.detail["trace_accounting"]["failures"])
    return result


def _layers(samples: list[dict], rounds: int, shape: dict) -> dict:
    """Per-layer metrics, in seconds per round of the four decoders
    with fields (the configuration the hot path targets)."""
    traced = [s for s in samples if s["traced"] and s["mode"] == "fields"]

    def per_round(get) -> float:
        return sum(get(s) for s in traced) / rounds

    session = per_round(lambda s: s["layers"]["infer.session"])
    # The program's per-declaration trace key ``unify`` times applyS;
    # ``gc`` is stale-flag projection.
    applys = per_round(lambda s: s["phases"].get("unify", 0.0))
    projection = per_round(lambda s: s["phases"].get("gc", 0.0))
    sat = per_round(lambda s: s["phases"].get("sat", 0.0))
    queries = per_round(lambda s: s["solver"]["queries"])
    hits = per_round(lambda s: s["solver"]["cache_hits"])
    return {
        "fig9.check_s": per_round(lambda s: s["seconds"]),
        "fig9.lang.parse_s": per_round(lambda s: s["layers"]["lang.parse"]),
        "fig9.infer.session_s": session,
        "fig9.infer.applys_s": applys,
        "fig9.boolfn.projection_s": projection,
        "fig9.boolfn.sat_s": sat,
        "fig9.infer.unattributed_s": session - applys - projection - sat,
        "fig9.infer.report_s": per_round(
            lambda s: s["layers"]["infer.report"]),
        "fig9.boolfn.queries": queries,
        "fig9.boolfn.cache_hit_ratio": hits / queries if queries else 0.0,
        "fig9.boolfn.rebuilds": per_round(lambda s: s["solver"]["rebuilds"]),
        "fig9.boolfn.clauses_ingested": per_round(
            lambda s: s["solver"]["clauses_ingested"]),
        "fig9.fields_overhead": shape["fields_overhead"],
        "fig9.growth_exponent": shape["growth_exponent"],
        "trace.overhead_pct": _overhead_pct(samples),
    }


def _overhead_pct(samples: list[dict]) -> float:
    """Traced over untraced wall time of the same operations through
    the same code, in %."""
    traced = sum(s["seconds"] for s in samples if s["traced"])
    plain = sum(s["seconds"] for s in samples if not s["traced"])
    return 100.0 * (traced / plain - 1.0)


#: Share of a traced check's wall time that the three layer spans may
#: leave unexplained beyond the measured tracing overhead.
ACCOUNTING_SLACK_PCT = 1.0


def _accounting(samples: list[dict]) -> dict:
    """Do parse + session + report explain the traced check wall time?"""
    traced = [s for s in samples if s["traced"]]
    wall = sum(s["seconds"] for s in traced)
    layers = sum(s["layers"]["lang.parse"] + s["layers"]["infer.session"]
                 + s["layers"]["infer.report"] for s in traced)
    unaccounted_pct = 100.0 * (1.0 - layers / wall)
    overhead_pct = _overhead_pct(samples)
    failures = []
    if unaccounted_pct > max(overhead_pct, 0.0) + ACCOUNTING_SLACK_PCT:
        failures.append(
            f"trace accounting: layers leave {unaccounted_pct:.2f}% of the "
            f"traced check wall time unexplained (overhead "
            f"{overhead_pct:.2f}%)")
    return {"unaccounted_pct": unaccounted_pct,
            "overhead_pct": overhead_pct, "failures": failures}
