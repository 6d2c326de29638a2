"""ci-audit: `rowpoly audit` over a seeded corpus, cold and store-warm.

One process, ``jobs=1``.  The corpus is a seeded ``generate_corpus`` of
tiny modules, about 5% with injected errors, written under the
checkout's scratch directory along with the stores.  A cycle is one
cold audit (Discover -> Execute -> Judge) into an empty store followed
by ``WARM_PER_COLD`` store-warm re-audits, each opening the store fresh
the way a new CI worker would.  The cold pass writes the store and is
the only workload with unsat-core and witness work; the warm pass only
reads and judges, with zero solving.  A pass is timed in CPU seconds of
this process (see ``harness.cpu_clock``); its wall time is kept in the
detail record.

The store must live inside the checkout, on whatever disk that is.
``DiskStore.put`` fsyncs every entry, and on a shared virtual disk that
latency alone swung a cold pass by 2x from one minute to the next.  The
passes therefore run with ``os.fsync`` as a no-op, which is what it is
on a tmpfs: every other step of a put (encoding, hashing, the temp
file, the atomic rename) is still paid and timed.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time
from statistics import median
from unittest import mock

from harness import (
    WORK_ROOT,
    Result,
    Tracer,
    calibration_loop,
    cpu_clock,
    environment,
    self_peak_rss_mb,
    time_import,
)

MODULES = 120
TOY_MODULES = 24
ERROR_RATE = 0.05
WARM_PER_COLD = 10
IMPORT = "repro.audit"
PASSES = ("cold", "warm")


class TimedStore:
    """A ``CacheBackend`` around the handle ``open_store`` returns,
    timing and counting every get and put."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.gets = self.hits = self.puts = 0
        self.get_s = self.put_s = 0.0

    def get(self, key: str):
        started = time.perf_counter()
        payload = self.inner.get(key)
        self.get_s += time.perf_counter() - started
        self.gets += 1
        self.hits += payload is not None
        return payload

    def put(self, key: str, payload: dict) -> None:
        started = time.perf_counter()
        self.inner.put(key, payload)
        self.put_s += time.perf_counter() - started
        self.puts += 1

    def stats(self) -> dict:
        return self.inner.stats()


def audit_pass(corpus_dir: str, store_dir: str, tracer: Tracer) -> dict:
    """One audit of the corpus through a freshly opened store."""
    from repro.audit import ExecuteConfig, discover, execute, judge
    from repro.store import open_store
    from repro.store.keys import config_digest

    events = {"hits": 0, "misses": 0}

    def count(event: str, amount: int) -> None:
        if event in events:
            events[event] += amount

    timed = None
    mark = len(tracer.spans)
    cpu_started = cpu_clock()
    started = time.perf_counter()
    with tracer.span("audit.pass"):
        store = open_store(store_dir, metrics_hook=count)
        if tracer.enabled:
            store = timed = TimedStore(store)
        with tracer.span("audit.discover"):
            plan = discover([corpus_dir])
        with tracer.span("audit.execute"):
            payloads = execute(plan, ExecuteConfig(), store=store)
        with tracer.span("audit.judge"):
            judged = judge(plan, payloads, engine="flow",
                           config_digest=config_digest("flow", None))
    seconds = time.perf_counter() - started
    cpu_seconds = cpu_clock() - cpu_started
    # Only a summary outlives the pass: keeping every pass's payloads
    # would grow the heap, and the collector's work with it, over a run.
    summary = {
        "seconds": seconds,
        "cpu_seconds": cpu_seconds,
        "traced": tracer.enabled,
        "document": _encode(judged.document),
        "findings": findings_by_module(judged.document),
        "misses": events["misses"],
        "spans": {s.name: s.seconds for s in tracer.spans[mark:]},
        "phases": {phase: sum(p["trace"].get(phase, 0.0) for p in payloads)
                   for phase in ("parse", "infer", "unify", "gc")},
        "diag": {field: sum(getattr(p["solver_stats"], field)
                            for p in payloads
                            if p["solver_stats"] is not None)
                 for field in ("cores", "core_minimize_queries")},
    }
    if timed is not None:
        summary["store"] = {"gets": timed.gets, "hits": timed.hits,
                            "puts": timed.puts, "get_s": timed.get_s,
                            "put_s": timed.put_s}
    return summary


def findings_by_module(document: dict) -> dict[str, list[str]]:
    """Module file name -> sorted codes of the findings cited in it."""
    out: dict[str, list[str]] = {}
    for finding in document["findings"]:
        for occurrence in finding["occurrences"]:
            name = os.path.basename(occurrence["file"])
            out.setdefault(name, []).append(finding["code"])
    return {name: sorted(codes) for name, codes in out.items()}


def verify(expected: dict[str, list[str]], cold: dict,
           warm: list[dict]) -> list[str]:
    """Known answers, one failure per failed module check.

    The cold findings fall exactly on the injected modules, one
    ``RP0001`` and one ``RP0006`` each; every warm findings document is
    byte-identical to the cold one and was served with zero store
    misses.
    """
    failures = []
    found = cold["findings"]
    for name, codes in sorted(expected.items()):
        if found.get(name, []) != codes:
            failures.append(f"cold {name}: findings {found.get(name, [])}, "
                            f"expected {codes}")
    for name in sorted(set(found) - set(expected)):
        failures.append(f"cold: findings in unknown module {name}")
    for index, audit in enumerate(warm):
        if audit["misses"]:
            failures.extend(f"warm pass {index}: store miss"
                            for _ in range(audit["misses"]))
        if audit["document"] != cold["document"]:
            failures.append(f"warm pass {index}: findings document differs "
                            f"from the cold one")
    return failures


def _encode(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True)


def _cycle(corpus_dir: str, base, expected: dict[str, list[str]],
           tracers: tuple[Tracer, ...], index: int,
           audits: dict[str, list[dict]]) -> list[str]:
    """One cold audit into an empty store, then the warm re-audits.

    In the traced run every pass runs once untraced and once traced,
    taking turns going first, each cold pass into its own empty store.
    Returns the known-answer failures; keeps only pass summaries.
    """
    order = tracers if index % 2 == 0 else tracers[::-1]
    stores = [str(base) + f"-store{i}" for i in range(len(order))]
    colds = [audit_pass(corpus_dir, store, t)
             for store, t in zip(stores, order)]
    warms = [audit_pass(corpus_dir, store, t)
             for _ in range(WARM_PER_COLD)
             for store, t in zip(stores, order)]
    failures = []
    for cold in colds:
        failures.extend(verify(
            expected, cold,
            [w for w in warms if w["traced"] == cold["traced"]]))
    for audit in colds + warms:
        del audit["document"], audit["findings"]
    audits["cold"].extend(colds)
    audits["warm"].extend(warms)
    for store in stores:
        shutil.rmtree(store)
    return failures


def make_corpus(seed: int, modules: int):
    """A seeded corpus with exactly ``ERROR_RATE`` of its modules injected.

    The injected share drives the cost of both passes (the judge
    re-parses failing modules), and a per-module coin flip let it range
    from 3 to 8 in 120 across seeds; so the share is held fixed and the
    seed picks which modules and all the text.
    """
    from repro.gdsl import CorpusConfig, generate_corpus

    target = round(ERROR_RATE * modules)
    for attempt in itertools.count():
        corpus = generate_corpus(CorpusConfig(
            modules=modules, seed=seed * 1000 + attempt,
            error_rate=ERROR_RATE))
        if len(corpus.injected_modules) == target:
            return corpus


def run(seed: int, seconds: float, trace: bool, toy: bool) -> Result:
    from repro.gdsl import write_corpus

    setup = time_import(IMPORT)
    corpus = make_corpus(seed, TOY_MODULES if toy else MODULES)
    expected = {m.name: sorted(m.injected) for m in corpus.modules}
    lines = sum(m.source.count("\n") for m in corpus.modules)
    work = WORK_ROOT / f"ci-audit-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    corpus_dir = str(work / "corpus")
    write_corpus(corpus, corpus_dir)
    tracer = Tracer(trace)
    tracers = (Tracer(False), tracer) if trace else (tracer,)
    audits: dict[str, list[dict]] = {"cold": [], "warm": []}
    failures: list[str] = []
    cycles = 0
    try:
        # ``os.fsync`` is a no-op inside the passes, as on a tmpfs (see
        # the module docstring).
        with mock.patch.object(os, "fsync", lambda fd: None):
            calibration_before = calibration_loop()
            started = time.perf_counter()
            while cycles == 0 or time.perf_counter() - started < seconds:
                failures.extend(_cycle(corpus_dir, work / f"c{cycles}",
                                       expected, tracers, cycles, audits))
                cycles += 1
            window = time.perf_counter() - started
            calibration_after = calibration_loop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def untraced(kind: str, clock: str) -> list[float]:
        return [a[clock] for a in audits[kind] if not a["traced"]]

    cold_s, warm_s = untraced("cold", "seconds"), untraced("warm", "seconds")
    cold_cpu = untraced("cold", "cpu_seconds")
    warm_cpu = untraced("warm", "cpu_seconds")
    attempted = len(corpus.modules) * (len(audits["cold"])
                                       + len(audits["warm"]))
    result = Result(attempted=attempted, failures=failures, tracer=tracer)
    result.metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": self_peak_rss_mb(),
        "heavy_lines_per_s": lines / median(cold_cpu),
        "light_lines_per_s": lines / median(warm_cpu),
    }
    result.detail = {
        "env": environment(seed, modules=len(corpus.modules), lines=lines,
                           injected=len(corpus.injected_modules),
                           error_rate=ERROR_RATE,
                           store=os.path.relpath(work, WORK_ROOT.parent)),
        "calibration_s": {"before": calibration_before,
                          "after": calibration_after},
        "setup_samples_s": setup,
        "cycles": cycles,
        "window_s": window,
        "pass_s": {"cold": cold_s, "warm": warm_s},
        "pass_cpu_s": {"cold": cold_cpu, "warm": warm_cpu},
    }
    if trace:
        result.metrics.update(_layers(audits))
    return result


def _layers(audits: dict[str, list[dict]]) -> dict[str, float]:
    """Per-layer metrics per traced pass, prefixed ``ci.cold.`` or
    ``ci.warm.``: stage seconds from the spans, check phases summed
    from the payload traces, store traffic from the timing wrapper."""
    out: dict[str, float] = {}
    for kind in PASSES:
        traced = [a for a in audits[kind] if a["traced"]]

        def total(section: str, name: str) -> float:
            return sum(a[section][name] for a in traced)

        def per_pass(section: str, name: str) -> float:
            return total(section, name) / len(traced)

        def ms_per(seconds: str, count: str) -> float:
            n = total("store", count)
            return 1000 * total("store", seconds) / n if n else 0.0

        gets = total("store", "gets")
        prefix = f"ci.{kind}."
        out.update({
            prefix + "audit.discover_s": per_pass("spans", "audit.discover"),
            prefix + "audit.execute_s": per_pass("spans", "audit.execute"),
            prefix + "audit.judge_s": per_pass("spans", "audit.judge"),
            prefix + "lang.parse_s": per_pass("phases", "parse"),
            prefix + "infer.session_s": per_pass("phases", "infer"),
            # The program's trace key ``unify`` times applyS; ``gc`` is
            # stale-flag projection.
            prefix + "infer.applys_s": per_pass("phases", "unify"),
            prefix + "boolfn.projection_s": per_pass("phases", "gc"),
            prefix + "store.get_ms": ms_per("get_s", "gets"),
            prefix + "store.gets": per_pass("store", "gets"),
            prefix + "store.hit_ratio": (total("store", "hits") / gets
                                         if gets else 0.0),
            prefix + "store.put_ms": ms_per("put_s", "puts"),
            prefix + "store.puts": per_pass("store", "puts"),
            prefix + "diag.cores": per_pass("diag", "cores"),
            prefix + "diag.core_minimize_queries": per_pass(
                "diag", "core_minimize_queries"),
        })
    traced_s = sum(a["seconds"] for kind in PASSES for a in audits[kind]
                   if a["traced"])
    untraced_s = sum(a["seconds"] for kind in PASSES for a in audits[kind]
                     if not a["traced"])
    out["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return out
