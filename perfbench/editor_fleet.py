"""editor-fleet: an editor's traffic against a 2-shard `rowpoly serve` fleet.

Closed loop on one ``ServeClient`` connection, because an editor waits
for each answer.  The fleet (``python -m repro serve --tcp 127.0.0.1:0
--shards 2``, CLI defaults) runs as its own processes; this process
holds only the client.  Set-up spawns the fleet and warms four AVR+Sem
decoders.  A run spawns ``FLEETS`` fleets one after another; each is
timed from spawn to warm and then serves an equal share of the measured
window, so set-up is a median over fleets and every request metric pools
them.  Traffic is one seeded stream: ~80% single-declaration edits (one
field literal bumped, so the fingerprint changes and the signature does
not) and ~20% unchanged re-sends, which the fingerprint replay must
serve.  Every fleet starts from the unedited modules.

The gated rates count, per request, the CPU seconds the request cost
this process, the router and both shards (see ``harness.cpu_clock`` for
why CPU and not wall time); the wall-clock round trips an editor waits
for are the ``editor.client.*`` per-layer metrics and stay in the
detail record.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from random import Random
from statistics import median
from typing import Optional

from harness import (
    MIN_BEYOND,
    REPO_ROOT,
    BenchmarkError,
    Result,
    Tracer,
    calibration_loop,
    child_env,
    cpu_clock,
    environment,
    p50,
    tail,
    vm_hwm_mb,
)

MODULE_SCALE = 0.1
TOY_MODULE_SCALE = 0.02
#: Decoder seeds of the four open modules (fixed; the traffic is seeded).
MODULE_SEEDS = (0, 1, 2, 3)
FLEETS = 3
EDIT_SHARE = 0.8
#: A fleet's window outlasts its share of ``--seconds`` until it has
#: served this many requests of each kind: on a slowed host a 20 s run
#: once sent only 19 re-sends, too few for a median and a tail.
MIN_PER_FLEET = MIN_BEYOND
#: Served reports compared byte for byte against an offline check,
#: drawn from the first ``PARITY_WINDOW`` requests.
PARITY_SAMPLES = 2
PARITY_WINDOW = 40
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
SERVE_ARGV = ["-m", "repro", "serve", "--tcp", "127.0.0.1:0", "--shards", "2"]

#: A field literal ``@{name = 123}``: bumping it edits one declaration
#: without changing any signature.
_LITERAL = re.compile(r"@\{(\w+) = (\d+)\}")


def open_modules(scale: float) -> list[tuple[str, str]]:
    """``(path, source)`` of the four AVR+Sem decoders an editor has open."""
    from repro.gdsl import FIG9_CORPORA, build_corpus

    spec = FIG9_CORPORA[1]
    return [(f"avr_sem_{seed}.rp", build_corpus(spec, scale, seed=seed).source)
            for seed in MODULE_SEEDS]


def bump_literal(source: str, rng: Random) -> str:
    """``source`` with one randomly chosen field literal incremented."""
    literals = list(_LITERAL.finditer(source))
    match = literals[rng.randrange(len(literals))]
    start, end = match.span(2)
    return source[:start] + str(int(match.group(2)) + 1) + source[end:]


def _process_ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as handle:
            return any(line.startswith("State:") and "Z" in line.split()[1]
                       for line in handle)
    except FileNotFoundError:
        return True


def _process_cpu_clock(pid: int) -> int:
    """The clock id ``clock_getcpuclockid(pid)`` returns on Linux: the
    whole process's CPU time (``CPUCLOCK_SCHED``)."""
    return ((~pid) << 3) | 2


class Fleet:
    """One ``rowpoly serve --shards 2`` process tree and a client to it."""

    def __init__(self) -> None:
        from repro.server.client import ServeClient

        self.proc = subprocess.Popen(
            [sys.executable, *SERVE_ARGV], cwd=REPO_ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self._stderr: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.shard_pids: list[int] = []
        self.client = None
        try:
            address = self._await_address()
            self.client = ServeClient(address, timeout=120.0)
            pids = self.client.stats()["router"]["pids"]
            self.shard_pids = [int(pid) for pid in pids.values()]
        except BaseException:
            self.close()
            raise

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._stderr.put(line)
        self._stderr.put(None)

    def _await_address(self) -> str:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            try:
                line = self._stderr.get(
                    timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise BenchmarkError("fleet did not start listening in time")
            if line is None:
                raise BenchmarkError(
                    f"fleet exited during start-up ({self.proc.poll()})")
            if "listening on " in line:
                return line.rsplit(" ", 1)[1].strip()

    def cpu_seconds(self) -> float:
        """CPU seconds used so far by this process, the router and the
        shards, all threads, from Linux per-process CPU clocks."""
        return cpu_clock() + sum(
            time.clock_gettime(_process_cpu_clock(pid))
            for pid in [self.proc.pid, *self.shard_pids])

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the router and its shard processes."""
        return sum(vm_hwm_mb(pid) for pid in [self.proc.pid, *self.shard_pids])

    def close(self) -> None:
        """Stop the fleet with the ``shutdown`` RPC and wait for every
        process of it to end (killing whatever overstays)."""
        from repro.server.client import ServeError

        if self.client is not None:
            try:
                self.client.shutdown()
            except (OSError, ServeError):
                pass
            self.client.close()
            self.client = None
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(STOP_TIMEOUT_S)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self.shard_pids:
            while not _process_ended(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                    deadline = time.monotonic() + STOP_TIMEOUT_S
                time.sleep(0.05)


def start_warm_fleet(modules: list[tuple[str, str]]) -> tuple[Fleet, float,
                                                                list[str]]:
    """Spawn a fleet and check every open module once.

    Returns the fleet, the seconds from spawn to the last warm answer,
    and the known-answer failures of the warm-up checks.
    """
    started = time.perf_counter()
    fleet = Fleet()
    failures = []
    try:
        for path, source in modules:
            response = fleet.client.check(path, source)
            if response["exit"] != 0 or response["cached"]:
                failures.append(f"warm-up {path}: exit {response['exit']}, "
                                f"cached {response['cached']}")
    except BaseException:
        fleet.close()
        raise
    return fleet, time.perf_counter() - started, failures


def _shard_latency(stats: dict) -> dict[str, tuple[int, float]]:
    """Summed ``(count, total seconds)`` of check service and queue."""
    out = {"service": (0, 0.0), "queue": (0, 0.0)}
    for shard in stats["shards"]:
        check = shard["latency"].get("check") or {}
        for kind in out:
            entry = check.get(kind)
            if entry:
                count, total = out[kind]
                out[kind] = (count + entry["count"],
                             total + entry["count"] * entry["mean"])
    return out


def _latency_delta(before: dict, after: dict) -> dict[str, tuple[int, float]]:
    """``(count, total seconds)`` of service and queue between two stats."""
    first, last = _shard_latency(before), _shard_latency(after)
    return {kind: (last[kind][0] - first[kind][0],
                   last[kind][1] - first[kind][1]) for kind in first}


def _registry_delta(before: dict, after: dict) -> dict[str, int]:
    return {key: after["sessions"][key] - before["sessions"][key]
            for key in ("hits", "invalidations", "misses")}


def verify(windows: list[tuple[list[dict], dict[str, int]]],
           parity: list[tuple[str, str, str]]) -> list[str]:
    """Known answers, one failure per failed operation.

    ``windows`` holds each fleet's requests with its session registry
    counts.  Every edit is a fresh, well-typed check (exit 0, not
    cached); every re-send is a replay (cached); each fleet's registry
    counted exactly the replays and invalidations sent to it and no
    cold miss; and the sampled served reports equal an offline
    ``check_source`` of the same text byte for byte.
    """
    failures = []
    for fleet, (requests, registry) in enumerate(windows):
        for request in requests:
            where = (f"fleet {fleet} request {request['index']} "
                     f"({request['kind']} {request['path']})")
            if request["exit"] != 0:
                failures.append(f"{where}: exit {request['exit']}, "
                                f"expected 0")
            elif request["cached"] != (request["kind"] == "resend"):
                failures.append(f"{where}: cached={request['cached']}")
        edits = sum(1 for r in requests if r["kind"] == "edit")
        resends = len(requests) - edits
        if registry["hits"] != resends:
            failures.append(f"fleet {fleet}: registry counted "
                            f"{registry['hits']} replays for {resends} "
                            f"re-sends")
        if registry["invalidations"] != edits:
            failures.append(f"fleet {fleet}: registry counted "
                            f"{registry['invalidations']} invalidations "
                            f"for {edits} edits")
        if registry["misses"]:
            failures.append(f"fleet {fleet}: registry counted "
                            f"{registry['misses']} cold misses on warm "
                            f"modules")
    for path, served, offline in parity:
        if served != offline:
            failures.append(f"served report for {path} differs from the "
                            f"offline check")
    return failures


def _canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _offline_parity(samples: list[tuple[str, str, dict]]
                    ) -> list[tuple[str, str, str]]:
    from repro.server.service import check_source

    return [(path, _canonical(served),
             _canonical(check_source(path, source).report))
            for path, source, served in samples]


def run(seed: int, seconds: float, trace: bool, toy: bool) -> Result:
    scale = TOY_MODULE_SCALE if toy else MODULE_SCALE
    modules = open_modules(scale)
    lines = {path: source.count("\n") for path, source in modules}
    stream = Traffic(modules, seed, trace)
    setups: list[float] = []
    rss: list[float] = []
    failures: list[str] = []
    calibration_before = calibration_loop()
    for _ in range(FLEETS):
        fleet, seconds_to_warm, warm_failures = start_warm_fleet(modules)
        try:
            setups.append(seconds_to_warm)
            failures.extend(warm_failures)
            stream.serve(fleet, seconds / FLEETS)
            rss.append(fleet.peak_rss_mb())
        finally:
            fleet.close()
    calibration_after = calibration_loop()
    requests = stream.requests
    parity = _offline_parity(stream.parity)
    failures.extend(verify(stream.windows, parity))
    attempted = FLEETS * len(modules) + len(requests) + len(parity)

    edits = [r for r in requests if r["kind"] == "edit"]
    resends = [r for r in requests if r["kind"] == "resend"]

    def lines_per_s(picked: list[dict], clock: str) -> float:
        """Median over requests of the module's lines per second: robust
        to the odd scheduling hiccup of four processes on a small host."""
        return median([lines[r["path"]] / r[clock] for r in picked])

    latency_ms = {
        "edit": [1000 * r["seconds"] for r in edits],
        "resend": [1000 * r["seconds"] for r in resends],
    }
    percentiles = {kind: {"p50": p50(samples, f"{kind} latency"),
                          "tail": tail(samples, f"{kind} latency")}
                   for kind, samples in latency_ms.items()}
    result = Result(attempted=attempted, failures=failures,
                    tracer=stream.tracer)
    result.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
        "heavy_lines_per_s": lines_per_s(edits, "cpu_seconds"),
        "light_lines_per_s": lines_per_s(resends, "cpu_seconds"),
    }
    result.detail = {
        "env": environment(seed, module_scale=scale, modules=[
            {"path": path, "lines": count} for path, count in lines.items()],
            shards=2, fleets=FLEETS),
        "calibration_s": {"before": calibration_before,
                          "after": calibration_after},
        "setup_samples_s": setups,
        "peak_rss_samples_mb": rss,
        "window_s": stream.window_s,
        "requests": {"edits": len(edits), "resends": len(resends),
                     "per_s": len(requests) / stream.window_s},
        "latency_ms": percentiles,
        "wall_lines_per_s": {"edit": lines_per_s(edits, "seconds"),
                             "resend": lines_per_s(resends, "seconds")},
        "registry": stream.registry(),
        "shard_means_ms": {k: 1000 * v
                           for k, v in stream.shard_means().items()},
    }
    if trace:
        result.metrics.update(_layers(stream, percentiles))
    return result


class Traffic:
    """The seeded edit/re-send stream, served by one fleet after another.

    The stream (module picks, edit or re-send, which literal) continues
    across fleets; the module texts restart unedited with each fleet,
    because a fresh fleet has only seen those.
    """

    def __init__(self, modules: list[tuple[str, str]], seed: int,
                 trace: bool) -> None:
        self.modules = modules
        self.rng = Random(f"editor-fleet:{seed}")
        self.parity_at = set(Random(f"editor-parity:{seed}").sample(
            range(PARITY_WINDOW), PARITY_SAMPLES))
        self.trace = trace
        self.tracer = Tracer(trace)
        self.requests: list[dict] = []
        self.parity: list[tuple[str, str, dict]] = []
        #: Per fleet: its requests and its session registry counts.
        self.windows: list[tuple[list[dict], dict[str, int]]] = []
        self.latency: list[dict[str, tuple[int, float]]] = []
        self.window_s = 0.0

    def serve(self, fleet: Fleet, seconds: float) -> None:
        """One fleet's share of the measured window."""
        client = fleet.client
        texts = dict(self.modules)
        paths = [path for path, _ in self.modules]
        first = len(self.requests)
        sent = {"edit": 0, "resend": 0}
        before = client.stats()
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds
               or min(sent.values()) < MIN_PER_FLEET):
            path = paths[self.rng.randrange(len(paths))]
            kind = "edit" if self.rng.random() < EDIT_SHARE else "resend"
            if kind == "edit":
                texts[path] = bump_literal(texts[path], self.rng)
            index = len(self.requests)
            # In the traced run every other request carries a span, so
            # the overhead compares like traffic in the same window.
            traced = self.trace and index % 2 == 1
            cpu_started = fleet.cpu_seconds()
            t0 = time.perf_counter()
            with (self.tracer.span("client.check", request=index)
                  if traced else nullcontext()):
                response = client.check(path, texts[path])
            elapsed = time.perf_counter() - t0
            cpu_seconds = fleet.cpu_seconds() - cpu_started
            sent[kind] += 1
            self.requests.append({
                "index": index, "kind": kind, "path": path,
                "seconds": elapsed, "cpu_seconds": cpu_seconds,
                "exit": response["exit"],
                "cached": response["cached"],
                "phases": response["trace"] if kind == "edit" else {},
                "traced": traced})
            if index in self.parity_at:
                self.parity.append((path, texts[path], response["report"]))
        self.window_s += time.perf_counter() - started
        after = client.stats()
        self.windows.append((self.requests[first:],
                             _registry_delta(before, after)))
        self.latency.append(_latency_delta(before, after))

    def registry(self) -> dict[str, int]:
        """Session registry counts summed over the fleets."""
        return {key: sum(counts[key] for _, counts in self.windows)
                for key in ("hits", "invalidations", "misses")}

    def shard_means(self) -> dict[str, float]:
        """Mean check service and queue seconds over every window."""
        out = {}
        for kind in ("service", "queue"):
            count = sum(delta[kind][0] for delta in self.latency)
            total = sum(delta[kind][1] for delta in self.latency)
            out[kind] = total / count if count else 0.0
        return out


def _layers(stream: Traffic, percentiles: dict) -> dict[str, float]:
    """Per-layer metrics: milliseconds per edit from the response trace,
    shard means from the ``stats`` RPC, counts over the window."""
    requests = stream.requests
    edits = [r for r in requests if r["kind"] == "edit"]

    def per_edit_ms(phase: str) -> float:
        return 1000 * sum(r["phases"].get(phase, 0.0) for r in edits) / len(
            edits)

    means = stream.shard_means()
    registry = stream.registry()
    round_trip = sum(r["seconds"] for r in requests) / len(requests)
    traced = [r["seconds"] for r in requests if r["traced"]
              and r["kind"] == "edit"]
    untraced = [r["seconds"] for r in requests if not r["traced"]
                and r["kind"] == "edit"]
    return {
        "editor.lang.parse_ms": per_edit_ms("parse"),
        "editor.infer.recheck_ms": per_edit_ms("infer"),
        # The program's trace key ``unify`` times applyS; ``gc`` is
        # stale-flag projection.
        "editor.infer.applys_ms": per_edit_ms("unify"),
        "editor.boolfn.projection_ms": per_edit_ms("gc"),
        "editor.daemon.service_ms": 1000 * means["service"],
        "editor.scheduler.queue_ms": 1000 * means["queue"],
        "editor.router.overhead_ms": 1000 * (
            round_trip - means["service"] - means["queue"]),
        "editor.registry.replays": registry["hits"],
        "editor.registry.invalidations": registry["invalidations"],
        "editor.client.edit_p50_ms": percentiles["edit"]["p50"]["value"],
        "editor.client.edit_tail_ms": percentiles["edit"]["tail"]["value"],
        "editor.client.replay_p50_ms": percentiles["resend"]["p50"]["value"],
        "editor.client.replay_tail_ms":
            percentiles["resend"]["tail"]["value"],
        "trace.overhead_pct": 100.0 * (
            (sum(traced) / len(traced)) / (sum(untraced) / len(untraced))
            - 1.0),
    }
