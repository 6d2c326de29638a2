#!/usr/bin/env python3
"""Chaos soak: hammer a real ``rowpoly serve`` subprocess through faults.

Launches the daemon as a subprocess with ``ROWPOLY_FAULTS`` injecting
worker crashes, engine errors and slowness, then drives a seeded request
mix against it — warm replays, edits, ill-typed modules, tight budgets,
garbage and oversized frames — through the retrying client.  At the end
it asserts the robustness invariants the fault-injection harness exists
to protect:

* **no hangs** — every request reaches a terminal outcome under a socket
  timeout, and the whole soak finishes under its own deadline;
* **no poisoned sessions** — after the storm, every corpus module checks
  byte-identically to an offline (in-process, fault-free) run;
* **full accounting** — requests sent = terminal outcomes observed, and
  the daemon's ``stats`` RPC agrees about rejected frames and budget
  trips;
* **clean drain** — SIGTERM stops the daemon with exit code 0.

Prints a JSON summary; exits 0 when every invariant held, 1 otherwise.

    PYTHONPATH=src python tools/chaos_run.py --requests 500 --seed 42

With ``--shards N`` the soak targets a process-sharded fleet instead,
and the default fault mix gains a shard-kill arm (``daemon.handle``
``exit`` faults): whole shard processes die mid-request, the supervisor
respawns them, and the summary additionally asserts the fleet healed
(``live_shards == N``) with ``shard_restarts`` accounted.

    PYTHONPATH=src python tools/chaos_run.py --shards 2 --requests 300

With ``--overload`` the soak becomes the overload-control arm instead:
a 2-shard fleet with probes, breakers and deadline-aware shedding on,
where shard 0 answers everything 250 ms slow until a trip limit drains.
The summary asserts the breaker evicted the slow shard, the fleet kept
serving through the eviction, the healed shard was re-adopted with its
home keys routing back, and every transition is visible in stats.

    PYTHONPATH=src python tools/chaos_run.py --overload --requests 60
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from random import Random

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.api import check_source as offline_check  # noqa: E402
from repro.server.client import RetryingClient, ServeClient, ServeError  # noqa: E402

WELL_TYPED = """
let make p = {x = p, y = 2};
    get r = #x r;
    out = get (make 1)
in out
"""

CDCL = """
let
  pair = {x = 1, y = 2};
  use = \\r -> #x (r @@ {z = 3});
  plain = \\r -> plus (#x r) (#y r);
  sel = use pair;
  it = plus sel (plain pair)
in it
"""

ILL_TYPED = "let bad = #a {}; dep = bad in dep"

PARSE_ERROR = "let = = nonsense"

CORPUS = [
    ("well.rp", WELL_TYPED),
    ("cdcl.rp", CDCL),
    ("ill.rp", ILL_TYPED),
    ("parse.rp", PARSE_ERROR),
    # A second well-typed path so quarantine of one key cannot starve
    # the whole soak.
    ("well2.rp", WELL_TYPED.replace("y = 2", "y = 3")),
]

DEFAULT_FAULTS = (
    "scheduler.pickup:0.03:crash;"
    "engine.solve:0.05:error;"
    "session.check_decl:0.02:slow:delay=10"
)

#: Extra arm mixed in for sharded soaks (``--shards N``): occasionally
#: kill a whole shard process mid-request (``os._exit``), at most once
#: per shard generation — the supervisor must respawn it and the router
#: must answer the casualties as retryable.
SHARD_KILL_FAULT = "daemon.handle:0.04:exit:limit=1"

#: The overload arm's shard-0 sickness (``ROWPOLY_FAULTS_SHARD_0``): every
#: request — health probes included — stalls 250 ms until the trip limit
#: drains, then the shard is instantly healthy again.  Nothing dies; the
#: router's breaker must evict the slow shard and re-adopt the fast one.
OVERLOAD_SLOW_FAULT = "daemon.handle:1.0:slow:delay=250:limit=30"


def frozen(report) -> str:
    return json.dumps(report, sort_keys=True)


def start_daemon(
    seed: int,
    fault_spec: str,
    shards: int = 0,
    extra_args: list | None = None,
    extra_env: dict | None = None,
) -> tuple[subprocess.Popen, str, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["ROWPOLY_FAULTS"] = f"seed={seed};{fault_spec}" if fault_spec else ""
    if extra_env:
        env.update(extra_env)
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--tcp", "127.0.0.1:0",
        "--workers", "4",
        "--queue-limit", "64",
        "--quarantine-threshold", "3",
        "--quarantine-ttl", "0.5",
    ]
    if shards > 0:
        command += ["--shards", str(shards)]
    if extra_args:
        command += [str(arg) for arg in extra_args]
    proc = subprocess.Popen(
        command,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stderr.readline()
    match = re.search(r"listening on (\S+:\d+)", banner)
    if not match:
        proc.kill()
        raise SystemExit(f"daemon failed to start: {banner!r}")
    # Keep draining stderr so the final metrics dump cannot fill the
    # pipe and deadlock the shutdown.
    captured: list[str] = []

    def drain() -> None:
        for line in proc.stderr:
            captured.append(line)

    threading.Thread(target=drain, daemon=True).start()
    return proc, match.group(1), captured


def send_garbage(address: str, payload: bytes) -> str:
    """One raw frame, returns the daemon's error name (or 'closed')."""
    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                return "closed"
            data += chunk
    response = json.loads(data.decode("utf-8", "replace").splitlines()[0])
    return response.get("error", {}).get("name", "ok")


def run_soak(args: argparse.Namespace) -> dict:
    rng = Random(args.seed)
    proc, address, daemon_stderr = start_daemon(
        args.seed, args.faults, shards=args.shards
    )
    summary: dict = {
        "seed": args.seed,
        "shards": args.shards,
        "address": address,
        "requests": 0,
        "terminal": {},
        "garbage_frames": 0,
        "oversized_frames": 0,
        "failures": [],
    }
    failures = summary["failures"]
    # Budgeted requests get their own session key: replay hits on a
    # warm, fully-checked session never touch the engine, so a shared
    # key would let the cache absorb every would-be budget trip.
    parity_corpus = CORPUS + [("cdcl-budget.rp", CDCL)]
    offline = {
        path: offline_check(source, path) for path, source in parity_corpus
    }
    deadline = time.monotonic() + args.max_seconds

    def account(outcome: str) -> None:
        summary["terminal"][outcome] = (
            summary["terminal"].get(outcome, 0) + 1
        )

    try:
        client = RetryingClient(
            address, retries=6, seed=args.seed, timeout=15.0
        )
        with client:
            for _ in range(args.requests):
                if time.monotonic() > deadline:
                    failures.append(
                        "soak deadline exceeded: possible hang/livelock"
                    )
                    break
                summary["requests"] += 1
                roll = rng.random()
                if roll < 0.04:
                    name = send_garbage(address, b"this is not json\n")
                    summary["garbage_frames"] += 1
                    if name != "parse-error":
                        failures.append(f"garbage frame answered {name!r}")
                    account("garbage-rejected")
                    continue
                if roll < 0.06:
                    big = b"x" * (2 << 20)
                    name = send_garbage(address, big + b"\n")
                    summary["oversized_frames"] += 1
                    if name != "frame-too-large":
                        failures.append(f"oversized frame answered {name!r}")
                    account("frame-rejected")
                    continue
                path, source = CORPUS[rng.randrange(len(CORPUS))]
                budget = None
                if path == "cdcl.rp" and rng.random() < 0.25:
                    path, budget = "cdcl-budget.rp", {"solver_steps": 1}
                try:
                    served = client.check(path, source, budget=budget)
                except ServeError as error:
                    # Terminal error answer (retries exhausted, or a
                    # non-retryable internal fault) — accounted, and the
                    # parity pass below proves the session survived it.
                    account(f"gave-up:{error.name}")
                    continue
                except (ConnectionError, OSError) as error:
                    failures.append(f"transport gave up: {error}")
                    account("transport-error")
                    continue
                if served.get("aborted"):
                    account("aborted")
                elif served["exit"] == 0:
                    account("ok")
                else:
                    account(f"exit-{served['exit']}")
            summary["client_retries"] = client.retries_performed

            # ---- post-storm parity: no session is poisoned ------------
            for path, source in parity_corpus:
                expected = offline[path]
                report = None
                for _ in range(20):
                    try:
                        served = client.check(path, source)
                    except ServeError:
                        time.sleep(0.1)  # quarantine TTL / injected error
                        continue
                    report = served["report"]
                    break
                if report is None:
                    failures.append(f"{path}: never recovered post-storm")
                elif frozen(report) != frozen(expected.report):
                    failures.append(f"{path}: post-recovery report differs")

            # ---- daemon-side accounting ------------------------------
            # A fleet is read only once it has healed: a shard can die
            # on any request, this ``stats`` read included, and the
            # supervisor needs a moment to respawn it.
            heal_deadline = time.monotonic() + 60.0
            while True:
                with ServeClient(address, timeout=10.0) as raw:
                    stats = raw.stats()
                live = stats.get("router", {}).get("live_shards")
                if (
                    args.shards == 0
                    or live == args.shards
                    or time.monotonic() > heal_deadline
                ):
                    break
                time.sleep(0.25)
        robustness = stats.get("robustness", {})
        summary["robustness"] = robustness
        summary["daemon_requests"] = stats.get("requests", {})
        # Persistent-store traffic (PR 7): zero unless the soak ran the
        # daemon with a store, but always present so harnesses can
        # assert on warm-restart behaviour without key errors.
        store = stats.get("store", {})
        summary["store_hits"] = store.get("hits", 0)
        summary["store_misses"] = store.get("misses", 0)
        if args.shards > 0:
            router = stats.get("router", {})
            summary["router"] = router
            if router.get("live_shards") != args.shards:
                failures.append(
                    f"fleet not healed: {router.get('live_shards')}/"
                    f"{args.shards} shards live post-storm"
                )
            if "exit" in args.faults and not robustness.get(
                "shard_restarts", 0
            ):
                failures.append(
                    "shard-kill faults injected but shard_restarts == 0"
                )
        rejected = robustness.get("frames_rejected", 0)
        expected_rejected = (
            summary["garbage_frames"] + summary["oversized_frames"]
        )
        if rejected < expected_rejected:
            failures.append(
                f"frames_rejected={rejected} < frames sent "
                f"{expected_rejected}"
            )
        aborted_seen = summary["terminal"].get("aborted", 0)
        if aborted_seen and not robustness.get("budget_exceeded", 0):
            failures.append("aborted answers but budget_exceeded == 0")
        accounted = sum(summary["terminal"].values())
        if accounted != summary["requests"]:
            failures.append(
                f"accounting gap: {summary['requests']} sent, "
                f"{accounted} terminal"
            )
    finally:
        # ---- clean drain on SIGTERM ---------------------------------
        proc.send_signal(signal.SIGTERM)
        try:
            exit_code = proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            exit_code = None
            failures.append("daemon did not drain within 30s of SIGTERM")
        summary["daemon_exit"] = exit_code
        if exit_code not in (0, None):
            failures.append(f"daemon exited {exit_code} on SIGTERM")
    summary["daemon_stderr_lines"] = len(daemon_stderr)
    summary["ok"] = not failures
    return summary


def _breaker_state(stats: dict, shard: str = "0") -> str:
    return stats.get("router", {}).get("breakers", {}).get(shard, "absent")


def run_overload(args: argparse.Namespace) -> dict:
    """The overload arm: one slow shard against breakers + shedding.

    A 2-shard fleet runs with health probes, breakers and deadline-aware
    shedding on; ``ROWPOLY_FAULTS_SHARD_0`` stalls every shard-0 request
    (probes included) by 250 ms until its trip limit drains.  Asserted:

    * the breaker **evicts** the slow shard (``breakers["0"] == open``);
    * the fleet keeps serving during the eviction — keys homed on shard
      0 fail over, deadline'd requests reach terminal outcomes, no hangs;
    * once the slowness burns out, a half-open probe **re-adopts** the
      shard (``closed`` again) and its home keys route back to it;
    * the transitions are visible in stats (``breaker_open_total`` ≥ 1,
      ``breaker_close_total`` ≥ 1, a non-empty transition log);
    * post-storm parity against offline reports, and a clean SIGTERM
      drain.
    """
    from repro.infer.state import FlowOptions
    from repro.server.registry import options_key
    from repro.server.routing import routing_key, shard_for

    shards = max(2, args.shards or 2)
    proc, address, daemon_stderr = start_daemon(
        args.seed,
        "",  # no fleet-wide faults: only shard 0 is sick
        shards=shards,
        extra_args=[
            "--shed",
            "--probe-interval", "0.15",
            "--breaker-failures", "2",
            "--breaker-latency-ms", "120",
            "--breaker-recovery-seconds", "1.0",
        ],
        extra_env={
            "ROWPOLY_FAULTS_SHARD_0": (
                f"seed={args.seed};{OVERLOAD_SLOW_FAULT}"
            ),
        },
    )
    summary: dict = {
        "seed": args.seed,
        "shards": shards,
        "address": address,
        "mode": "overload",
        "requests": 0,
        "terminal": {},
        "failures": [],
    }
    failures = summary["failures"]
    offline = {path: offline_check(source, path) for path, source in CORPUS}
    deadline = time.monotonic() + args.max_seconds

    def account(outcome: str) -> None:
        summary["terminal"][outcome] = (
            summary["terminal"].get(outcome, 0) + 1
        )

    def await_breaker(state: str, inspector: ServeClient) -> bool:
        while time.monotonic() < deadline:
            if _breaker_state(inspector.stats()) == state:
                return True
            time.sleep(0.1)
        failures.append(f"breaker never reached {state!r} (hang verdict)")
        return False

    # The home shard of each path under the fleet's default options —
    # computed with the router's own hash, so "keys return home" is
    # asserted exactly, not statistically.
    def home_shard(path: str) -> int:
        key = routing_key(path, "flow", options_key(FlowOptions()))
        return shard_for(key, list(range(shards)))

    shard0_paths = [
        path
        for path in (f"mem://overload_{index}.rp" for index in range(64))
        if home_shard(path) == 0
    ][:4]

    try:
        with ServeClient(address, timeout=30.0) as inspector:
            # ---- phase 1: the slow shard is evicted -------------------
            summary["evicted"] = await_breaker("open", inspector)

            # ---- phase 2: storm through the eviction ------------------
            # Deadline'd requests against a 2x-degraded fleet: every one
            # must reach a terminal outcome (served by the healthy
            # shard, shed, or refused retryably) — never a hang.
            with RetryingClient(
                address, retries=4, seed=args.seed, timeout=15.0
            ) as client:
                for index in range(args.requests):
                    if time.monotonic() > deadline:
                        failures.append(
                            "storm deadline exceeded: possible hang"
                        )
                        break
                    summary["requests"] += 1
                    path, source = CORPUS[index % len(CORPUS)]
                    try:
                        served = client.check(
                            path, source, deadline_ms=5000.0
                        )
                    except ServeError as error:
                        account(f"gave-up:{error.name}")
                        continue
                    except (ConnectionError, OSError) as error:
                        failures.append(f"transport gave up: {error}")
                        account("transport-error")
                        continue
                    account("ok" if served["exit"] == 0
                            else f"exit-{served['exit']}")
                summary["client_retries"] = client.retries_performed
            if not summary["terminal"].get("ok"):
                failures.append("no request succeeded during the eviction")

            # ---- phase 3: the healed shard is re-adopted --------------
            # The slow fault's trip limit drains (probes alone consume
            # it), the shard answers fast again, and a half-open probe
            # must re-close the breaker.
            summary["readopted"] = await_breaker("closed", inspector)

            # Keys homed on shard 0 route back to it: its routed count
            # grows by exactly the number of shard-0-homed checks sent.
            before = inspector.stats()["router"]["routed"].get("0", 0)
            with ServeClient(address, timeout=30.0) as client:
                for path in shard0_paths:
                    served = client.check(path, WELL_TYPED)
                    if served["exit"] != 0:
                        failures.append(f"{path}: exit {served['exit']} "
                                        "after re-adoption")
            after = inspector.stats()["router"]["routed"].get("0", 0)
            if summary["readopted"] and (
                after - before < len(shard0_paths)
            ):
                failures.append(
                    f"keys did not return home: shard 0 routed "
                    f"{after - before}/{len(shard0_paths)} homed checks"
                )

            # ---- phase 4: parity + accounting -------------------------
            with ServeClient(address, timeout=30.0) as parity:
                for path, source in CORPUS:
                    report = None
                    for _ in range(20):
                        try:
                            report = parity.check(path, source)["report"]
                            break
                        except ServeError:
                            time.sleep(0.1)
                    if report is None:
                        failures.append(f"{path}: never recovered post-storm")
                    elif frozen(report) != frozen(offline[path].report):
                        failures.append(f"{path}: post-storm report differs")

            stats = inspector.stats()
        overload = stats.get("overload", {})
        summary["overload"] = overload
        summary["breaker_transitions"] = stats.get("router", {}).get(
            "breaker_transitions", []
        )
        if overload.get("breaker_open_total", 0) < 1:
            failures.append("breaker_open_total == 0 despite a slow shard")
        if summary["readopted"] and overload.get(
            "breaker_close_total", 0
        ) < 1:
            failures.append("breaker re-closed but breaker_close_total == 0")
        if not summary["breaker_transitions"]:
            failures.append("breaker transition log is empty")
        accounted = sum(summary["terminal"].values())
        if accounted != summary["requests"]:
            failures.append(
                f"accounting gap: {summary['requests']} sent, "
                f"{accounted} terminal"
            )
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            exit_code = proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            exit_code = None
            failures.append("daemon did not drain within 30s of SIGTERM")
        summary["daemon_exit"] = exit_code
        if exit_code not in (0, None):
            failures.append(f"daemon exited {exit_code} on SIGTERM")
    summary["daemon_stderr_lines"] = len(daemon_stderr)
    summary["ok"] = not failures
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=500,
                        help="request mix size (default: 500)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for faults, mix and retry jitter")
    parser.add_argument("--faults", default=None,
                        help="ROWPOLY_FAULTS rule segments for the daemon "
                        "(default: the standard mix, plus a shard-kill "
                        "arm when --shards is set)")
    parser.add_argument("--shards", type=int, default=0,
                        help="soak a sharded fleet (serve --shards N); "
                        "0 = single-process daemon (default: 0)")
    parser.add_argument("--max-seconds", type=float, default=240.0,
                        help="hard soak deadline; exceeding it is a "
                        "hang verdict (default: 240)")
    parser.add_argument("--overload", action="store_true",
                        help="run the overload-control arm (slow shard "
                        "vs breakers + shedding) instead of the fault "
                        "soak")
    args = parser.parse_args(argv)
    if args.overload:
        summary = run_overload(args)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if summary["ok"] else 1
    if args.faults is None:
        args.faults = DEFAULT_FAULTS
        if args.shards > 0:
            args.faults += ";" + SHARD_KILL_FAULT
    summary = run_soak(args)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
