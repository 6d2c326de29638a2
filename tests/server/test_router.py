"""End-to-end tests of the process-sharded router (``serve --shards``).

Everything here drives a real :class:`~repro.server.router.Router` with
real spawned shard processes over real loopback TCP — the unit under
test is the orchestration, so nothing is mocked.  The destructive cases
(kill, drain) build their own router; the read-only cases share one.
"""

import multiprocessing
import time

import pytest

from repro.server.client import ServeClient, ServeError
from repro.server.metrics import aggregate_snapshots
from repro.server.router import Router, RouterConfig
from repro.server.shard import START_METHOD, spawn_context

GOOD = """
let make p = {x = p, y = 2};
    get r = #x r;
    out = get (make 1)
in out
"""
ILL = "let bad = #a {}; dep = bad in dep"
#: CDCL-class: one solver step is not enough, so a ``solver_steps: 1``
#: budget aborts it.
CDCL = """
let
  pair = {x = 1, y = 2};
  use = \\r -> #x (r @@ {z = 3});
  it = use pair
in it
"""


def _start(shards: int, **overrides) -> tuple[Router, str]:
    config = RouterConfig(shards=shards, workers=1, **overrides)
    router = Router(config)
    host, port = router.serve_tcp("127.0.0.1", 0, background=True)
    return router, f"{host}:{port}"


def _stop(router: Router) -> None:
    router.request_shutdown()
    assert router.wait_drained(60.0), "router drain hung"


@pytest.fixture(scope="module")
def shared():
    router, address = _start(2)
    yield router, address
    _stop(router)


# -- protocol surface (parity with the single-process daemon) -----------
def test_ping_and_unknown_method(shared):
    _, address = shared
    with ServeClient(address) as client:
        assert client.ping() is True
        with pytest.raises(ServeError) as excinfo:
            client.request("frobnicate")
        assert excinfo.value.name == "method-not-found"
        assert "frobnicate" in str(excinfo.value)


def test_cancel_unknown_id_answers_false(shared):
    _, address = shared
    with ServeClient(address) as client:
        assert client.cancel(987654) is False


def test_malformed_frame_rejected(shared):
    _, address = shared
    with ServeClient(address) as client:
        client._writer.write("this is not json\n")
        client._writer.flush()
        response = __import__("json").loads(client._reader.readline())
        assert response["error"]["name"] == "parse-error"
        assert response["error"]["data"]["rp"] == "RP0997"


def test_check_serves_and_replays_warm(shared):
    """Affinity: the second identical request is a fingerprint hit.

    That can only happen if both requests landed on the *same* shard —
    the replay cache is shard-local state.
    """
    router, address = shared
    with ServeClient(address) as client:
        first = client.check("mem://warm.rp", GOOD)
        assert first["exit"] == 0
        assert first["cached"] is False
        second = client.check("mem://warm.rp", GOOD)
        assert second["cached"] is True
        assert second["report"] == first["report"]


def test_invalid_params_cross_the_wire(shared):
    _, address = shared
    with ServeClient(address) as client:
        with pytest.raises(ServeError) as excinfo:
            client.request("check", {"path": ""})
        assert excinfo.value.name == "invalid-params"


def test_stats_aggregates_fleet(shared):
    router, address = shared
    with ServeClient(address) as client:
        client.check("mem://stats_a.rp", GOOD)
        client.check("mem://stats_b.rp", ILL)
        stats = client.stats()
    # Daemon-shaped top level (tools keep working against it)...
    for section in ("requests", "sessions", "robustness", "uptime_seconds"):
        assert section in stats
    assert stats["requests"]["check"]["ok"] >= 2
    # ...plus the fleet view.
    assert stats["router"]["shards"] == 2
    assert stats["router"]["live_shards"] == 2
    assert len(stats["shards"]) == 2
    assert {s["shard"] for s in stats["shards"]} == {0, 1}
    routed = stats["router"]["routed"]
    assert sum(routed.values()) >= 2
    # Fleet totals are at least the sum of the per-shard views.
    per_shard_ok = sum(
        s["requests"].get("check", {}).get("ok", 0)
        for s in stats["shards"]
        if "requests" in s
    )
    assert stats["requests"]["check"]["ok"] >= per_shard_ok


def test_distinct_paths_spread_over_shards(shared):
    """With enough distinct modules both shards see traffic."""
    router, address = shared
    with ServeClient(address) as client:
        for index in range(8):
            result = client.check(f"mem://spread_{index}.rp", GOOD)
            assert result["exit"] == 0
        stats = client.stats()
    routed = stats["router"]["routed"]
    assert len(routed) == 2, routed


# -- the spawn pin -------------------------------------------------------
def test_start_method_is_spawn():
    assert START_METHOD == "spawn"
    context = spawn_context()
    assert context.get_start_method() == "spawn"
    assert "spawn" in multiprocessing.get_all_start_methods()


def test_shards_start_cleanly_under_spawn(shared):
    """Regression: shard startup must survive a spawned interpreter.

    ``fork`` would inherit a working copy of the parent by accident;
    ``spawn`` re-imports everything from scratch, so an unpicklable
    config or an import-order bug fails here.
    """
    router, _ = shared
    live = router.pool.live()
    assert len(live) == 2
    for handle in live:
        assert handle.process.is_alive()
        assert handle.pid != multiprocessing.current_process().pid


# -- failure handling ----------------------------------------------------
def test_killed_shard_respawns_and_serves():
    router, address = _start(2, supervisor_seed=7)
    try:
        with ServeClient(address) as client:
            for index in range(4):
                client.check(f"mem://kill_{index}.rp", GOOD)
            victim = router.pool.live()[0]
            victim.process.kill()  # SIGKILL: no drain, no goodbye
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    router.supervisor.restarts_total >= 1
                    and len(router.pool.live()) == 2
                ):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("shard was not respawned in time")
            replacement = router.pool.handle(victim.index)
            assert replacement is not None
            assert replacement.generation == victim.generation + 1
            assert replacement.pid != victim.pid
            # Every key routes somewhere live again, including the ones
            # that lived on the victim (now served cold by its heir).
            for index in range(4):
                result = client.check(f"mem://kill_{index}.rp", GOOD)
                assert result["exit"] == 0
            stats = client.stats()
            assert stats["robustness"]["shard_restarts"] >= 1
    finally:
        _stop(router)


def test_budget_trips_outlive_their_shard_generation():
    router, address = _start(1)
    try:
        with ServeClient(address) as client:
            served = client.check(
                "mem://starved.rp", CDCL, budget={"solver_steps": 1}
            )
            assert served["aborted"] is True
            # Counted once while the generation that answered lives...
            assert client.stats()["robustness"]["budget_exceeded"] == 1
            victim = router.pool.live()[0]
            victim.process.kill()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                heir = router.pool.handle(victim.index)
                if heir is not None and heir.generation > victim.generation:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("shard was not respawned in time")
            stats = client.stats()
        # ...and once after it died, from the answer the router forwarded.
        assert stats["router"]["live_shards"] == 1
        assert stats["robustness"]["budget_exceeded"] == 1
    finally:
        _stop(router)


def test_drain_retires_every_shard():
    router, address = _start(2)
    with ServeClient(address) as client:
        client.check("mem://drain.rp", GOOD)
        handles = list(router.pool.live())
        response = client.shutdown()
        assert response == {"ok": True, "draining": True}
    assert router.wait_drained(60.0)
    for handle in handles:
        assert not handle.process.is_alive()
    # The final dump still carries the drained shards' counters.
    snapshot = router.stats_snapshot()
    assert snapshot["requests"]["check"]["ok"] >= 1
    assert snapshot["router"]["live_shards"] == 0
    assert router.render_text().startswith("rowpoly serve metrics")


def test_rejects_new_work_while_draining():
    router, address = _start(1)
    client = ServeClient(address)
    try:
        router.shutdown_requested.set()  # drain without retiring yet
        with pytest.raises(ServeError) as excinfo:
            client.check("mem://late.rp", GOOD)
        assert excinfo.value.name == "shutting-down"
    finally:
        client.close()
        router.shutdown_requested.clear()
        _stop(router)


# -- snapshot aggregation (pure) ----------------------------------------
def _snap(ok=0, hits=0, misses=0, uptime=1.0, mean=0.1, count=0):
    return {
        "uptime_seconds": uptime,
        "requests": {"check": {"ok": ok, "error": 0}},
        "sessions": {
            "hits": hits,
            "misses": misses,
            "evictions": 0,
            "invalidations": 0,
            "hit_rate": 0.0,
        },
        "latency": {
            "check": {
                "queue": None,
                "service": {
                    "count": count,
                    "mean": mean,
                    "p50": mean,
                    "p90": mean,
                    "p99": mean,
                    "max": mean,
                },
            }
        },
        "solver": {"rollup": {"queries": ok}, "merged_runs": ok},
        "diagnostics": {"RP0998": ok},
        "robustness": {"worker_restarts": 1},
    }


def test_aggregate_snapshots_sums_counters():
    merged = aggregate_snapshots(
        [_snap(ok=2, hits=1, misses=1), _snap(ok=3, hits=3, misses=0)]
    )
    assert merged["requests"]["check"]["ok"] == 5
    assert merged["sessions"]["hits"] == 4
    assert merged["sessions"]["hit_rate"] == pytest.approx(4 / 5)
    assert merged["solver"]["rollup"]["queries"] == 5
    assert merged["solver"]["merged_runs"] == 5
    assert merged["diagnostics"]["RP0998"] == 5
    assert merged["robustness"]["worker_restarts"] == 2


def test_aggregate_snapshots_latency_is_count_weighted():
    merged = aggregate_snapshots(
        [
            _snap(count=9, mean=0.1, uptime=4.0),
            _snap(count=1, mean=1.1, uptime=9.0),
        ]
    )
    service = merged["latency"]["check"]["service"]
    assert service["count"] == 10
    assert service["mean"] == pytest.approx(0.2)
    assert service["max"] == pytest.approx(1.1)
    # Percentiles are not mergeable and must not be fabricated.
    assert "p99" not in service
    assert merged["uptime_seconds"] == pytest.approx(9.0)


def test_aggregate_snapshots_tolerates_missing_sections():
    merged = aggregate_snapshots([_snap(ok=1), {"uptime_seconds": 2.0}])
    assert merged["requests"]["check"]["ok"] == 1
    assert aggregate_snapshots([]) == {}
