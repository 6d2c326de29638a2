"""Unit tests for the daemon metrics subsystem."""

from repro.boolfn.engine import SolverStats
from repro.server.metrics import Histogram, ServerMetrics


class TestHistogram:
    def test_empty_snapshot_is_all_zero(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0
        assert snap["p99"] == 0.0

    def test_count_and_mean(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert abs(snap["mean"] - 0.002) < 1e-9
        assert snap["max"] == 0.003

    def test_percentiles_are_ordered(self):
        histogram = Histogram()
        for index in range(1, 101):
            histogram.observe(index / 1000.0)  # 1ms .. 100ms
        snap = histogram.snapshot()
        assert snap["p50"] <= snap["p90"] <= snap["p99"]
        # geometric buckets are coarse; just pin the right decade
        assert 0.02 < snap["p50"] < 0.13
        assert snap["p99"] <= snap["max"]

    def test_percentiles_never_exceed_the_observed_max(self):
        histogram = Histogram()
        for value in (0.0002, 0.0003, 0.0011):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["max"]
        assert snap["max"] == 0.0011
        single = Histogram()
        single.observe(0.0)
        assert single.snapshot()["p50"] == 0.0

    def test_out_of_range_values_clamp(self):
        histogram = Histogram()
        histogram.observe(0.0)       # below the first bound
        histogram.observe(1e9)       # beyond the last bucket
        snap = histogram.snapshot()
        assert snap["count"] == 2
        assert snap["max"] == 1e9


class TestServerMetrics:
    def test_request_counters_by_status(self):
        metrics = ServerMetrics()
        metrics.record_request("check", "ok", service_seconds=0.01)
        metrics.record_request("check", "ok", service_seconds=0.02)
        metrics.record_request("check", "timeout", service_seconds=0.5)
        metrics.record_request("check", "rejected")
        snap = metrics.snapshot()
        counts = snap["requests"]["check"]
        assert counts["ok"] == 2
        assert counts["timeout"] == 1
        assert counts["rejected"] == 1
        # rejected requests never ran: only the 3 served ones are timed
        assert snap["latency"]["check"]["service"]["count"] == 3

    def test_session_hit_rate(self):
        metrics = ServerMetrics()
        metrics.record_session_event("hits", 3)
        metrics.record_session_event("misses", 1)
        metrics.record_session_event("evictions")
        snap = metrics.snapshot()["sessions"]
        assert snap["hits"] == 3
        assert snap["misses"] == 1
        assert snap["evictions"] == 1
        assert snap["hit_rate"] == 0.75

    def test_hit_rate_with_no_traffic_is_zero(self):
        assert ServerMetrics().snapshot()["sessions"]["hit_rate"] == 0.0

    def test_solver_rollup_uses_merge(self):
        metrics = ServerMetrics()
        metrics.merge_solver_stats(SolverStats(queries=4, cache_hits=1))
        metrics.merge_solver_stats(SolverStats(queries=6, conflicts=2))
        metrics.merge_solver_stats(None)  # tolerated, not counted
        snap = metrics.snapshot()["solver"]
        assert snap["merged_runs"] == 2
        assert snap["rollup"]["queries"] == 10
        assert snap["rollup"]["cache_hits"] == 1
        assert snap["rollup"]["conflicts"] == 2

    def test_render_text_mentions_methods_and_sessions(self):
        metrics = ServerMetrics()
        metrics.record_request("check", "ok", service_seconds=0.01)
        metrics.record_session_event("hits")
        text = metrics.render_text()
        assert "check" in text
        assert "hit_rate" in text

    def test_snapshot_is_json_clean(self):
        import json

        metrics = ServerMetrics()
        metrics.record_request("check", "ok", service_seconds=0.01)
        metrics.merge_solver_stats(SolverStats(queries=1))
        json.dumps(metrics.snapshot())  # must not raise

    def test_per_code_diagnostic_counters(self):
        metrics = ServerMetrics()
        metrics.record_diagnostics(["RP0001", "RP0006", "RP0001"])
        metrics.record_diagnostics([])
        snap = metrics.snapshot()["diagnostics"]
        assert snap == {"RP0001": 2, "RP0006": 1}
        text = metrics.render_text()
        assert "RP0001=2" in text

    def test_no_diagnostics_line_when_empty(self):
        assert "diagnostics:" not in ServerMetrics().render_text()


class TestDaemonDiagnosticCounters:
    def test_check_records_codes_once_per_fresh_outcome(self, tmp_path):
        from repro.server.daemon import Daemon, DaemonConfig
        from repro.server.scheduler import Job
        from repro.util import Deadline

        path = tmp_path / "bad.rp"
        path.write_text("bad = #a {};\ndep = bad\n")
        daemon = Daemon(DaemonConfig(workers=1))
        try:
            params = {"path": str(path)}
            for _ in range(2):  # second run is a replay hit
                job = Job(
                    id=1,
                    method="check",
                    params=params,
                    deadline=Deadline(None),
                    respond=lambda message: None,
                )
                response = daemon._run_check_job(job, 0.0)
                assert response["result"]["exit"] == 1
            snap = daemon.metrics.snapshot()["diagnostics"]
        finally:
            daemon.request_shutdown()
            daemon.wait_drained(timeout=30.0)
        # bad fails (RP0001); dep is dependency-skipped (RP0006); the
        # cached replay must not double-count.
        assert snap == {"RP0001": 1, "RP0006": 1}


class TestStoreCounters:
    def test_record_store_event_shows_in_snapshot(self):
        metrics = ServerMetrics()
        metrics.record_store_event("hits", 3)
        metrics.record_store_event("misses")
        metrics.record_store_event("corrupt_entries")
        store = metrics.snapshot()["store"]
        assert store["hits"] == 3
        assert store["misses"] == 1
        assert store["corrupt_entries"] == 1
        assert abs(store["hit_rate"] - 0.75) < 1e-9

    def test_unknown_event_is_tolerated(self):
        # A newer store layer may emit counters this daemon predates;
        # they are carried through (and summed by aggregation), never
        # a KeyError.
        metrics = ServerMetrics()
        metrics.record_store_event("warp_factor", 9)  # must not raise
        assert metrics.snapshot()["store"]["warp_factor"] == 9

    def test_idle_store_stays_out_of_render_text(self):
        metrics = ServerMetrics()
        assert "store:" not in metrics.render_text()
        metrics.record_store_event("hits")
        assert "store: hit_rate=" in metrics.render_text()

    def test_hook_signature_matches_open_store(self, tmp_path):
        from repro.store import open_store

        metrics = ServerMetrics()
        store = open_store(str(tmp_path),
                           metrics_hook=metrics.record_store_event)
        store.put("k", {"v": 1})
        store.get("k")
        store.get("absent")
        snap = metrics.snapshot()["store"]
        assert snap["hits"] == 1
        assert snap["misses"] == 1


class TestAggregateTolerance:
    """Fleet aggregation across shards of *different* versions."""

    def _snapshot(self, **overrides):
        metrics = ServerMetrics()
        snap = metrics.snapshot()
        snap.update(overrides)
        return snap

    def test_store_section_sums_and_recomputes_hit_rate(self):
        from repro.server.metrics import aggregate_snapshots

        a = self._snapshot()
        a["store"] = {"hits": 9, "misses": 1, "hit_rate": 0.9,
                      "evictions": 0, "corrupt_entries": 0}
        b = self._snapshot()
        b["store"] = {"hits": 0, "misses": 10, "hit_rate": 0.0,
                      "evictions": 2, "corrupt_entries": 1}
        merged = aggregate_snapshots([a, b])["store"]
        assert merged["hits"] == 9
        assert merged["misses"] == 11
        assert merged["evictions"] == 2
        assert merged["corrupt_entries"] == 1
        # Recomputed from the sums: 9/20 — NOT the 0.45 != (0.9+0)/2
        # average that would weight an idle shard like a busy one.
        assert abs(merged["hit_rate"] - 0.45) < 1e-9

    def test_unknown_counter_keys_are_summed_not_fatal(self):
        from repro.server.metrics import aggregate_snapshots

        a = self._snapshot()
        a["requests"]["frobnications"] = 3  # a newer shard's counter
        b = self._snapshot()  # an older shard without it
        merged = aggregate_snapshots([a, b])
        assert merged["requests"]["frobnications"] == 3

    def test_missing_section_on_one_shard_is_tolerated(self):
        from repro.server.metrics import aggregate_snapshots

        a = self._snapshot()
        a["store"]["hits"] = 4
        b = self._snapshot()
        del b["store"]  # pre-store shard
        merged = aggregate_snapshots([a, b])
        assert merged["store"]["hits"] == 4

    def test_mixed_type_values_keep_first_nonempty(self):
        from repro.server.metrics import aggregate_snapshots

        a = self._snapshot()
        a["robustness"]["last_crash"] = "worker-3"
        b = self._snapshot()
        merged = aggregate_snapshots([a, b])
        assert merged["robustness"]["last_crash"] == "worker-3"

    def test_overload_section_sums_across_shards(self):
        from repro.server.metrics import aggregate_snapshots

        a = self._snapshot()
        a["overload"].update(
            {"requests_shed": 5, "breaker_open_total": 1,
             "brownout_seconds": 2.5, "brownout_active": 1}
        )
        b = self._snapshot()
        b["overload"].update({"requests_shed": 2, "brownout_active": 0})
        merged = aggregate_snapshots([a, b])["overload"]
        assert merged["requests_shed"] == 7
        assert merged["breaker_open_total"] == 1
        assert abs(merged["brownout_seconds"] - 2.5) < 1e-9
        # The active gauge sums into "how many shards are browned out".
        assert merged["brownout_active"] == 1


class TestOverloadCounters:
    def test_overload_events_show_in_snapshot_and_render(self):
        metrics = ServerMetrics()
        metrics.record_overload_event("requests_shed", 3)
        metrics.record_overload_event("breaker_open_total")
        metrics.record_overload_event("brownout_seconds", 1.25)
        overload = metrics.snapshot()["overload"]
        assert overload["requests_shed"] == 3
        assert overload["breaker_open_total"] == 1
        assert abs(overload["brownout_seconds"] - 1.25) < 1e-9
        assert "overload:" in metrics.render_text()

    def test_idle_overload_stays_out_of_render_text(self):
        assert "overload:" not in ServerMetrics().render_text()

    def test_shed_requests_stay_out_of_service_latency(self):
        metrics = ServerMetrics()
        metrics.record_request("check", "shed", 0.0, 99.0)
        snapshot = metrics.snapshot()
        # A refusal at submit never ran: no service histogram at all.
        assert "check" not in snapshot["latency"]
        assert snapshot["requests"]["check"]["shed"] == 1
