#!/usr/bin/env bash
# The CI smoke suites, one per call, runnable locally from any directory:
#
#     bash tools/ci_smoke.sh SUITE
#
# SUITE is one of: batch daemon shard store audit chaos overload setrows
# diagnostics perfbench.  Commands run from the repository root, where
# they leave their artifacts (the CI job uploads them).  Like a CI step,
# the script stops at the first failing command, including a failing
# command piped into `tee`.
set -e -o pipefail
cd "$(dirname "$0")/.."

# start_serve LOG TRIES ARGS...: run `rowpoly serve ARGS...` in the
# background with stderr to LOG, leave its pid in SERVE_PID, and wait up
# to TRIES x 0.2 s for it to announce "listening on".
start_serve() {
  local log=$1 tries=$2
  shift 2
  PYTHONPATH=src python -m repro serve "$@" 2> "$log" &
  SERVE_PID=$!
  for _ in $(seq "$tries"); do
    grep -q "listening on" "$log" && break
    sleep 0.2
  done
}

suite_batch() {
  echo "== Batch-check the example modules"
  # Every engine, JSON parity between serial and parallel runs (with a
  # module on stdin, which only this process may read).
  PYTHONPATH=src python -m repro check examples/modules --trace
  for engine in flow mycroft damas-milner; do
    PYTHONPATH=src python -m repro check examples/modules --engine "$engine"
  done
  PYTHONPATH=src python -m repro check examples/modules - --json --jobs 1 \
    < examples/modules/decoders.rp > check-serial.json
  PYTHONPATH=src python -m repro check examples/modules - --json --jobs 4 \
    < examples/modules/decoders.rp > check-parallel.json
  cmp check-serial.json check-parallel.json

  echo "== An undecodable module is reported unreadable"
  # Not valid UTF-8: an IOError report and exit 2, the same bytes at
  # every --jobs.
  printf 'b = 1 \xff\n' > undecodable.rp
  for jobs in 1 4; do
    rc=0
    PYTHONPATH=src python -m repro check examples/modules undecodable.rp \
      --json --jobs "$jobs" > "check-undecodable-$jobs.json" || rc=$?
    test "$rc" -eq 2
  done
  cmp check-undecodable-1.json check-undecodable-4.json
  grep -q '"error": "IOError"' check-undecodable-1.json

  echo "== Run the example scripts"
  for script in examples/*.py; do
    PYTHONPATH=src python "$script" > /dev/null
  done

  echo "== Incremental re-check benchmark (quick)"
  # Replays single-declaration edits on the Fig. 9 corpus; asserts
  # recheck/fresh parity and the incremental speedup floor.
  PYTHONPATH=src python benchmarks/bench_incremental_check.py --quick
}

suite_daemon() {
  echo "== Serve the example modules"
  # Start a daemon, route the batch through it, and require byte
  # parity with the offline JSON; then a graceful SIGTERM drain.
  # The generous --budget-* defaults prove the resource governor
  # in the request path does not perturb the stable reports.
  start_serve serve.log 50 --tcp 127.0.0.1:7477 \
    --budget-ms 60000 --budget-max-clauses 2000000 \
    --metrics-dump serve-metrics.json
  grep "listening on" serve.log
  PYTHONPATH=src python -m repro check examples/modules --json > check-offline.json
  PYTHONPATH=src python -m repro check examples/modules --json \
    --server 127.0.0.1:7477 > check-served-cold.json
  PYTHONPATH=src python -m repro check examples/modules --json \
    --server 127.0.0.1:7477 > check-served-warm.json
  cmp check-offline.json check-served-cold.json
  cmp check-offline.json check-served-warm.json
  PYTHONPATH=src python -m repro client 127.0.0.1:7477 stats
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  grep "rowpoly serve metrics" serve.log
  python -c "import json; snap = json.load(open('serve-metrics.json')); assert snap['requests']['check']['ok'] == 6, snap['requests']; assert snap['sessions']['hits'] == 3, snap['sessions']"

  echo "== Served edits of a failing module equal offline checks"
  # One warm session takes a module with a failing declaration, then a
  # literal bump and an edit that inserts lines above the failure; each
  # answer must be the offline report of the same text, its positions
  # and witness included.
  start_serve serve-edits.log 50 --tcp 127.0.0.1:7480
  grep "listening on" serve-edits.log
  printf 'let\n    base = @{width = 1} {};\n    empty = {};\n' > edited.rp
  printf '    broken = #height empty;\n    fine = #width base\nin fine\n' \
    >> edited.rp
  for step in original bumped shifted; do
    case "$step" in
      bumped) sed -i 's/width = 1}/width = 10}/' edited.rp ;;
      shifted) sed -i 's/^    empty/    -- two lines\n\n    empty/' edited.rp ;;
    esac
    rc=0
    PYTHONPATH=src python -m repro check edited.rp --json \
      > check-edited-offline.json || rc=$?
    test "$rc" -eq 1
    rc=0
    PYTHONPATH=src python -m repro check edited.rp --json \
      --server 127.0.0.1:7480 > "check-edited-$step.json" || rc=$?
    test "$rc" -eq 1
    cmp check-edited-offline.json "check-edited-$step.json"
  done
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID"

  echo "== Budget exhaustion is a deterministic partial report"
  # A starved CDCL-class check must exit 3 with RP0998 — offline
  # and through a budgeted daemon alike — and a second, unbudgeted
  # run of the same session must recover completely.
  printf 'let\n  pair = {x = 1, y = 2};\n  use = \\r -> #x (r @@ {z = 3});\n  it = use pair\nin it\n' > cdcl.rp
  rc=0
  PYTHONPATH=src python -m repro check cdcl.rp --json \
    --budget-solver-steps 1 > starved.json || rc=$?
  test "$rc" -eq 3
  grep -q RP0998 starved.json
  start_serve serve-budget.log 50 --tcp 127.0.0.1:7478 \
    --budget-solver-steps 1
  rc=0
  PYTHONPATH=src python -m repro check cdcl.rp --json \
    --server 127.0.0.1:7478 > starved-served.json || rc=$?
  test "$rc" -eq 3
  cmp starved.json starved-served.json
  PYTHONPATH=src python -m repro check cdcl.rp --json \
    --server 127.0.0.1:7478 --budget-ms 60000 > recovered.json
  PYTHONPATH=src python -m repro check cdcl.rp --json > offline.json
  cmp offline.json recovered.json
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID"

  echo "== Warm-serving latency benchmark (quick)"
  # Fresh-process vs warm-daemon re-check on the Fig. 9 corpus;
  # asserts server/offline parity and the serving speedup floor.
  PYTHONPATH=src python benchmarks/bench_serve_latency.py --quick
}

suite_shard() {
  echo "== Serve the example modules through a sharded fleet"
  # A 2-shard router must serve byte-identical JSON to the offline
  # batch — cold and warm — then drain every shard on SIGTERM and
  # dump fleet-aggregated metrics with the router section intact.
  start_serve fleet.log 100 --shards 2 \
    --tcp 127.0.0.1:7479 \
    --metrics-dump fleet-metrics.json
  grep "listening on" fleet.log
  PYTHONPATH=src python -m repro check examples/modules --json > check-offline.json
  PYTHONPATH=src python -m repro check examples/modules --json \
    --server 127.0.0.1:7479 > check-sharded-cold.json
  PYTHONPATH=src python -m repro check examples/modules --json \
    --server 127.0.0.1:7479 > check-sharded-warm.json
  cmp check-offline.json check-sharded-cold.json
  cmp check-offline.json check-sharded-warm.json
  PYTHONPATH=src python -m repro client 127.0.0.1:7479 stats
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  grep "rowpoly serve metrics (sharded" fleet.log
  python -c "import json; snap = json.load(open('fleet-metrics.json')); assert snap['requests']['check']['ok'] == 6, snap['requests']; assert snap['router']['shards'] == 2, snap['router']; assert snap['router']['live_shards'] == 0, snap['router']"

  echo "== Sharded throughput benchmark (quick)"
  # Records throughput at 1/2/4 shards and client p50/p99.  The
  # >=2.5x 4-vs-1 scaling floor is asserted only on >=4-CPU
  # machines; the artefact always carries the measured ratio.
  PYTHONPATH=src python benchmarks/bench_serve_throughput.py --quick
}

suite_store() {
  rm -rf result-store  # a CI job starts from an empty directory
  echo "== Restarted daemon serves byte-identically with zero solves"
  # Warm a --store daemon, SIGTERM it, start a fresh one on the
  # same directory: the restarted process must serve the same
  # bytes from the store (store hits > 0, solver queries == 0).
  PYTHONPATH=src python -m repro check examples/modules --json > check-offline.json
  start_serve serve-cold.log 50 --tcp 127.0.0.1:7489 \
    --store result-store \
    --metrics-dump cold-metrics.json
  PYTHONPATH=src python -m repro check examples/modules --json \
    --server 127.0.0.1:7489 > check-cold.json
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  start_serve serve-warm.log 50 --tcp 127.0.0.1:7489 \
    --store result-store \
    --metrics-dump warm-metrics.json
  PYTHONPATH=src python -m repro check examples/modules --json \
    --server 127.0.0.1:7489 > check-warm.json
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  cmp check-offline.json check-cold.json
  cmp check-offline.json check-warm.json
  python -c "import json; snap = json.load(open('warm-metrics.json')); assert snap['store']['hits'] > 0, snap['store']; assert snap['solver']['rollup']['queries'] == 0, snap['solver']"

  echo "== Cache admin surface"
  # The store the daemons shared must verify clean, report sane
  # stats, and empty out through gc/clear.
  PYTHONPATH=src python -m repro cache stats --store result-store
  PYTHONPATH=src python -m repro cache verify --store result-store
  PYTHONPATH=src python -m repro cache gc --store result-store --max-bytes 0
  PYTHONPATH=src python -m repro cache clear --store result-store
  PYTHONPATH=src python -m repro cache stats --store result-store \
    | python -c "import json, sys; snap = json.load(sys.stdin); assert snap['entries'] == 0, snap"

  echo "== Warm-start benchmark (quick)"
  # No-store vs warm-store cold start on the Fig. 9 corpus;
  # asserts the >=5x speedup floor, zero solver queries on
  # store-served laps, and byte parity.
  PYTHONPATH=src python benchmarks/bench_store_warmstart.py --quick
}

suite_audit() {
  rm -rf corpus audit-store  # a CI job starts from an empty directory
  echo "== Audit a seeded corpus through a sharded fleet"
  # Generate a deterministic corpus with injected errors, audit it
  # through a 2-shard fleet, and require byte parity with the
  # offline audit; validate the document against the published
  # findings schema.
  PYTHONPATH=src python -m repro generate --corpus-dir corpus \
    --modules 200 --error-rate 0.05 --seed 42
  start_serve fleet.log 100 --shards 2 \
    --tcp 127.0.0.1:7490
  grep "listening on" fleet.log
  rc=0
  PYTHONPATH=src python -m repro audit run corpus --json \
    > audit-offline.json || rc=$?
  test "$rc" -eq 1   # injected errors: findings expected
  rc=0
  PYTHONPATH=src python -m repro audit run corpus --json \
    --server 127.0.0.1:7490 --shards 2 > audit-sharded.json || rc=$?
  test "$rc" -eq 1
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
  cmp audit-offline.json audit-sharded.json
  python - <<'PY'
import json, jsonschema
schema = json.load(open("docs/schema/audit-findings.schema.json"))
document = json.load(open("audit-offline.json"))
jsonschema.validate(document, schema)
assert document["findings"], "injected errors produced no findings"
print(f"validated {document['summary']['findings']} findings")
PY

  echo "== Warm re-audit is pure store hits with an empty diff"
  # Audit with --store twice: the first pass, into an empty store,
  # must print the offline document byte for byte (it is where
  # dependents import the exports of store-served declarations); the
  # second must re-solve nothing (store misses == 0, hits > 0) and
  # print it byte for byte too (its finding ids come from the
  # fingerprints the module entries carry), and `audit diff` against
  # the first run must be an empty delta exiting 0.  Every entry the
  # cold pass wrote must verify clean.
  rc=0
  PYTHONPATH=src python -m repro audit run corpus --json \
    --store audit-store --out baseline.json \
    --metrics-dump cold-metrics.json > audit-cold.json || rc=$?
  test "$rc" -eq 1
  cmp audit-offline.json audit-cold.json
  PYTHONPATH=src python -m repro cache verify --store audit-store \
    | python -c "import json, sys; verdict = json.load(sys.stdin); assert verdict['checked'] > 0 and verdict['corrupt'] == 0, verdict"
  rc=0
  PYTHONPATH=src python -m repro audit run corpus --json \
    --store audit-store --out current.json \
    --metrics-dump warm-metrics.json > audit-warm.json || rc=$?
  test "$rc" -eq 1
  cmp audit-offline.json audit-warm.json
  python - <<'PY'
import json
warm = json.load(open("warm-metrics.json"))
assert warm["store"]["hits"] > 0, warm["store"]
assert warm["store"]["misses"] == 0, warm["store"]
assert warm["audit"]["modules_audited"] == 200, warm["audit"]
print("warm re-audit: zero new solves")
PY
  PYTHONPATH=src python -m repro audit diff \
    --baseline baseline.json current.json --json \
    | python -c "import json, sys; delta = json.load(sys.stdin); assert delta['summary']['new'] == 0 and delta['summary']['resolved'] == 0, delta['summary']"
  PYTHONPATH=src python -m repro audit report --findings current.json

  echo "== Audit-corpus benchmark (quick)"
  # Cold vs store-warm audit of a generated corpus; asserts the
  # >=5x warm floor, zero warm misses, and byte parity.
  PYTHONPATH=src python benchmarks/bench_audit_corpus.py --quick
}

suite_chaos() {
  echo "== Chaos test suite"
  # Fault registry, budget abort/recovery, supervisor respawn and
  # quarantine, client retry loop — all against real daemons.
  PYTHONPATH=src python -m pytest -q tests/chaos

  echo "== Seeded chaos soak"
  # A real `rowpoly serve` subprocess under injected worker
  # crashes, engine errors, slowness, starved budgets, garbage and
  # oversized frames.  Asserts zero hangs, zero poisoned sessions
  # (post-storm reports byte-identical to offline), every request
  # terminally accounted, and a clean SIGTERM drain.
  python tools/chaos_run.py --requests 500 --seed 42 \
    --max-seconds 240 | tee chaos-summary.json

  echo "== Seeded chaos soak (sharded fleet)"
  # Same storm against `serve --shards 2`, with the extra
  # shard-kill arm: whole shard processes die mid-request and the
  # supervisor must respawn them.  Asserts the fleet healed
  # (live_shards == 2, shard_restarts >= 1) on top of the usual
  # invariants.
  python tools/chaos_run.py --shards 2 --requests 300 --seed 43 \
    --max-seconds 240 | tee chaos-shard-summary.json
}

suite_overload() {
  echo "== Overload-control tests"
  PYTHONPATH=src python -m pytest -q tests/server/test_overload.py

  echo "== Slow-shard breaker soak"
  # A 2-shard fleet with probes, breakers and shedding on; shard 0
  # answers everything 250 ms slow until its fault limit drains.
  # Asserts the breaker opens (breaker_open_total >= 1), requests
  # converge via failover with zero hangs, the healed shard is
  # re-adopted with its keys returning home, every transition is
  # visible in stats, and the drain is clean.
  python tools/chaos_run.py --overload --requests 60 --seed 42 \
    --max-seconds 240 | tee overload-summary.json
  python - <<'PY'
import json
summary = json.load(open("overload-summary.json"))
assert summary["ok"], summary["failures"]
assert summary["overload"]["breaker_open_total"] >= 1, summary
assert summary["evicted"] and summary["readopted"], summary
PY

  echo "== Overload goodput benchmark (quick)"
  # Time-bounded 2x-capacity storm, shedding on vs off; asserts
  # goodput with shedding >= 2x the no-shed baseline.
  PYTHONPATH=src python benchmarks/bench_overload.py --quick
}

suite_setrows() {
  rm -rf dynrec  # a CI job starts from an empty directory
  echo "== Engine registry is the single source of names"
  # `rowpoly engines --json` must list setrows, and the generated
  # README table must be in sync with the registry.
  PYTHONPATH=src python -m repro engines --json | tee engines.json
  python - <<'PY'
import json
names = [e["name"] for e in json.load(open("engines.json"))["engines"]]
assert "setrows" in names, names
PY
  PYTHONPATH=src python tools/gen_engine_table.py --check

  echo "== Dynamic-record corpus byte parity (offline / jobs / daemon / shards)"
  # Generate the seeded dynamic-record corpus only setrows types,
  # then require `check --engine setrows --json` to be
  # byte-identical offline, with --jobs 2, through an unsharded
  # daemon, and through a 2-shard fleet.
  PYTHONPATH=src python -m repro generate --corpus-dir dynrec --dynamic-records --modules 60 --seed 42
  PYTHONPATH=src python -m repro check --engine setrows --json dynrec > check-offline.json
  PYTHONPATH=src python -m repro check --engine setrows --json --jobs 2 dynrec > check-jobs.json
  cmp check-offline.json check-jobs.json
  start_serve daemon.log 100 --engine setrows --tcp 127.0.0.1:7495
  grep "listening on" daemon.log
  PYTHONPATH=src python -m repro check --engine setrows --json --server 127.0.0.1:7495 dynrec > check-daemon.json
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
  cmp check-offline.json check-daemon.json
  start_serve fleet.log 100 --engine setrows --shards 2 --tcp 127.0.0.1:7496
  grep "listening on" fleet.log
  PYTHONPATH=src python -m repro check --engine setrows --json --server 127.0.0.1:7496 dynrec > check-fleet.json
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
  cmp check-offline.json check-fleet.json

  echo "== Differential sweep against the flow engine"
  # 200 seeded shared-fragment modules plus the hypothesis
  # property: verdict and normalised-signature parity.
  PYTHONPATH=src python -m pytest -q tests/integration/test_setrows_differential.py tests/infer/test_setrows.py tests/infer/test_registry.py tests/gdsl/test_dynrec.py

  echo "== Quick benchmark artifact"
  PYTHONPATH=src python benchmarks/bench_setrows.py --quick
}

suite_diagnostics() {
  echo "== Golden diagnostics suite"
  # Witness paths + per-solver-class unsat cores + core minimality.
  PYTHONPATH=src python -m pytest -q \
    tests/infer/test_diagnostics_golden.py \
    tests/boolfn/test_unsat_core.py \
    tests/integration/test_api_facade.py

  echo "== Validate check --json against the published schema (offline)"
  printf 'bad = #foo {};\ndep = bad\n' > bad.rp
  PYTHONPATH=src python -m repro check --json examples/modules bad.rp \
    > check-report.json || test $? -eq 1
  python - <<'PY'
import json, jsonschema
schema = json.load(open("docs/schema/check-report.schema.json"))
payload = json.load(open("check-report.json"))
jsonschema.validate(payload, schema)
print(f"validated {len(payload)} reports")
PY

  echo "== Validate check --json via a daemon (--server parity)"
  start_serve serve.log 50 --tcp 127.0.0.1:7488
  PYTHONPATH=src python -m repro check --json examples/modules bad.rp \
    --server 127.0.0.1:7488 > check-report-served.json || test $? -eq 1
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID" || true
  cmp check-report.json check-report-served.json
  python - <<'PY'
import json, jsonschema
schema = json.load(open("docs/schema/check-report.schema.json"))
payload = json.load(open("check-report-served.json"))
jsonschema.validate(payload, schema)
print("served output validates identically")
PY
}

suite_perfbench() {
  echo "== Benchmark self-test"
  # Every perfbench workload at toy size, plus planted wrong answers
  # its known-answer checks must catch.
  python3 perfbench/selftest.py
}

case "${1:-}" in
  batch|daemon|shard|store|audit|chaos|overload|setrows|diagnostics|perfbench)
    SECONDS=0
    "suite_$1"
    echo "== Suite $1 passed in ${SECONDS}s"
    ;;
  *)
    echo "usage: bash tools/ci_smoke.sh" \
      "{batch|daemon|shard|store|audit|chaos|overload|setrows|diagnostics|perfbench}" >&2
    exit 2
    ;;
esac
