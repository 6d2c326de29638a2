"""Command-line interface: ``rowpoly`` / ``python -m repro``.

Subcommands:

* ``infer FILE``     — type-check a program with a chosen engine,
* ``check PATH...``  — batch-check module files (``--jobs/--json/--trace``;
  ``--server ADDR`` routes through a running daemon),
* ``serve``          — run the persistent inference daemon (stdio or TCP),
* ``client``         — one raw JSON-RPC call against a running daemon,
* ``cache``          — administer the persistent result store
  (``stats``/``gc``/``verify``/``clear``),
* ``audit``          — corpus-scale audit pipeline: ``run`` a corpus
  into a deterministic findings document, ``report`` triage summaries,
  ``diff`` against a baseline (the CI gate),
* ``eval FILE``      — run a program under the concrete semantics,
* ``bench fig9``     — regenerate the Fig. 9 table,
* ``generate``       — emit a synthetic decoder specification.

Exit codes follow the usual compiler convention: 0 = well-typed, 1 =
ill-typed, 2 = parse/usage error, 3 = partial (a ``--budget-*`` resource
limit aborted some declarations).  Diagnostics go to stderr; structured
output (``--json``) goes to stdout and never contains timings, so the
output of ``check --jobs N`` is byte-identical for every N — and so is
``check --server`` against the offline run, which is the daemon's parity
contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable

from .boolfn.engine import SolverStats
from .gdsl import FIG9_CORPORA, GeneratorConfig, build_corpus, generate_decoder
from .infer import FlowOptions, InferenceError, InferSession, infer_flow
from .infer.registry import REGISTRY
from .lang import LexError, ParseError, parse, parse_module
from .lang.ast import IntLit, Let
from .semantics import Omega, evaluate
from .server.service import (
    EXIT_ILL_TYPED,
    EXIT_OK,
    EXIT_USAGE,
    MODULE_SUFFIX,
    fingerprint_source,
    read_module,
    unchecked_outcome,
)
from .types.project import strip
from .util import run_deep


def cmd_infer(args: argparse.Namespace) -> int:
    try:
        source = read_module(args.file)
        expr = run_deep(lambda: parse(source))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, LexError) as error:
        print(f"parse error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.engine == "flow":
            options = FlowOptions(
                track_fields=not args.no_fields,
                gc=not args.no_gc,
                lazy_fields=args.lazy_fields,
                when_conditional=args.when_conditional,
                symcat_must=args.symcat_must,
            )
            result = run_deep(lambda: infer_flow(expr, options))
            print(f"type    : {strip(result.type)!r}")
            print(f"flagged : {result.type!r}")
            print(f"clauses : {len(result.beta)} ({result.formula_class.value})")
            if args.show_flow:
                from .infer.signatures import signature

                sig = signature(result)
                print(f"signature: {sig.type_text}")
                if sig.flow_text:
                    print(f"    where {sig.flow_text}")
            if args.stats:
                for key, value in result.stats.as_dict().items():
                    print(f"  {key}: {value}")
            if args.solver_stats:
                import json

                stats = (
                    result.solver_stats.as_dict()
                    if result.solver_stats is not None
                    else {}
                )
                print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            runner = REGISTRY.expression_runner(args.engine)
            result = run_deep(lambda: runner(expr))
            print(f"type    : {result.type!r}")
    except InferenceError as error:
        print(f"type error[{error.diagnostic.code}]: {error}",
              file=sys.stderr)
        _print_diagnostic_details(error.diagnostics)
        return EXIT_ILL_TYPED
    return EXIT_OK


def _print_diagnostic_details(diagnostics) -> None:
    """The indented witness/related lines under an error header.

    One rendering for every text surface (``infer`` and ``check``); the
    header line differs per command, the detail lines do not.
    """
    for diagnostic in diagnostics:
        witness = diagnostic.witness_text()
        if witness:
            print(f"  witness: {witness}", file=sys.stderr)
        for message, pos in diagnostic.related:
            print(f"  note: {message} ({pos})", file=sys.stderr)


# ---------------------------------------------------------------------------
# check: batch module checking through inference sessions
# ---------------------------------------------------------------------------
def _collect_check_files(paths: list[str]) -> list[str] | None:
    """Expand directories into their ``*.rp`` files; None on a bad path."""
    files: list[str] = []
    for path in paths:
        if path == "-":
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(MODULE_SUFFIX)
                )
        elif os.path.isfile(path):
            files.append(path)
        else:
            print(f"error: no such file or directory: {path}",
                  file=sys.stderr)
            return None
    return files


def _budget_params_from_args(args: argparse.Namespace) -> dict | None:
    """The wire-shaped budget spec from ``--budget-*`` flags, or ``None``.

    A *spec*, not a :class:`~repro.util.Budget`: budgets are stateful
    (their wall clock starts at construction), so each check — possibly
    in another process or on the daemon — builds its own fresh instance.
    """
    spec: dict[str, object] = {}
    if getattr(args, "budget_ms", None) is not None:
        spec["ms"] = args.budget_ms
    if getattr(args, "budget_solver_steps", None) is not None:
        spec["solver_steps"] = args.budget_solver_steps
    if getattr(args, "budget_max_clauses", None) is not None:
        spec["max_clauses"] = args.budget_max_clauses
    if getattr(args, "budget_core_queries", None) is not None:
        spec["core_queries"] = args.budget_core_queries
    return spec or None


def _resolve_store_dir(args: argparse.Namespace) -> str | None:
    """The store directory from ``--store`` or ``ROWPOLY_STORE``."""
    explicit = getattr(args, "store", None)
    return explicit or os.environ.get("ROWPOLY_STORE") or None


def _batch_store_dir(args: argparse.Namespace) -> str | None:
    """The store a batch command opens itself: none under ``--server``.

    The daemon owns its store (``serve --store``); a client-side
    directory would be consulted in the wrong process.
    """
    store_dir = _resolve_store_dir(args)
    if args.server and store_dir:
        print("note: --server ignores --store; pass it to "
              "`rowpoly serve` instead", file=sys.stderr)
        return None
    return store_dir


def _code_suffix(payload: dict[str, object]) -> str:
    """``[RP####]`` when the payload carries a diagnostic code."""
    code = payload.get("code")
    return f"[{code}]" if code else ""


def _print_payload_diagnostics(payload: dict[str, object]) -> None:
    """Witness/related lines from a JSON payload's diagnostic dicts.

    The dict twin of :func:`_print_diagnostic_details`: ``check``
    renders from the stable report (also when it came over the wire
    from a daemon), so the text output is identical offline and
    ``--server``.
    """
    for diagnostic in payload.get("diagnostics") or []:
        steps = diagnostic.get("witness") or []
        if steps:
            witness = " -> ".join(step["description"] for step in steps)
            print(f"  witness: {witness}", file=sys.stderr)
        for note in diagnostic.get("related") or []:
            pos = note.get("pos") or {}
            where = f"{pos.get('line', '?')}:{pos.get('column', '?')}"
            print(f"  note: {note['message']} ({where})", file=sys.stderr)


def _print_trace(payload: dict[str, object]) -> None:
    spans = payload["trace"]
    if not spans:
        return
    order = ("parse", "infer", "rehydrate", "unify", "sat", "gc", "total")
    rendered = " ".join(
        f"{phase}={spans[phase] * 1000:.1f}ms"
        for phase in order
        if phase in spans
    )
    print(f"trace: {payload['file']}: {rendered}", file=sys.stderr)


def cmd_check(args: argparse.Namespace) -> int:
    # Imported here, not at module level: every serve process and shard
    # imports this module, and none of them needs the audit package.
    from .audit.discover import AuditPlan, AuditUnit
    from .audit.execute import ExecuteConfig, execute

    files = _collect_check_files(args.paths)
    if files is None:
        return EXIT_USAGE
    if not files:
        print("error: no module files to check", file=sys.stderr)
        return EXIT_USAGE
    # This process reads every file, in argument order, on every
    # execution path (so ``-`` is stdin here, never a worker's); an
    # unreadable file becomes its payload in place.
    payloads: list[dict[str, object] | None] = []
    units: list[AuditUnit] = []
    for path in files:
        try:
            source = read_module(path)
        except OSError as error:
            payloads.append(unchecked_outcome(path, error).payload(path))
            continue
        payloads.append(None)
        units.append(
            AuditUnit(path, source, fingerprint_source(source), shard=0)
        )
    config = ExecuteConfig(
        engine=args.engine,
        options=FlowOptions(track_fields=not args.no_fields,
                            gc=not args.no_gc),
        budget_spec=_budget_params_from_args(args),
        store_dir=_batch_store_dir(args),
        jobs=args.jobs,
        server=args.server,
        retries=args.retries,
        retry_seed=args.retry_seed,
    )
    try:
        checked = iter(execute(AuditPlan(tuple(units), shards=1), config))
    except (OSError, ValueError) as error:
        if not args.server:
            raise
        print(f"error: cannot reach server {args.server}: {error}",
              file=sys.stderr)
        return EXIT_USAGE
    # ``execute`` keeps plan order, so every downstream artefact (JSON,
    # diagnostics, exit code) is independent of scheduling.
    payloads = [p if p is not None else next(checked) for p in payloads]
    exit_code = EXIT_OK
    for payload in payloads:
        exit_code = max(exit_code, payload["exit"])
        if args.trace:
            _print_trace(payload)
        report = payload["report"]
        if report["ok"] or args.json:
            continue
        if "decls" not in report:  # file-level parse/read failure
            print(f"{payload['file']}: {report['error']}"
                  f"{_code_suffix(report)}: {report['message']}",
                  file=sys.stderr)
            continue
        for decl in report["decls"]:
            if decl["status"] == "ok":
                continue
            print(
                f"{payload['file']}:{decl['line']}:{decl['column']}: "
                f"{decl['decl']}: {decl['error']}{_code_suffix(decl)}: "
                f"{decl['message']}",
                file=sys.stderr,
            )
            _print_payload_diagnostics(decl)
    if args.json:
        print(json.dumps([p["report"] for p in payloads],
                         indent=2, sort_keys=True))
    else:
        for payload in payloads:
            report = payload["report"]
            if report["ok"]:
                count = len(report["decls"])
                print(f"{payload['file']}: ok ({count} declarations)")
            else:
                failed = sum(
                    1
                    for decl in report.get("decls", [])
                    if decl["status"] != "ok"
                ) or 1
                print(f"{payload['file']}: FAILED ({failed} errors)")
    if args.solver_stats:
        _print_check_solver_stats(payloads, args)
    return exit_code


def _print_check_solver_stats(
    payloads: list[dict[str, object]], args: argparse.Namespace
) -> None:
    """The batch-wide SolverStats rollup (parity with ``infer``'s flag).

    Goes to stdout like ``rowpoly infer --solver-stats``, except under
    ``--json``, where stdout is the deterministic report array and the
    rollup moves to stderr.
    """
    if args.server:
        print(
            "note: --server keeps solver telemetry on the daemon; "
            f"query it with: rowpoly client {args.server} stats",
            file=sys.stderr,
        )
        return
    rollup = SolverStats.merged(p["solver_stats"] for p in payloads)
    text = json.dumps(rollup.as_dict(), indent=2, sort_keys=True)
    print(text, file=sys.stderr if args.json else sys.stdout)


# ---------------------------------------------------------------------------
# serve / client: the persistent inference daemon
# ---------------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    # Every shard of a fleet runs the configuration a lone daemon would.
    settings = dict(
        engine=args.engine,
        workers=args.workers,
        queue_limit=args.queue_limit,
        sessions=args.sessions,
        deadline_ms=args.deadline_ms,
        track_fields=not args.no_fields,
        gc=not args.no_gc,
        budget_ms=args.budget_ms,
        budget_solver_steps=args.budget_solver_steps,
        budget_max_clauses=args.budget_max_clauses,
        budget_core_queries=args.budget_core_queries,
        quarantine_threshold=args.quarantine_threshold,
        quarantine_ttl=args.quarantine_ttl,
        hang_seconds=args.hang_seconds,
        store_dir=_resolve_store_dir(args),
        shed=args.shed,
        brownout_threshold=args.brownout_threshold,
        brownout_window=args.brownout_window,
        brownout_exit_ratio=args.brownout_exit_ratio,
        brownout_budget_ms=args.brownout_budget_ms,
    )
    if args.shards > 0:
        from .server.router import Router, RouterConfig

        # The router stays fault-free on purpose: ROWPOLY_FAULTS reaches
        # the *shards* through their spawned environment, so chaos
        # harnesses break workers, never the routing plane.
        server = Router(
            RouterConfig(
                **settings,
                shards=args.shards,
                shard_hang_seconds=args.shard_hang_seconds,
                probe_interval=args.probe_interval,
                breaker_failures=args.breaker_failures,
                breaker_latency_ms=args.breaker_latency_ms,
                breaker_recovery_seconds=args.breaker_recovery_seconds,
            )
        )
    else:
        from .server import Daemon, DaemonConfig
        from .testing.faults import install_from_env

        # Chaos harnesses inject faults into subprocess daemons through
        # the environment (ROWPOLY_FAULTS); a no-op without it.
        install_from_env(os.environ)
        server = Daemon(DaemonConfig(**settings))
    drain_timeout = server.config.drain_timeout

    def on_signal(signum, frame):  # SIGTERM/SIGINT: graceful drain
        server.request_shutdown()
        server.wait_drained(drain_timeout + 5.0)
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        if args.tcp:
            host, _, port_text = args.tcp.rpartition(":")
            host = host or "127.0.0.1"
            try:
                port = int(port_text)
            except ValueError:
                print(f"error: bad --tcp address {args.tcp!r} "
                      f"(expected HOST:PORT)", file=sys.stderr)
                return EXIT_USAGE
            # Bind before announcing so `--tcp HOST:0` prints the real port.
            bound = server.serve_tcp(host, port, background=True)
            print(f"rowpoly serve: listening on {bound[0]}:{bound[1]}",
                  file=sys.stderr, flush=True)
            # Poll so SIGTERM/SIGINT are serviced promptly on every
            # platform while the acceptor thread does the work.
            while not server.drained.wait(1.0):
                pass
        else:
            server.serve_stdio()
    finally:
        server.request_shutdown()
        server.wait_drained(drain_timeout + 5.0)
        print(server.render_text(), file=sys.stderr)
        if args.metrics_dump:
            with open(args.metrics_dump, "w") as handle:
                json.dump(server.stats_snapshot(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
    return EXIT_OK


def cmd_client(args: argparse.Namespace) -> int:
    from .server.client import ServeClient

    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as error:
        print(f"error: --params is not valid JSON: {error}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(params, dict):
        print("error: --params must be a JSON object", file=sys.stderr)
        return EXIT_USAGE
    try:
        with ServeClient(args.address, timeout=args.timeout) as client:
            response = client.call(args.method, params)
    except (OSError, ValueError) as error:
        print(f"error: cannot reach server {args.address}: {error}",
              file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(response, indent=2, sort_keys=True))
    return EXIT_OK if "result" in response else EXIT_ILL_TYPED


# ---------------------------------------------------------------------------
# cache: administer the persistent result store
# ---------------------------------------------------------------------------
def cmd_cache(args: argparse.Namespace) -> int:
    """``rowpoly cache {stats,gc,verify,clear}`` on a store directory.

    Operates on the disk layer directly (no memory cache in front): the
    point is to observe and mutate what other processes will see.  Every
    action prints its result as key-sorted JSON on stdout.
    """
    from .store import DiskStore

    root = _resolve_store_dir(args)
    if not root:
        print("error: no store directory (use --store DIR or set "
              "ROWPOLY_STORE)", file=sys.stderr)
        return EXIT_USAGE
    try:
        store = DiskStore(root)
        if args.cache_command == "stats":
            result = store.stats()
        elif args.cache_command == "gc":
            result = store.gc(args.max_bytes)
        elif args.cache_command == "verify":
            result = store.verify()
        else:  # clear
            result = store.clear()
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.cache_command == "verify" and result.get("corrupt"):
        return EXIT_ILL_TYPED
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit: corpus-scale auditing with a deterministic evidence store
# ---------------------------------------------------------------------------
def cmd_audit_run(args: argparse.Namespace) -> int:
    from .audit import DiscoveryError, run_audit, render_report, save_findings
    from .server.metrics import ServerMetrics

    metrics = ServerMetrics()
    try:
        result = run_audit(
            args.paths,
            engine=args.engine,
            options=FlowOptions(track_fields=not args.no_fields,
                                gc=not args.no_gc),
            budget_spec=_budget_params_from_args(args),
            store_dir=_batch_store_dir(args),
            jobs=args.jobs,
            server=args.server,
            shards=args.shards,
            retries=args.retries,
            retry_seed=args.retry_seed,
            metrics=metrics,
        )
    except DiscoveryError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        save_findings(args.out, result.document)
        print(f"audit: wrote findings to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.document, indent=2, sort_keys=True))
    else:
        print(render_report(result.document))
    if args.metrics_dump:
        snapshot = metrics.snapshot()
        # Shard utilization is a property of this run's plan, not a
        # counter; it rides along in the audit section of the dump.
        snapshot["audit"]["shard_sizes"] = result.plan.shard_sizes()
        with open(args.metrics_dump, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result.exit


def cmd_audit_report(args: argparse.Namespace) -> int:
    from .audit import (
        FindingsError,
        load_findings,
        render_report,
        report_summary,
    )

    try:
        document = load_findings(args.findings)
    except FindingsError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report_summary(document), indent=2,
                         sort_keys=True))
    else:
        print(render_report(document))
    return EXIT_OK


def cmd_audit_diff(args: argparse.Namespace) -> int:
    from .audit import (
        FindingsError,
        diff_documents,
        load_findings,
        render_diff,
    )

    try:
        baseline = load_findings(args.baseline)
        current = load_findings(args.current)
    except FindingsError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    result = diff_documents(baseline, current)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_diff(result))
    if args.metrics_dump:
        from .server.metrics import ServerMetrics

        metrics = ServerMetrics()
        metrics.record_audit_event("findings_new", len(result.new))
        metrics.record_audit_event(
            "findings_resolved", len(result.resolved)
        )
        metrics.record_audit_event(
            "findings_persisting", len(result.persisting)
        )
        with open(args.metrics_dump, "w") as handle:
            json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result.exit_code


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        source = read_module(args.file)
        expr = run_deep(lambda: parse(source))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, LexError) as error:
        print(f"parse error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        value = run_deep(lambda: evaluate(expr, max_steps=args.max_steps))
    except Omega as error:
        print(f"runtime error (Ω): {error}", file=sys.stderr)
        return EXIT_ILL_TYPED
    print(repr(value))
    return EXIT_OK


def cmd_engines(args: argparse.Namespace) -> int:
    if args.json:
        import json

        print(json.dumps({"engines": REGISTRY.as_dicts()},
                         indent=2, sort_keys=True))
        return EXIT_OK
    for info in (REGISTRY.info(name) for name in REGISTRY.names()):
        caps = ", ".join(sorted(info.capabilities))
        print(f"{info.name:<13} [{caps}]")
        print(f"    {info.description}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    if args.corpus_dir:
        from .gdsl import CorpusConfig, generate_corpus, write_corpus
        if args.dynamic_records:
            from .gdsl import DynRecConfig, generate_dynrec_corpus

            corpus = generate_dynrec_corpus(
                DynRecConfig(modules=args.modules, seed=args.seed)
            )
            paths = write_corpus(corpus, args.corpus_dir)
            print(
                f"generate: wrote {len(paths)} dynamic-record modules "
                f"to {args.corpus_dir}",
                file=sys.stderr,
            )
            return 0

        corpus = generate_corpus(
            CorpusConfig(
                modules=args.modules,
                seed=args.seed,
                error_rate=args.error_rate,
            )
        )
        paths = write_corpus(corpus, args.corpus_dir)
        print(
            f"generate: wrote {len(paths)} modules "
            f"({len(corpus.injected_modules)} with injected errors) "
            f"to {args.corpus_dir}",
            file=sys.stderr,
        )
        return 0
    program = generate_decoder(
        GeneratorConfig(
            target_lines=args.lines,
            with_semantics=args.semantics,
            seed=args.seed,
        )
    )
    print(program.source, end="")
    return 0


def touch_decl(module, name: str):
    """A fingerprint-changing, signature-preserving edit of one declaration.

    Wraps the body in ``let __edit = 0 in body``: the pretty-printed form
    (hence the fingerprint) changes, the inferred scheme does not — the
    single-declaration-edit replay the incremental benchmark drives.
    """
    decl = module[name]
    return module.with_decl(
        name, Let("__edit", IntLit(0), decl.expr, span=decl.span)
    )


def cmd_bench_fig9(args: argparse.Namespace) -> int:
    print(f"Fig. 9 — inference times (scale={args.scale})")
    header = (
        f"{'decoder':<18} {'lines':>6} {'decls':>6} {'w/o fields':>11} "
        f"{'w. fields':>10} {'recheck':>8} {'ratio':>6} {'paper ratio':>11}"
    )
    print(header)
    print("-" * len(header))
    for spec in FIG9_CORPORA:
        program = build_corpus(spec, scale=args.scale, seed=args.seed)
        module = run_deep(lambda: parse_module(program.source))
        start = time.perf_counter()
        run_deep(
            lambda: InferSession(
                "flow", FlowOptions(track_fields=False)
            ).check(module)
        )
        without = time.perf_counter() - start
        session = InferSession("flow")
        start = time.perf_counter()
        run_deep(lambda: session.check(module))
        with_fields = time.perf_counter() - start
        # Single-declaration-edit replay: touch the first declaration
        # (the one with the most dependents) and re-check incrementally.
        edited = touch_decl(module, module.names()[0])
        start = time.perf_counter()
        run_deep(lambda: session.recheck(edited))
        recheck = time.perf_counter() - start
        paper_ratio = (
            spec.paper_seconds_with_fields / spec.paper_seconds_without_fields
        )
        print(
            f"{spec.name:<18} {program.lines:>6} {len(module):>6} "
            f"{without:>10.2f}s {with_fields:>9.2f}s {recheck:>7.2f}s "
            f"{with_fields / max(without, 1e-9):>6.2f} "
            f"{paper_ratio:>11.2f}"
        )
    return 0


def _positive(kind: type) -> Callable[[str], float]:
    """An argparse ``type`` for a positive ``kind`` (``int``/``float``):
    a budget must leave room for some work, as ``Budget.from_params``
    requires, so zero or less is a usage error, not a traceback."""

    def parse(text: str) -> float:
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive number, not {text}"
            )
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def _add_budget_arguments(
    parser: argparse.ArgumentParser, server: bool = False
) -> None:
    """The shared ``--budget-*`` resource-ceiling flags.

    On ``check`` they bound each file's inference (exceeding a ceiling
    aborts the offending declarations with RP0998 and exit code 3); on
    ``serve`` they set the daemon-wide default that per-request budgets
    may override.
    """
    scope = "default per-request" if server else "per-file"
    parser.add_argument(
        "--budget-ms", type=_positive(float), default=None, metavar="MS",
        help=f"{scope} wall-clock budget; declarations that exceed it "
        "are aborted with RP0998 (partial report, not a failure)",
    )
    parser.add_argument(
        "--budget-solver-steps", type=_positive(int), default=None,
        metavar="N",
        help=f"{scope} ceiling on solver steps (CDCL conflicts and "
        "linear-engine queries)",
    )
    parser.add_argument(
        "--budget-max-clauses", type=_positive(int), default=None,
        metavar="N",
        help=f"{scope} ceiling on the flow formula's clause count",
    )
    parser.add_argument(
        "--budget-core-queries", type=_positive(int), default=None,
        metavar="N",
        help=f"{scope} ceiling on unsat-core minimisation queries",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowpoly",
        description=(
            "Optimal inference of fields in row-polymorphic records "
            "(Simon, PLDI 2014) — reproduction"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="type-check a program")
    p_infer.add_argument("file", help="program file ('-' for stdin)")
    p_infer.add_argument(
        "--engine",
        choices=sorted(REGISTRY.expression_names()),
        default="flow",
        help="inference engine (default: the paper's flow inference)",
    )
    p_infer.add_argument(
        "--no-fields", action="store_true",
        help="disable field tracking (Fig. 9 'w/o fields' mode)",
    )
    p_infer.add_argument(
        "--no-gc", action="store_true",
        help="disable stale-flag garbage collection (Sect. 6 bug mode)",
    )
    p_infer.add_argument(
        "--lazy-fields", action="store_true",
        help="Pottier-style lazy field types via conditional constraints",
    )
    p_infer.add_argument(
        "--when-conditional", action="store_true",
        help="type-changing `when` (Fig. 8, second rule)",
    )
    p_infer.add_argument(
        "--symcat-must", action="store_true",
        help="strict must-analysis for symmetric concatenation",
    )
    p_infer.add_argument("--stats", action="store_true", help="print stats")
    p_infer.add_argument(
        "--solver-stats", action="store_true",
        help="print the SatEngine telemetry (dispatch class, conflicts, "
        "propagations, cache hits, ...) as JSON",
    )
    p_infer.add_argument(
        "--show-flow", action="store_true",
        help="print the signature with its projected flow formula",
    )
    p_infer.set_defaults(handler=cmd_infer)

    p_check = sub.add_parser(
        "check",
        help="batch-check module files (per-declaration sessions)",
    )
    p_check.add_argument(
        "paths", nargs="+", metavar="PATH",
        help=f"module files, or directories searched for *{MODULE_SUFFIX}",
    )
    p_check.add_argument(
        "--engine",
        choices=sorted(REGISTRY.session_names()),
        default="flow",
        help="inference engine (default: the paper's flow inference)",
    )
    p_check.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="check files on N worker processes (output is independent "
        "of N)",
    )
    p_check.add_argument(
        "--json", action="store_true",
        help="print per-declaration results as JSON on stdout "
        "(deterministic: no timings)",
    )
    p_check.add_argument(
        "--trace", action="store_true",
        help="print per-file phase timings (parse/infer/unify/sat/gc) "
        "on stderr",
    )
    p_check.add_argument(
        "--no-fields", action="store_true",
        help="disable field tracking (Fig. 9 'w/o fields' mode)",
    )
    p_check.add_argument(
        "--no-gc", action="store_true",
        help="disable stale-flag garbage collection",
    )
    p_check.add_argument(
        "--server", metavar="ADDR", default=None,
        help="route the batch through a running `rowpoly serve` daemon at "
        "HOST:PORT (output is byte-identical to the offline run)",
    )
    p_check.add_argument(
        "--solver-stats", action="store_true",
        help="print the batch-wide SolverStats rollup as JSON (stdout; "
        "stderr under --json so the report array stays deterministic)",
    )
    p_check.add_argument(
        "--retries", type=int, default=4, metavar="N",
        help="with --server: retry retryable-unavailable answers "
        "(backpressure, quarantine, worker crash) and connection "
        "failures up to N times per file (default: 4)",
    )
    p_check.add_argument(
        "--retry-seed", type=int, default=0, metavar="SEED",
        help="with --server: seed for the retry backoff jitter "
        "(default: 0)",
    )
    p_check.add_argument(
        "--store", metavar="DIR", default=None,
        help="persistent content-addressed result store: serve cached "
        "reports from DIR and persist new ones (default: $ROWPOLY_STORE "
        "if set; cached output is byte-identical to a fresh run)",
    )
    _add_budget_arguments(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent inference daemon (JSON-RPC over "
        "stdio, or TCP with --tcp)",
    )
    p_serve.add_argument(
        "--tcp", metavar="HOST:PORT", default=None,
        help="listen on TCP instead of stdio (use port 0 for an "
        "ephemeral port; the bound address is printed on stderr)",
    )
    p_serve.add_argument(
        "--engine",
        choices=sorted(REGISTRY.session_names()),
        default="flow",
        help="default inference engine (requests may override)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run N shard worker processes behind a session-affinity "
        "router (shared-nothing; each shard is a full daemon with "
        "--workers threads); 0 = single-process daemon (default: 0)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker threads serving check requests — per shard when "
        "--shards is set (default: 2)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="bounded request queue; beyond it requests are rejected "
        "with an 'overloaded' error (default: 16)",
    )
    p_serve.add_argument(
        "--sessions", type=int, default=32, metavar="N",
        help="LRU capacity of the warm-session registry (default: 32)",
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="default per-request wall-clock deadline "
        "(default: unbounded; requests may override)",
    )
    p_serve.add_argument(
        "--no-fields", action="store_true",
        help="default to field tracking off",
    )
    p_serve.add_argument(
        "--no-gc", action="store_true",
        help="default to stale-flag garbage collection off",
    )
    p_serve.add_argument(
        "--metrics-dump", metavar="PATH", default=None,
        help="also write the final metrics snapshot as JSON to PATH "
        "at shutdown (the text dump always goes to stderr)",
    )
    _add_budget_arguments(p_serve, server=True)
    p_serve.add_argument(
        "--quarantine-threshold", type=int, default=3, metavar="N",
        help="quarantine a session after N crash/budget strikes without "
        "an intervening success; 0 disables quarantine (default: 3)",
    )
    p_serve.add_argument(
        "--quarantine-ttl", type=float, default=30.0, metavar="SECONDS",
        help="how long a quarantined session refuses requests before its "
        "strikes reset (default: 30)",
    )
    p_serve.add_argument(
        "--hang-seconds", type=float, default=None, metavar="SECONDS",
        help="watchdog: cancel any request served for longer than this "
        "(default: no hang watchdog)",
    )
    p_serve.add_argument(
        "--shard-hang-seconds", type=float, default=None,
        metavar="SECONDS",
        help="with --shards: kill and respawn a shard process whose "
        "forwarded request goes unanswered this long (default: no "
        "process watchdog)",
    )
    p_serve.add_argument(
        "--store", metavar="DIR", default=None,
        help="persistent content-addressed result store shared by the "
        "daemon — and by every shard under --shards (default: "
        "$ROWPOLY_STORE if set)",
    )
    p_serve.add_argument(
        "--probe-interval", type=float, default=0.0, metavar="SECONDS",
        help="with --shards: router health-probe period; each shard gets "
        "a circuit breaker fed by probe latency and queue depth "
        "(default: 0 = probing and breakers off)",
    )
    p_serve.add_argument(
        "--breaker-failures", type=int, default=3, metavar="N",
        help="consecutive failed/slow probes that open a shard's "
        "breaker, removing it from routing until recovery (default: 3)",
    )
    p_serve.add_argument(
        "--breaker-latency-ms", type=float, default=250.0, metavar="MS",
        help="probe round trips slower than this count as breaker "
        "strikes (default: 250)",
    )
    p_serve.add_argument(
        "--breaker-recovery-seconds", type=float, default=5.0,
        metavar="SECONDS",
        help="how long an open breaker waits before a half-open trial "
        "probe may re-close it (default: 5)",
    )
    p_serve.add_argument(
        "--shed", action="store_true",
        help="deadline-aware load shedding: refuse at admission (a "
        "retryable 429 with a computed retry_after_ms) any request "
        "whose remaining deadline is below the predicted queue wait "
        "plus service time",
    )
    p_serve.add_argument(
        "--brownout-threshold", type=float, default=None,
        metavar="PRESSURE",
        help="brownout mode: when queue pressure (occupancy x EWMA "
        "service ms) stays above this, serve degraded partial answers "
        "under a tightened budget instead of queueing toward timeouts "
        "(default: off)",
    )
    p_serve.add_argument(
        "--brownout-window", type=float, default=1.0, metavar="SECONDS",
        help="pressure must stay over/under threshold this long to "
        "enter/exit brownout (hysteresis; default: 1)",
    )
    p_serve.add_argument(
        "--brownout-exit-ratio", type=float, default=0.5, metavar="R",
        help="brownout exits once pressure stays below threshold*R for "
        "a window (default: 0.5)",
    )
    p_serve.add_argument(
        "--brownout-budget-ms", type=float, default=500.0, metavar="MS",
        help="per-request wall budget imposed while browned out "
        "(default: 500)",
    )
    p_serve.set_defaults(handler=cmd_serve)

    p_cache = sub.add_parser(
        "cache",
        help="administer a persistent result store directory",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_help = (
        "store directory (default: $ROWPOLY_STORE if set)"
    )
    p_cache_stats = cache_sub.add_parser(
        "stats", help="print entry/byte/counter statistics as JSON"
    )
    p_cache_stats.add_argument("--store", metavar="DIR", default=None,
                               help=cache_help)
    p_cache_gc = cache_sub.add_parser(
        "gc",
        help="evict oldest entries until the store fits under a byte "
        "budget (advisory-locked against concurrent gc)",
    )
    p_cache_gc.add_argument("--store", metavar="DIR", default=None,
                            help=cache_help)
    p_cache_gc.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="target size: evict least-recently-written entries until "
        "the object payloads total at most N bytes",
    )
    p_cache_verify = cache_sub.add_parser(
        "verify",
        help="re-validate every entry's self-check; quarantine corrupt "
        "ones (exit 1 if any were found)",
    )
    p_cache_verify.add_argument("--store", metavar="DIR", default=None,
                                help=cache_help)
    p_cache_clear = cache_sub.add_parser(
        "clear", help="remove all entries (and quarantined files)"
    )
    p_cache_clear.add_argument("--store", metavar="DIR", default=None,
                               help=cache_help)
    p_cache.set_defaults(handler=cmd_cache)

    p_audit = sub.add_parser(
        "audit",
        help="corpus-scale audit pipeline with a deterministic evidence "
        "store (run / report / diff)",
    )
    audit_sub = p_audit.add_subparsers(dest="audit_command", required=True)

    p_audit_run = audit_sub.add_parser(
        "run",
        help="discover, check and judge a corpus into a findings "
        "document (deterministic: byte-identical across re-runs, "
        "--jobs counts and --server fleets)",
    )
    p_audit_run.add_argument(
        "paths", nargs="+", metavar="PATH",
        help=f"corpus roots: module files, or directories searched for "
        f"*{MODULE_SUFFIX}",
    )
    p_audit_run.add_argument(
        "--engine",
        choices=sorted(REGISTRY.session_names()),
        default="flow",
        help="inference engine (default: the paper's flow inference)",
    )
    p_audit_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="audit modules on N worker processes (output is "
        "independent of N)",
    )
    p_audit_run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="content-derived shard count for the plan; with --server "
        "also the number of concurrent daemon connections (default: 1)",
    )
    p_audit_run.add_argument(
        "--server", metavar="ADDR", default=None,
        help="fan the corpus across a running `rowpoly serve` daemon or "
        "sharded router at HOST:PORT (findings are byte-identical to "
        "the offline run)",
    )
    p_audit_run.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the findings document to PATH under a self-"
        "verifying envelope (the `audit report`/`audit diff` input)",
    )
    p_audit_run.add_argument(
        "--json", action="store_true",
        help="print the findings document as JSON on stdout",
    )
    p_audit_run.add_argument(
        "--no-fields", action="store_true",
        help="disable field tracking (Fig. 9 'w/o fields' mode)",
    )
    p_audit_run.add_argument(
        "--no-gc", action="store_true",
        help="disable stale-flag garbage collection",
    )
    p_audit_run.add_argument(
        "--retries", type=int, default=4, metavar="N",
        help="with --server: retry retryable-unavailable answers up to "
        "N times per module (default: 4)",
    )
    p_audit_run.add_argument(
        "--retry-seed", type=int, default=0, metavar="SEED",
        help="with --server: seed for the retry backoff jitter "
        "(default: 0)",
    )
    p_audit_run.add_argument(
        "--store", metavar="DIR", default=None,
        help="persistent content-addressed result store: a store-warm "
        "re-audit re-solves nothing (default: $ROWPOLY_STORE if set)",
    )
    p_audit_run.add_argument(
        "--metrics-dump", metavar="PATH", default=None,
        help="write the run's metrics snapshot (modules audited, "
        "findings, store traffic, shard utilization) as JSON to PATH",
    )
    _add_budget_arguments(p_audit_run)
    p_audit_run.set_defaults(handler=cmd_audit_run)

    p_audit_report = audit_sub.add_parser(
        "report",
        help="per-code / per-module triage summary of a findings "
        "document",
    )
    p_audit_report.add_argument(
        "--findings", metavar="PATH", required=True,
        help="findings document written by `audit run --out`",
    )
    p_audit_report.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON on stdout",
    )
    p_audit_report.set_defaults(handler=cmd_audit_report)

    p_audit_diff = audit_sub.add_parser(
        "diff",
        help="compare findings documents by stable finding ID "
        "(exit 1 when anything is new — the CI gate)",
    )
    p_audit_diff.add_argument(
        "--baseline", metavar="PATH", required=True,
        help="the baseline findings document",
    )
    p_audit_diff.add_argument(
        "current", metavar="PATH",
        help="the current findings document",
    )
    p_audit_diff.add_argument(
        "--json", action="store_true",
        help="print the delta (new/resolved/persisting) as JSON",
    )
    p_audit_diff.add_argument(
        "--metrics-dump", metavar="PATH", default=None,
        help="write the delta's audit counters as a metrics snapshot "
        "to PATH",
    )
    p_audit_diff.set_defaults(handler=cmd_audit_diff)

    p_client = sub.add_parser(
        "client",
        help="one raw JSON-RPC call against a running daemon",
    )
    p_client.add_argument("address", metavar="ADDR", help="daemon HOST:PORT")
    p_client.add_argument(
        "method", metavar="METHOD",
        help="RPC method (check, stats, ping, cancel, shutdown)",
    )
    p_client.add_argument(
        "--params", metavar="JSON", default=None,
        help="request params as a JSON object",
    )
    p_client.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="socket timeout (default: 30)",
    )
    p_client.set_defaults(handler=cmd_client)

    p_eval = sub.add_parser("eval", help="run a program")
    p_eval.add_argument("file", help="program file ('-' for stdin)")
    p_eval.add_argument("--max-steps", type=int, default=1_000_000)
    p_eval.set_defaults(handler=cmd_eval)

    p_gen = sub.add_parser(
        "generate",
        help="emit a synthetic decoder spec, or a multi-module corpus "
        "with --corpus-dir",
    )
    p_gen.add_argument("--lines", type=int, default=1468)
    p_gen.add_argument("--semantics", action="store_true")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--corpus-dir", metavar="DIR", default=None,
        help="instead of one decoder on stdout, write a seeded multi-"
        "module corpus (*.rp files) into DIR — the audit pipeline's "
        "test workload",
    )
    p_gen.add_argument(
        "--modules", type=int, default=100, metavar="N",
        help="with --corpus-dir: number of modules (default: 100)",
    )
    p_gen.add_argument(
        "--error-rate", type=float, default=0.0, metavar="R",
        help="with --corpus-dir: probability of an injected type error "
        "per module (default: 0)",
    )
    p_gen.add_argument(
        "--dynamic-records", action="store_true",
        help="with --corpus-dir: emit dynamic-record modules (union-"
        "typed joins) that only the setrows engine accepts",
    )
    p_gen.set_defaults(handler=cmd_generate)

    p_engines = sub.add_parser(
        "engines",
        help="list the registered inference engines and their "
        "capabilities",
    )
    p_engines.add_argument(
        "--json", action="store_true",
        help="machine-readable listing (name, description, capabilities)",
    )
    p_engines.set_defaults(handler=cmd_engines)

    p_bench = sub.add_parser("bench", help="run a benchmark")
    bench_sub = p_bench.add_subparsers(dest="bench", required=True)
    p_fig9 = bench_sub.add_parser("fig9", help="the Fig. 9 timing table")
    p_fig9.add_argument(
        "--scale", type=float, default=0.25,
        help="corpus size multiplier (1.0 = the paper's line counts)",
    )
    p_fig9.add_argument("--seed", type=int, default=0)
    p_fig9.set_defaults(handler=cmd_bench_fig9)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
