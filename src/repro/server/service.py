"""The canonical "check one module source" routine.

``rowpoly check`` (offline, possibly ``--jobs N``) and the serving daemon
must produce *byte-identical* stable reports for the same source — the
parity requirement that keeps the warm path honest.  Both therefore call
:func:`check_source`; neither re-implements the parse/report/exit-code
logic.

The stable ``report`` dict never contains timings or cache provenance.
Parse and lex failures carry structured ``line``/``column`` fields
whenever the offending token's span is known (I/O failures have no span
and carry none).
"""

from __future__ import annotations

import hashlib
import io
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from ..boolfn.engine import SolverStats
from ..diag import Diagnostic, codes, diagnostics_as_dicts
from ..diag.diagnostic import Pos
from ..infer import InferSession
from ..infer.state import FlowOptions
from ..lang import LexError, ParseError, parse_module
from ..store.backend import CacheBackend
from ..store.keys import config_digest, module_key
from ..util import Budget, Deadline, run_deep

EXIT_OK = 0
EXIT_ILL_TYPED = 1
EXIT_USAGE = 2
#: At least one declaration was aborted by a resource budget (RP0998) and
#: none actually failed: the report is partial, not a verdict.
EXIT_ABORTED = 3

#: File extension collected when a ``check`` path or an audit root is a
#: directory.
MODULE_SUFFIX = ".rp"


@dataclass
class CheckOutcome:
    """Everything one module check produced.

    ``report`` is the stable (deterministic, timing-free) JSON payload;
    ``trace`` and ``solver_stats`` are the non-stable companions.
    """

    report: dict[str, object]
    exit: int
    trace: dict[str, float] = field(default_factory=dict)
    solver_stats: Optional[SolverStats] = None
    fingerprint: str = ""
    #: The engine+options digest store keys use
    #: (:func:`repro.store.keys.config_digest`) — the producing
    #: configuration, recorded on audit findings.  Deliberately *not*
    #: part of the stable report: reports predate the store and their
    #: bytes are pinned by golden tests and cross-mode parity checks.
    config_digest: str = ""

    def payload(self, path: str) -> dict[str, object]:
        """The batch payload ``rowpoly check`` and ``audit run`` collect.

        The stable ``report`` travels beside its non-stable companions,
        so ``--json`` can print the reports alone and stay identical on
        every execution path.
        """
        return {
            "file": path,
            "report": self.report,
            "exit": self.exit,
            "trace": self.trace,
            "solver_stats": self.solver_stats,
        }


def unchecked_outcome(
    path: str, message: object, kind: str = "IOError"
) -> CheckOutcome:
    """The outcome of a source that never got a report.

    ``kind`` (the report's ``error``) names why: ``IOError`` for a file
    that could not be read, a ``Server...`` name for a request a daemon
    never answered.  The report has no span and no diagnostic, and the
    exit is the usage exit.
    """
    return CheckOutcome(
        report={
            "file": path,
            "ok": False,
            "error": kind,
            "message": str(message),
        },
        exit=EXIT_USAGE,
    )


def read_module(path: str) -> str:
    """The text of a module file, decoded as UTF-8; ``-`` reads stdin.

    A module that is not valid UTF-8 raises :class:`OSError` naming the
    path and the byte offset, so every reader reports it exactly as it
    reports a missing file: through :func:`unchecked_outcome`.  Stdin's
    bytes are decoded here as a file's are (strictly, with universal
    newlines), not by the stream's own, possibly lenient, error handler;
    a stdin that is a text stream (no byte buffer behind it) is already
    decoded.
    """
    try:
        if path != "-":
            with open(path, encoding="utf-8") as handle:
                return handle.read()
        stdin = getattr(sys.stdin, "buffer", None)
        if stdin is None:
            return sys.stdin.read()
        text = io.TextIOWrapper(stdin, encoding="utf-8")
        try:
            return text.read()
        finally:
            text.detach()  # leave stdin open for a later read
    except UnicodeDecodeError as error:
        raise OSError(
            f"{path}: not valid UTF-8 (byte {error.start}: {error.reason})"
        ) from error


def fingerprint_source(source: str) -> str:
    """Content hash used for warm-session invalidation and replay hits."""
    return hashlib.sha256(source.encode()).hexdigest()[:24]


def _failure_report(
    path: str, error: Exception, span=None
) -> dict[str, object]:
    code = codes.LEX if isinstance(error, LexError) else codes.PARSE
    report: dict[str, object] = {
        "file": path,
        "ok": False,
        "error": type(error).__name__,
        "message": str(error),
        "code": code,
    }
    if span is not None:
        report["line"] = span.line
        report["column"] = span.column
    report["diagnostics"] = diagnostics_as_dicts(
        (
            Diagnostic(
                code=code,
                message=str(error),
                pos=Pos.from_span(span),
            ),
        )
    )
    return report


def diagnostic_codes(report: dict[str, object]) -> list[str]:
    """All ``RP####`` codes in a stable report, one per diagnostic.

    Works on both shapes: file-level failures (parse/lex/IO) carry
    ``code`` at the top, module reports carry one per failing
    declaration.  The daemon's per-code metrics counters consume this.
    """
    found: list[str] = []
    top = report.get("code")
    if isinstance(top, str) and top:
        found.append(top)
    decls = report.get("decls")
    if isinstance(decls, list):
        for decl in decls:
            code = decl.get("code") if isinstance(decl, dict) else None
            if isinstance(code, str) and code:
                found.append(code)
    return found


def report_aborted(report: dict[str, object]) -> bool:
    """Whether a stable report is *partial*: any declaration aborted."""
    decls = report.get("decls")
    if not isinstance(decls, list):
        return False
    return any(
        isinstance(decl, dict) and decl.get("status") == "aborted"
        for decl in decls
    )


def _outcome_from_module_payload(
    path: str, payload: Optional[dict], fingerprint: str, digest: str
) -> Optional[CheckOutcome]:
    """A served outcome from a module-level store payload, or ``None``.

    The payload stores the report *without* its ``file`` field (paths
    are not part of store keys); reattaching it first keeps the stable
    JSON key order — and therefore the bytes — identical to a freshly
    computed report.
    """
    if not isinstance(payload, dict):
        return None
    body = payload.get("report")
    exit_code = payload.get("exit")
    if (
        not isinstance(body, dict)
        or not isinstance(exit_code, int)
        or not isinstance(body.get("decls"), list)
    ):
        return None
    report: dict[str, object] = {"file": path}
    report.update(body)
    return CheckOutcome(
        report=report,
        exit=exit_code,
        fingerprint=fingerprint,
        config_digest=digest,
    )


def check_source(
    path: str,
    source: str,
    *,
    engine: str = "flow",
    options: Optional[FlowOptions] = None,
    session: Optional[InferSession] = None,
    deadline: Optional[Deadline] = None,
    budget: Optional[Budget] = None,
    deep: bool = True,
    store: Optional[CacheBackend] = None,
) -> CheckOutcome:
    """Check one module source and package the outcome.

    ``session=None`` checks in a fresh throwaway session (the offline
    path); a provided session is used warm (the daemon path), so an edit
    re-parses and re-checks only the declarations it touched: the source
    is parsed against the module the session last checked.

    A ``source`` holding a lone surrogate, which no UTF-8 file decodes
    to, gets the unreadable outcome (:func:`unchecked_outcome`).

    ``deep=True`` runs parse and inference on a deep-stack thread
    (:func:`repro.util.run_deep`) — required for the right-nested Fig. 9
    corpora.  The daemon's workers are already deep-stack threads and pass
    ``deep=False``.

    :class:`~repro.util.DeadlineExceeded`/:class:`~repro.util.Cancelled`
    propagate to the caller: a timeout is not a verdict about the module
    and must never be folded into the report.

    ``budget`` is the graceful resource governor: exhaustion mid-check
    yields a *partial* report (aborted declarations carry ``RP0998``)
    and, when nothing genuinely failed, exit :data:`EXIT_ABORTED`.

    ``store`` is the persistent result store.  It is consulted at
    *module* granularity before even parsing — a content hit serves the
    stored report with zero solver (or parser) work, the restart-parity
    fast path — and complete, non-aborted reports are written back.
    When a fresh throwaway session is created it also gets the store,
    so partially changed modules reuse per-declaration entries.
    """
    run = run_deep if deep else (lambda fn: fn())
    try:
        fingerprint = fingerprint_source(source)
    except UnicodeEncodeError as error:
        return unchecked_outcome(
            path,
            f"{path}: not valid Unicode text "
            f"(character {error.start}: {error.reason})",
        )
    digest = config_digest(engine, options)
    store_key = ""
    if store is not None:
        store_key = module_key(fingerprint, digest)
        cached = _outcome_from_module_payload(
            path, store.get(store_key), fingerprint, digest
        )
        if cached is not None:
            return cached
    started = time.perf_counter()
    parse_started = time.perf_counter()
    previous = None if session is None else session.module
    try:
        module = run(lambda: parse_module(source, previous=previous))
    except (ParseError, LexError) as error:
        return CheckOutcome(
            report=_failure_report(path, error, getattr(error, "span", None)),
            exit=EXIT_USAGE,
            fingerprint=fingerprint,
            config_digest=digest,
        )
    parse_seconds = time.perf_counter() - parse_started
    if session is None:
        session = InferSession(engine, options, store=store)
    result = run(lambda: session.check(module, deadline, budget))
    report: dict[str, object] = {"file": path}
    report.update(result.as_dict())
    trace = {"parse": parse_seconds, "total": time.perf_counter() - started}
    trace.update(result.trace_spans())
    statuses = {decl.status for decl in result.decls}
    if result.ok:
        exit_code = EXIT_OK
    elif statuses <= {"ok", "aborted", "dependency-error"} and (
        "aborted" in statuses
    ):
        # Only aborts (and their dependency shadows): nothing is known to
        # be ill-typed, the report is merely partial.
        exit_code = EXIT_ABORTED
    else:
        exit_code = EXIT_ILL_TYPED
    if (
        store is not None
        and "aborted" not in statuses
        and exit_code in (EXIT_OK, EXIT_ILL_TYPED)
    ):
        # Complete verdicts only: partial (aborted) reports are not
        # cacheable, and parse failures never reach this point.
        store.put(
            store_key,
            {
                "report": {
                    k: v for k, v in report.items() if k != "file"
                },
                "exit": exit_code,
            },
        )
    return CheckOutcome(
        report=report,
        exit=exit_code,
        trace=trace,
        solver_stats=result.solver_rollup(),
        fingerprint=fingerprint,
        config_digest=digest,
    )
