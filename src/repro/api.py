"""repro.api — the stable library facade for embedding the checker.

Tooling that drives the reproduction programmatically (editors, build
systems, test harnesses) should import from here and nowhere deeper:

    >>> from repro.api import check_source
    >>> report = check_source("bad = #foo {}")
    >>> report.ok
    False
    >>> report.codes()
    ['RP0001']

Everything this module returns is built from the *stable report* — the
same deterministic, timing-free JSON payload that ``rowpoly check
--json`` prints and the ``rowpoly serve`` daemon sends in ``check``
responses.  All three surfaces call
:func:`repro.server.service.check_source` underneath, so a result
observed through the library is byte-for-byte the result the CLI and the
daemon would report for the same source (the parity contract the
integration suite enforces).

Stability promises:

* :class:`CheckReport` fields and :meth:`CheckReport.as_dict` keys only
  grow, never change meaning;
* diagnostic ``code`` values are append-only (see
  :mod:`repro.diag.codes`);
* the JSON shape is published as ``docs/schema/check-report.schema.json``
  and validated in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .boolfn.engine import SolverStats
from .infer.state import FlowOptions
from .server.service import (
    CheckOutcome,
    check_source as _service_check_source,
    diagnostic_codes,
    read_module,
    report_aborted,
    unchecked_outcome,
)
from .util import Budget


@dataclass(frozen=True)
class CheckReport:
    """The outcome of checking one module source.

    ``report`` is the stable JSON payload (deterministic: no timings, no
    cache provenance, no solver-level identifiers); ``trace`` and
    ``solver_stats`` are its non-stable companions and never equal
    between runs.
    """

    #: The path label the check ran under (``<string>`` for raw source).
    path: str
    #: The stable JSON payload, exactly as the CLI/daemon emit it.
    report: dict[str, object]
    #: CLI exit-code convention: 0 well-typed, 1 ill-typed, 2 unusable
    #: input (parse/lex/IO failure), 3 partial (a resource budget ran
    #: out: at least one declaration aborted, none actually failed).
    exit_code: int
    #: Content hash of the source (daemon warm-session key).
    fingerprint: str = ""
    #: Digest of the producing configuration (engine + options) — the
    #: same digest persistent-store keys fold in
    #: (:func:`repro.store.keys.config_digest`), surfaced so consumers
    #: (e.g. audit findings) can record *which* configuration produced
    #: a result.  Not part of the stable ``report`` payload.
    config_digest: str = ""
    #: Per-phase wall times; informational only.
    trace: dict[str, float] = field(default_factory=dict, compare=False)
    #: Solver telemetry of the run; informational only.
    solver_stats: Optional[SolverStats] = field(
        default=None, compare=False
    )

    @property
    def ok(self) -> bool:
        return bool(self.report.get("ok"))

    @property
    def aborted(self) -> bool:
        """Whether the report is partial: some declaration hit a
        resource budget (``RP0998``) and went unverified."""
        return report_aborted(self.report)

    @property
    def decls(self) -> list[dict[str, object]]:
        """Per-declaration payloads (empty for file-level failures)."""
        decls = self.report.get("decls")
        return list(decls) if isinstance(decls, list) else []

    @property
    def diagnostics(self) -> list[dict[str, object]]:
        """Every structured diagnostic in the report, in report order.

        Each entry is the JSON encoding of a
        :class:`repro.diag.Diagnostic` (``code``, ``severity``,
        ``message``, ``label``, ``pos``, ``witness``, ``related``).
        """
        found: list[dict[str, object]] = []
        top = self.report.get("diagnostics")
        if isinstance(top, list):
            found.extend(top)
        for decl in self.decls:
            nested = decl.get("diagnostics")
            if isinstance(nested, list):
                found.extend(nested)
        return found

    def codes(self) -> list[str]:
        """The stable ``RP####`` codes present, in report order."""
        return diagnostic_codes(self.report)

    def as_dict(self) -> dict[str, object]:
        """The stable JSON payload (a copy; mutate freely)."""
        return dict(self.report)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The payload as JSON text, key-sorted like the CLI's output."""
        return json.dumps(self.report, indent=indent, sort_keys=True)

    @classmethod
    def from_outcome(cls, path: str, outcome: CheckOutcome
                     ) -> "CheckReport":
        return cls(
            path=path,
            report=outcome.report,
            exit_code=outcome.exit,
            fingerprint=outcome.fingerprint,
            config_digest=outcome.config_digest,
            trace=outcome.trace,
            solver_stats=outcome.solver_stats,
        )


def check_source(
    source: str,
    path: str = "<string>",
    *,
    engine: str = "flow",
    options: Optional[FlowOptions] = None,
    budget: Optional[Budget] = None,
    store=None,
) -> CheckReport:
    """Check module source text; never raises for ill-typed input.

    Parse, lex and type failures are reported *in* the
    :class:`CheckReport` (with ``RP####`` diagnostics), exactly as the
    CLI and daemon report them.  Text holding a lone surrogate, which
    no UTF-8 file decodes to, is reported unreadable (``exit_code`` 2,
    error class ``IOError``).  A ``budget``
    (:class:`repro.util.Budget`) caps the resources the check may spend;
    exhaustion never raises either — it yields a partial report with
    ``aborted`` declarations (``RP0998``).

    ``store`` (a :class:`repro.store.CacheBackend`, e.g. from
    :func:`repro.store.open_store`) serves and persists results through
    the content-addressed cache hierarchy; cached results are
    byte-identical to fresh ones, and a damaged store degrades to
    misses, never to wrong answers.
    """
    outcome = _service_check_source(
        path, source, engine=engine, options=options, budget=budget,
        store=store,
    )
    return CheckReport.from_outcome(path, outcome)


def check_path(
    path: str,
    *,
    engine: str = "flow",
    options: Optional[FlowOptions] = None,
) -> CheckReport:
    """Check one module file.

    I/O failures are folded into the report (``exit_code`` 2, error
    class ``IOError``) rather than raised, matching ``rowpoly check``.
    """
    try:
        source = read_module(path)
    except OSError as error:
        return CheckReport.from_outcome(path, unchecked_outcome(path, error))
    return check_source(source, path, engine=engine, options=options)


def audit_paths(
    paths: list[str],
    *,
    engine: str = "flow",
    options: Optional[FlowOptions] = None,
    store_dir: Optional[str] = None,
    jobs: int = 1,
    shards: int = 1,
):
    """Audit corpus roots; returns the deterministic findings document.

    The library entry to the ``rowpoly audit`` pipeline
    (:mod:`repro.audit`): Discover the roots into a sharded plan,
    Execute every module through the canonical check routine (with the
    persistent store at ``store_dir``, so warm re-audits are
    near-zero-solve), and Judge the payloads into a findings document —
    deduplicated findings with content-addressed IDs, witness-path
    citations and exact repro commands.  Auditing the same corpus twice
    yields byte-identical JSON.

    Raises :class:`repro.audit.DiscoveryError` for nonexistent roots;
    every other failure mode is data in the document.
    """
    from .audit import run_audit

    return run_audit(
        paths,
        engine=engine,
        options=options,
        store_dir=store_dir,
        jobs=jobs,
        shards=shards,
    ).document


def available_engines() -> list[dict]:
    """The registered engines (name, description, capabilities).

    Derived from :data:`repro.infer.registry.REGISTRY` — the same
    listing ``rowpoly engines --json`` prints, in registration order.
    """
    from .infer.registry import REGISTRY

    return REGISTRY.as_dicts()


def engine_info(name: str) -> dict:
    """Describe one engine; raises
    :class:`repro.infer.registry.UnknownEngineError` for unknown names.
    """
    from .infer.registry import REGISTRY

    return REGISTRY.info(name).as_dict()
