"""Judge: aggregate check payloads into the findings document.

The last stage of the pipeline consumes ``(unit, payload)`` pairs — the
Discover plan zipped with the Execute payloads, in plan order — and
produces the deterministic findings document
(:func:`repro.audit.findings.findings_document`).  It always runs
locally in the audit driver, from the stable reports and the
fingerprints that travel beside them (below), so offline,
``--jobs`` and ``--server`` executions judge identically: the document
inherits the reports' byte-parity contract.

Identity needs declaration *content* fingerprints
(:attr:`repro.lang.module.Decl.fingerprint`), which stable reports
deliberately omit.  The check that made a report took them from the
module it parsed, and they ride beside the report in its payload
(``fingerprints``, one per declaration that is not ``ok``), through the
module-level store entry and the daemon's response alike; the judge
parses nothing.  A failing declaration whose payload carries no
fingerprint is ``unjudged``, never identified by the module's.
File-level findings (parse and lex failures have no declaration) use
the module source's content fingerprint.

Aborted declarations become ``aborted`` citations, not findings, and
unreadable files become ``unreadable`` entries — both carried on the
document so a triage surface can tell "clean" from "partially audited".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..server.service import EXIT_USAGE
from .discover import AuditPlan
from .findings import (
    Finding,
    Occurrence,
    finding_from_diagnostic,
    findings_document,
)


@dataclass
class JudgeResult:
    """The findings document plus the tallies the metrics surface wants."""

    document: dict[str, object]
    findings: list[Finding]
    modules: int
    modules_ok: int
    modules_with_findings: int
    modules_aborted: int
    #: Worst per-module exit, folded with ``EXIT_USAGE`` for unreadable
    #: roots — the ``audit run`` process exit.
    exit: int


def judge(
    plan: AuditPlan,
    payloads: list[dict[str, object]],
    *,
    engine: str,
    config_digest: str,
) -> JudgeResult:
    """Fold plan + payloads into the deterministic findings document."""
    merged: dict[str, Finding] = {}
    aborted: list[Occurrence] = []
    unjudged: list[tuple[str, str]] = []
    modules_ok = 0
    modules_with_findings = 0
    modules_aborted = 0
    worst_exit = EXIT_USAGE if plan.unreadable else 0
    for unit, payload in zip(plan.units, payloads):
        report = payload["report"]
        exit_code = int(payload["exit"])
        worst_exit = max(worst_exit, exit_code)
        found_here = False
        aborted_here = False
        if report.get("code"):
            # File-level failure (parse/lex): no declarations, identity
            # falls back to the module source fingerprint.
            for diagnostic in report.get("diagnostics") or ():
                found_here = True
                _merge(
                    merged,
                    finding_from_diagnostic(
                        diagnostic,
                        decl="",
                        decl_fingerprint=unit.fingerprint,
                        occurrence=Occurrence(
                            file=unit.path,
                            decl="",
                            line=int(report.get("line") or 0),
                            column=int(report.get("column") or 0),
                        ),
                    ),
                )
        elif not report.get("ok") and not report.get("decls"):
            # No verdict at all — e.g. a batch slot whose server
            # connection died.  Unjudged is unreadable-shaped data, not
            # an "ok" module and never a silent drop.
            unjudged.append(
                (unit.path, str(report.get("message") or "no report"))
            )
            worst_exit = max(worst_exit, EXIT_USAGE)
            continue
        else:
            decls = report.get("decls") or ()
            fingerprints = payload.get("fingerprints") or {}
            unidentified = [
                str(decl.get("decl"))
                for decl in decls
                if decl.get("status") not in ("ok", "aborted")
                and decl.get("decl") not in fingerprints
            ]
            if unidentified:
                # A verdict whose identity is lost (a payload without
                # fingerprints): minting ids from the module's source
                # would give findings no other execution path gives.
                unjudged.append((
                    unit.path,
                    "no fingerprint for declaration "
                    + ", ".join(map(repr, unidentified)),
                ))
                worst_exit = max(worst_exit, EXIT_USAGE)
                continue
            for decl in decls:
                status = decl.get("status")
                if status == "ok":
                    continue
                name = str(decl.get("decl") or "")
                occurrence = Occurrence(
                    file=unit.path,
                    decl=name,
                    line=int(decl.get("line") or 0),
                    column=int(decl.get("column") or 0),
                )
                if status == "aborted":
                    aborted_here = True
                    aborted.append(occurrence)
                    continue
                for diagnostic in decl.get("diagnostics") or ():
                    found_here = True
                    _merge(
                        merged,
                        finding_from_diagnostic(
                            diagnostic,
                            decl=name,
                            decl_fingerprint=fingerprints[name],
                            occurrence=occurrence,
                        ),
                    )
        if found_here:
            modules_with_findings += 1
        elif aborted_here:
            modules_aborted += 1
        else:
            modules_ok += 1
    findings = list(merged.values())
    document = findings_document(
        engine=engine,
        config_digest=config_digest,
        modules=len(plan.units),
        modules_with_findings=modules_with_findings,
        findings=findings,
        aborted=aborted,
        unreadable=list(plan.unreadable) + unjudged,
    )
    return JudgeResult(
        document=document,
        findings=findings,
        modules=len(plan.units),
        modules_ok=modules_ok,
        modules_with_findings=modules_with_findings,
        modules_aborted=modules_aborted,
        exit=worst_exit,
    )


def _merge(merged: dict[str, Finding], finding: Finding) -> None:
    """Fold one minted finding into the by-identity map."""
    existing = merged.get(finding.id)
    if existing is None:
        merged[finding.id] = finding
    else:
        existing.occurrences.extend(finding.occurrences)
