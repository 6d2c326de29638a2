"""Module-level inference sessions with incremental per-declaration re-check.

An :class:`InferSession` owns everything one engine needs to check a
:class:`~repro.lang.module.Module` and to *re*-check edited versions of it
cheaply:

* the engine itself (a ``session``-capable name in
  :data:`repro.infer.registry.REGISTRY`),
  whose shared variable/flag supplies keep separately checked declarations
  disjoint;
* a per-declaration result cache keyed on ``(declaration fingerprint,
  dependency signatures)`` — an edit re-checks only the touched declaration
  and those dependents whose dependency *signatures* actually changed
  (early cutoff: an edit that preserves a signature stops propagating
  immediately).

Cache keys hold no source position, and neither does an ``ok`` report.
A failing report does: its own line and column, and diagnostics that
name where the records of its witness were made, in the declaration and
in the dependencies whose flags it inherited.  So do the flag names of a
flow export.  When a declaration or one of its transitive dependencies
has moved (its :attr:`~repro.lang.module.Decl.layout` changed), the
session re-checks the declaration's failing report and drops its export
(re-inferred from the declaration when a dependent needs it).

A session remembers the module it last checked (:attr:`InferSession.module`),
so the next source can be parsed against it
(:func:`~repro.lang.module.parse_module`'s ``previous``).

A session may also sit on a :class:`~repro.store.backend.CacheBackend`
(the persistent result store): a per-declaration cache miss then consults
the store — keyed on the same ``(fingerprint, dependency signatures)``
content plus the engine/options/schema digest — before solving, and
completed non-aborted reports are written back.  An ``ok`` flow entry
also carries its declaration's export, with every variable and flag
renumbered by rank so that no session-local id crosses the store, and
the layout stamp its flag names were made at.  When a dependent of a
store-served declaration actually needs solving, the missing exports are
*rehydrated*: imported from the entry, with fresh ids drawn in rank
order, and re-inferred (dependency-first) only when the entry has no
export (another engine, an older entry), was made at another layout, or
was dropped by a move.  An imported export must render the stored
signature, and determinism guarantees that a re-inferred one does.

Checking a declaration wraps it as ``let x = e in x`` so recursion works
exactly as in the expression language, binds every dependency to its
exported scheme, and seeds β with the dependencies' signature clauses.
Sect. 5's closure-under-projection argument is what makes the per-
declaration split precision-preserving: projecting a declaration's β onto
the flags of its type loses nothing a dependent could observe, so checking
against signatures agrees with checking the inlined module expression.
The same argument makes a module-level formula redundant: every
declaration is proved satisfiable in the context of its dependencies'
signatures, and signatures share no flags, so their conjunction is
satisfiable whenever every declaration is.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..boolfn.engine import SolverStats
from ..diag import Diagnostic, codes, diagnostics_as_dicts
from ..diag.diagnostic import Pos
from ..lang.module import Decl, Module
from ..store.backend import CacheBackend
from ..store.keys import config_digest, decl_key
from ..testing.faults import fault_point
from ..util import Budget, BudgetExceeded, Deadline
from .engines import DeclCheck
from .registry import REGISTRY
from .errors import InferenceError
from .state import FlowOptions


@dataclass(frozen=True)
class DeclReport:
    """The user-facing outcome for one declaration.

    ``status`` is ``"ok"``, ``"error"`` (the declaration itself failed),
    ``"dependency-error"`` (skipped because a dependency failed) or
    ``"aborted"`` (a resource budget ran out mid-check — the declaration
    is *unverified*, not ill-typed, and carries ``RP0998``).  All fields
    except ``cached``/``seconds``/``trace`` are deterministic for a
    given module and engine, which is what the ``--jobs`` byte-parity and
    the recheck≡fresh metamorphic tests rely on (aborted reports are
    deterministic for a given budget only when the budget is a
    deterministic resource — solver steps or clause count, not wall
    clock).
    """

    name: str
    status: str
    signature: str = ""
    type_text: str = ""
    flow_text: str = ""
    error_class: str = ""
    message: str = ""
    line: int = 0
    column: int = 0
    #: Stable diagnostic code (``RP####``) of the primary diagnostic;
    #: empty for ``"ok"`` declarations.
    code: str = ""
    #: Structured diagnostics attached to the failure, in severity order.
    diagnostics: tuple[Diagnostic, ...] = ()
    cached: bool = False
    seconds: float = 0.0
    trace: dict[str, float] = field(default_factory=dict, compare=False)
    #: Solver telemetry of the run that (last) checked this declaration;
    #: never part of the stable JSON payload.
    solver_stats: Optional[SolverStats] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict[str, object]:
        """Stable JSON payload: no timings, no cache provenance."""
        out: dict[str, object] = {"decl": self.name, "status": self.status}
        if self.ok:
            out["signature"] = self.signature
        else:
            out["error"] = self.error_class
            out["message"] = self.message
            out["line"] = self.line
            out["column"] = self.column
            out["code"] = self.code
            out["diagnostics"] = diagnostics_as_dicts(self.diagnostics)
        return out


def report_payload(report: DeclReport) -> dict[str, object]:
    """The JSON-ready store payload for one declaration report.

    Wider than :meth:`DeclReport.as_dict` (the stable CLI shape): the
    store must restore *every* deterministic field — ``type_text`` and
    ``flow_text`` feed the human-readable CLI renderings — while still
    excluding timings, cache provenance and solver telemetry.
    """
    return {
        "name": report.name,
        "status": report.status,
        "signature": report.signature,
        "type_text": report.type_text,
        "flow_text": report.flow_text,
        "error_class": report.error_class,
        "message": report.message,
        "line": report.line,
        "column": report.column,
        "code": report.code,
        "diagnostics": diagnostics_as_dicts(report.diagnostics),
    }


def report_from_payload(payload: dict) -> Optional[DeclReport]:
    """Exact inverse of :func:`report_payload`; ``None`` if malformed.

    The store layer already rejects torn and bit-flipped entries via its
    envelope hash, so a malformed payload here means a schema mismatch
    that slipped past the version digest — treated, like every other
    store defect, as a miss.
    """
    try:
        return DeclReport(
            name=str(payload["name"]),
            status=str(payload["status"]),
            signature=str(payload["signature"]),
            type_text=str(payload["type_text"]),
            flow_text=str(payload["flow_text"]),
            error_class=str(payload["error_class"]),
            message=str(payload["message"]),
            line=int(payload["line"]),
            column=int(payload["column"]),
            code=str(payload["code"]),
            diagnostics=tuple(
                Diagnostic.from_dict(item)
                for item in payload["diagnostics"]
            ),
            cached=True,
        )
    except (KeyError, TypeError, ValueError):
        return None


@dataclass
class ModuleResult:
    """Outcome of one :meth:`InferSession.check` call."""

    engine: str
    decls: list[DeclReport]
    checked: int
    reused: int
    seconds: float

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.decls)

    def report(self, name: str) -> DeclReport:
        for decl_report in self.decls:
            if decl_report.name == name:
                return decl_report
        raise KeyError(name)

    def signatures(self) -> dict[str, str]:
        return {r.name: r.signature for r in self.decls if r.ok}

    def diagnostics(self) -> list[dict[str, object]]:
        """The failing declarations' stable JSON payloads."""
        return [r.as_dict() for r in self.decls if not r.ok]

    def as_dict(self) -> dict[str, object]:
        """Stable JSON payload for ``rowpoly check --json``."""
        return {
            "engine": self.engine,
            "ok": self.ok,
            "decls": [r.as_dict() for r in self.decls],
        }

    def trace_spans(self) -> dict[str, float]:
        """Aggregated per-phase wall time (``--trace``)."""
        spans: dict[str, float] = {"infer": 0.0}
        for r in self.decls:
            spans["infer"] += r.seconds
            for phase, seconds in r.trace.items():
                spans[phase] = spans.get(phase, 0.0) + seconds
        return spans

    def solver_rollup(self) -> SolverStats:
        """Per-declaration :class:`SolverStats` merged across the module.

        Reused declarations contribute nothing, so the rollup describes
        the solving this check did (``check --solver-stats`` and the
        daemon's metrics subsystem consume this).
        """
        return SolverStats.merged(r.solver_stats for r in self.decls)


@dataclass
class SessionStats:
    """Counters across the lifetime of one session."""

    checks: int = 0
    rechecks: int = 0
    decls_checked: int = 0
    decls_reused: int = 0
    decls_aborted: int = 0
    #: Persistent-store traffic (zero when no store is attached).
    store_hits: int = 0
    store_misses: int = 0
    #: Store-served declarations that regained an engine export ...
    decls_rehydrated: int = 0
    #: ... and those of them that imported it rather than re-inferring.
    decls_imported: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class _CacheEntry:
    key: tuple[str, ...]
    check: Optional[DeclCheck]
    report: DeclReport
    #: The declaration the entry was last valid for (its layout).
    decl: Decl
    #: The store payload an ``ok`` report was served from, until its
    #: export is imported or a move makes it stale.
    stored: Optional[dict] = None
    _reused: Optional[DeclReport] = field(default=None, init=False)

    def reused(self) -> DeclReport:
        """The report as a later check reuses it: cached, no timings and
        no solver telemetry (that check solved nothing for it)."""
        if self._reused is None:
            self._reused = replace(
                self.report, cached=True, seconds=0.0, trace={},
                solver_stats=None,
            )
        return self._reused


class InferSession:
    """One engine + per-declaration cache, reusable across rechecks."""

    def __init__(
        self,
        engine: str = "flow",
        options: Optional[FlowOptions] = None,
        store: Optional[CacheBackend] = None,
    ) -> None:
        self.engine_name = engine
        self.engine = REGISTRY.create_session(engine, options)
        #: The persistent layer below the in-memory per-decl cache
        #: (``None`` = memory only, the pre-store behaviour).
        self.store = store
        self.stats = SessionStats()
        #: The module of the last :meth:`check` (``None`` before one).
        self.module: Optional[Module] = None
        self._cache: dict[str, _CacheEntry] = {}
        self._config_digest = config_digest(engine, options)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def check(
        self,
        module: Module,
        deadline: Optional[Deadline] = None,
        budget: Optional[Budget] = None,
    ) -> ModuleResult:
        """Check every declaration, reusing cached results where valid.

        ``deadline`` is a cooperative per-request budget (the serving
        layer's): when it expires or is cancelled mid-check, the
        corresponding exception propagates *between* cache updates, so the
        session is left consistent — every declaration checked so far
        keeps its valid entry, the interrupted declaration simply has
        none, and the next ``check`` resumes from that point.

        ``budget`` is a resource governor with per-declaration failure
        granularity: when it runs out mid-declaration, that declaration is
        reported ``aborted`` (never cached), its dependents are skipped as
        ``dependency-error``, and the check *completes* with a partial
        report rather than raising.  The session stays healthy: aborted
        declarations simply have no cache entry, so a later check with a
        fresh (or absent) budget re-checks exactly them.
        """
        started = time.perf_counter()
        self.stats.checks += 1
        self.module = module
        for name in set(self._cache) - set(module.names()):
            del self._cache[name]
        dependencies = module.dependencies()
        self._forget_moved(module, dependencies)
        decl_map = {decl.name: decl for decl in module}
        checks: dict[str, DeclCheck] = {}
        reports: list[DeclReport] = []
        by_name: dict[str, DeclReport] = {}
        stamps: dict[str, str] = {}

        def stamp(name: str) -> str:
            return _layout_stamp(name, decl_map, dependencies, stamps)

        checked = reused = aborted = 0
        for decl in module:
            if deadline is not None:
                deadline.check()
            dep_names = dependencies[decl.name]
            key, failed_dep = self._cache_key(
                decl, dep_names, by_name, checks
            )
            entry = self._cache.get(decl.name)
            if entry is not None and entry.key == key:
                report = entry.reused()
                if entry.check is not None:
                    checks[decl.name] = entry.check
                reused += 1
            else:
                self._cache.pop(decl.name, None)
                served = None
                if self.store is not None and failed_dep is None:
                    served = self._store_lookup(decl, key, stamp)
                if served is not None:
                    # A store hit is a reuse: no solving happened, and no
                    # live export exists (dependents rehydrate).
                    report, payload = served
                    self._cache[decl.name] = _CacheEntry(
                        key, None, report, decl,
                        stored=payload if report.ok else None,
                    )
                    reused += 1
                else:
                    check, report = self._check_decl(
                        decl, dep_names, failed_dep, checks,
                        decl_map, dependencies, stamp, deadline, budget
                    )
                    if check is not None:
                        checks[decl.name] = check
                    if report.status == "aborted":
                        # Never cache an aborted report: it is not a
                        # verdict, and a budget-starved entry must not
                        # satisfy (or poison) a later well-funded check.
                        # The same rule keeps it out of the persistent
                        # store.
                        aborted += 1
                    else:
                        self._cache[decl.name] = _CacheEntry(
                            key, check, report, decl
                        )
                        if self.store is not None and failed_dep is None:
                            self._store_persist(key, report, check, stamp)
                    checked += 1
            by_name[decl.name] = report
            reports.append(report)
        self.stats.decls_checked += checked
        self.stats.decls_reused += reused
        self.stats.decls_aborted += aborted
        return ModuleResult(
            engine=self.engine_name,
            decls=reports,
            checked=checked,
            reused=reused,
            seconds=time.perf_counter() - started,
        )

    def recheck(
        self,
        module: Module,
        deadline: Optional[Deadline] = None,
        budget: Optional[Budget] = None,
    ) -> ModuleResult:
        """Re-check an edited module; synonym of :meth:`check` that counts
        separately (the incremental path is the cache, not the method)."""
        self.stats.rechecks += 1
        return self.check(module, deadline, budget)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _forget_moved(
        self, module: Module, dependencies: dict[str, tuple[str, ...]]
    ) -> None:
        """Drop the cached parts that name positions a move made stale.

        A declaration has moved when its layout differs from that of the
        declaration its entry was made for (an unchanged declaration is
        usually the very same object, so no layout is computed), and it
        counts as moved when it has no entry or one of its dependencies
        moved, since a dependency's flag names reach its dependents.  A
        moved declaration loses its failing report (re-checked) or its
        export and stored payload (re-inferred on demand).  Runs before
        any deadline check, so every entry is judged against the same
        module.
        """
        moved: set[str] = set()
        for decl in module:
            entry = self._cache.get(decl.name)
            if (
                entry is not None
                and (entry.decl is decl or entry.decl.layout == decl.layout)
                and moved.isdisjoint(dependencies[decl.name])
            ):
                entry.decl = decl
                continue
            moved.add(decl.name)
            if entry is None:
                continue
            if entry.report.ok:
                entry.check = entry.stored = None
                entry.decl = decl
            else:
                del self._cache[decl.name]

    def _cache_key(
        self,
        decl,
        dep_names: list[str],
        by_name: dict[str, DeclReport],
        checks: dict[str, DeclCheck],
    ) -> tuple[tuple[str, ...], Optional[str]]:
        """(cache key, first failed dependency or None).

        The key folds in each dependency's *signature*, not its
        fingerprint: a dependency edit that leaves the signature unchanged
        does not invalidate dependents (early cutoff).  A failed
        dependency contributes its status so dependents re-run when it is
        fixed.
        """
        parts = [decl.fingerprint]
        failed: Optional[str] = None
        for dep in dep_names:
            dep_report = by_name[dep]
            if dep_report.ok:
                # The report's signature, not the export's: store-served
                # dependencies have a report but (until rehydrated) no
                # DeclCheck, and the two are identical when both exist.
                parts.append(f"{dep}={dep_report.signature}")
            else:
                parts.append(f"{dep}!{dep_report.status}")
                if failed is None:
                    failed = dep
        return tuple(parts), failed

    def _check_decl(
        self,
        decl,
        dep_names: list[str],
        failed_dep: Optional[str],
        checks: dict[str, DeclCheck],
        decl_map: dict,
        dependencies: dict[str, tuple[str, ...]],
        stamp,
        deadline: Optional[Deadline] = None,
        budget: Optional[Budget] = None,
    ) -> tuple[Optional[DeclCheck], DeclReport]:
        if failed_dep is not None:
            message = f"not checked: dependency {failed_dep!r} has errors"
            return None, DeclReport(
                name=decl.name,
                status="dependency-error",
                error_class="DependencyError",
                message=message,
                line=decl.span.line,
                column=decl.span.column,
                code=codes.DEPENDENCY,
                diagnostics=(
                    Diagnostic(
                        code=codes.DEPENDENCY,
                        message=message,
                        pos=Pos.from_span(decl.span),
                        label=failed_dep,
                    ),
                ),
            )
        started = time.perf_counter()
        # The ``rehydrate`` phase: regaining dependencies' exports, which
        # ``seconds`` covers too; present only when one was regained.
        trace: dict[str, float] = {}
        try:
            fault_point("session.check_decl")
            # Inside the try: a budget that runs out while rehydrating a
            # dependency aborts *this* declaration, exactly as if the
            # budget tripped during its own check.
            rehydrated = self.stats.decls_rehydrated
            self._rehydrate(
                dep_names, decl_map, dependencies, checks, stamp,
                deadline, budget,
            )
            if self.stats.decls_rehydrated != rehydrated:
                trace["rehydrate"] = time.perf_counter() - started
            check = self.engine.check_decl(
                decl,
                [(dep, checks[dep]) for dep in dep_names],
                deadline=deadline,
                budget=budget,
            )
        except BudgetExceeded as error:
            message = f"declaration aborted: {error}"
            return None, DeclReport(
                name=decl.name,
                status="aborted",
                error_class="BudgetExceeded",
                message=message,
                line=decl.span.line,
                column=decl.span.column,
                code=codes.RESOURCE_LIMIT,
                diagnostics=(
                    Diagnostic(
                        code=codes.RESOURCE_LIMIT,
                        message=message,
                        pos=Pos.from_span(decl.span),
                        label=error.resource,
                    ),
                ),
                seconds=time.perf_counter() - started,
            )
        except InferenceError as error:
            span = error.span or decl.span
            return None, DeclReport(
                name=decl.name,
                status="error",
                error_class=type(error).__name__,
                message=str(error),
                line=span.line,
                column=span.column,
                code=error.diagnostic.code,
                diagnostics=error.diagnostics,
                seconds=time.perf_counter() - started,
                trace=trace,
                solver_stats=error.solver_stats,
            )
        trace.update(check.trace)
        return check, DeclReport(
            name=decl.name,
            status="ok",
            signature=check.signature,
            type_text=check.type_text,
            flow_text=check.flow_text,
            seconds=time.perf_counter() - started,
            trace=trace,
            solver_stats=check.solver_stats,
        )

    def _rehydrate(
        self,
        names: list[str],
        decl_map: dict,
        dependencies: dict[str, tuple[str, ...]],
        checks: dict[str, DeclCheck],
        stamp,
        deadline: Optional[Deadline],
        budget: Optional[Budget],
    ) -> None:
        """Regain the engine exports of store-served dependencies.

        Each is imported from the store payload that served it, in the
        order of ``names`` (declaration order), so the imported ids keep
        the order a fresh check would have given them.  One that cannot
        be imported (see :meth:`_import`) is re-checked instead,
        dependency-first, so every re-check only ever sees dependencies
        that already have exports.  Inference is deterministic, so the
        recomputed signature equals the stored one and the cache key
        stays valid.
        """
        for name in names:
            if name in checks:
                continue
            entry = self._cache.get(name)
            if entry is None or not entry.report.ok:
                continue
            check = self._import(name, entry, stamp)
            if check is None:
                deps = dependencies[name]
                self._rehydrate(
                    deps, decl_map, dependencies, checks, stamp,
                    deadline, budget,
                )
                check = self.engine.check_decl(
                    decl_map[name],
                    [(dep, checks[dep]) for dep in deps],
                    deadline=deadline,
                    budget=budget,
                )
            checks[name] = entry.check = check
            entry.decl = decl_map[name]
            self.stats.decls_rehydrated += 1

    def _import(
        self, name: str, entry: _CacheEntry, stamp
    ) -> Optional[DeclCheck]:
        """The export stored beside ``entry``'s report, or ``None``.

        ``None`` when the payload carries no export (another engine, an
        older entry), when it was stored at another layout (its flag
        names would cite positions the declarations have left), or when
        it does not decode to the stored signature.  Each payload is
        tried once.
        """
        payload, entry.stored = entry.stored, None
        decode = getattr(self.engine, "decode_export", None)
        if (
            payload is None
            or decode is None
            or "export" not in payload
            or payload.get("layout") != stamp(name)
        ):
            return None
        check = decode(payload["export"])
        if check is None or check.signature != entry.report.signature:
            return None
        self.stats.decls_imported += 1
        return check

    def _store_key(self, key: tuple[str, ...]) -> str:
        return decl_key(key[0], key[1:], self._config_digest)

    def _store_lookup(
        self, decl, key: tuple[str, ...], stamp
    ) -> Optional[tuple[DeclReport, dict]]:
        """A usable report from the persistent store and its payload, or
        ``None``.

        A failing report is usable only at the layout ``stamp(name)`` it
        was stored with; one stored without a layout is a miss.
        """
        payload = self.store.get(self._store_key(key))
        report = None if payload is None else report_from_payload(payload)
        if (
            report is None
            or report.name != decl.name
            or (not report.ok and payload.get("layout") != stamp(decl.name))
        ):
            self.stats.store_misses += 1
            return None
        self.stats.store_hits += 1
        return report, payload

    def _store_persist(
        self,
        key: tuple[str, ...],
        report: DeclReport,
        check: Optional[DeclCheck],
        stamp,
    ) -> None:
        """Write ``report`` back, with its export when the engine can
        encode one; a payload that names positions (a failing report,
        an export's flag names) carries the layout stamp they hold."""
        payload = report_payload(report)
        encode = getattr(self.engine, "encode_export", None)
        export = None if check is None or encode is None else encode(check)
        if export is not None:
            payload["export"] = export
        if export is not None or not report.ok:
            payload["layout"] = stamp(report.name)
        self.store.put(self._store_key(key), payload)


def _layout_stamp(
    name: str,
    decl_map: dict,
    dependencies: dict[str, tuple[str, ...]],
    memo: dict[str, str],
) -> str:
    """Hash of the layouts of ``name`` and of its transitive dependencies:
    the positions a failing report stored beside its key was made at.

    Computed only for failing reports, dependencies first (iteratively:
    a long dependency chain must not exhaust the stack).
    """
    pending = [name]
    while pending:
        top = pending[-1]
        if top in memo:
            pending.pop()
            continue
        missing = [dep for dep in dependencies[top] if dep not in memo]
        if missing:
            pending.extend(missing)
            continue
        pending.pop()
        parts = [decl_map[top].layout]
        parts.extend(memo[dep] for dep in dependencies[top])
        memo[top] = hashlib.sha256(" ".join(parts).encode()).hexdigest()[:16]
    return memo[name]


def check_module(
    module: Module,
    engine: str = "flow",
    options: Optional[FlowOptions] = None,
    store: Optional[CacheBackend] = None,
) -> ModuleResult:
    """One-shot module check (fresh session each call)."""
    return InferSession(engine, options, store=store).check(module)
