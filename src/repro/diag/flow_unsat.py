"""Map minimal unsat cores of the flow formula β to :class:`Diagnostic`\\ s.

Observation 1 of the paper promises that every flow rejection corresponds
to a concrete path from an empty-record creation to a failing field
access.  :func:`diagnose_unsat` makes that operational:

1. ask the attached :class:`~repro.boolfn.engine.SatEngine` for a
   *minimal* unsat core of β (every clause in it is necessary),
2. find the asserted ``select:FOO@pos`` unit and the refuted
   ``empty-record@pos`` unit inside the core,
3. recover the implication chain between them over the core's binary
   clauses and render it as a witness path, naming the ``via:x@pos``
   hops the (VAR) rule left behind.

Cores from the Horn/dual-Horn/CDCL fragments may connect the endpoints
through wider clauses; the witness then degrades gracefully to its two
endpoints.  When no structured witness survives (provenance lost to
projection, or β was marked unsat outside the clause log) the caller
still gets a diagnostic — the ``RP0999`` fallback naming the asserted
field selections — so *every* unsat rejection carries at least one code
and source anchor.

This module depends only on :mod:`repro.boolfn` and the flag-name
conventions of :mod:`repro.infer.flow`; it takes the inference state
duck-typed (``.beta``, ``.flags``, ``.sat_engine()``) to keep the
layering acyclic.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..boolfn.cnf import Clause
from . import codes
from .diagnostic import Diagnostic, Pos, WitnessStep

_SELECT_PREFIX = "select:"
_EMPTY_PREFIX = "empty-record@"
_VIA_PREFIX = "via:"


def parse_flag_name(
    name: str,
) -> Optional[tuple[str, Optional[str], Optional[Pos]]]:
    """Split a provenance debug name into ``(kind, label, pos)``.

    Recognised shapes (all produced by :mod:`repro.infer.flow`):
    ``select:LABEL@line:col``, ``empty-record@line:col`` and
    ``via:NAME@line:col``.  Returns ``None`` for anything else
    (including the ``f<id>`` fallback names of anonymous flags).
    """
    if name.startswith(_SELECT_PREFIX):
        rest = name[len(_SELECT_PREFIX):]
        label, sep, pos_text = rest.partition("@")
        return ("select", label, Pos.parse(pos_text) if sep else None)
    if name.startswith(_EMPTY_PREFIX):
        return ("empty", None, Pos.parse(name[len(_EMPTY_PREFIX):]))
    if name.startswith(_VIA_PREFIX):
        rest = name[len(_VIA_PREFIX):]
        label, sep, pos_text = rest.partition("@")
        return ("via", label, Pos.parse(pos_text) if sep else None)
    return None


def _step_for(kind: str, label: Optional[str], pos: Optional[Pos]) -> WitnessStep:
    at = f" at {pos}" if pos is not None else ""
    if kind == "empty":
        return WitnessStep("empty", f"record created empty{at}", pos)
    if kind == "via":
        return WitnessStep("via", f"flows through `{label}`{at}", pos)
    if kind == "select":
        return WitnessStep("select", f"field `{label}` selected{at}", pos)
    return WitnessStep("note", f"constrained by {label}{at}", pos)


def _implication_edges(core: list[Clause]) -> dict[int, list[int]]:
    """The implication graph of the core's unit and binary clauses."""
    graph: dict[int, list[int]] = {}

    def add(src: int, dst: int) -> None:
        graph.setdefault(src, []).append(dst)

    for clause in core:
        if len(clause) == 1:
            (a,) = clause
            add(-a, a)
        elif len(clause) == 2:
            a, b = clause
            add(-a, b)
            add(-b, a)
    return graph


def _bfs(graph: dict[int, list[int]], source: int, target: int
         ) -> Optional[list[int]]:
    if source == target:
        return [source]
    parents: dict[int, int] = {source: source}
    queue = deque((source,))
    while queue:
        node = queue.popleft()
        for succ in graph.get(node, ()):
            if succ in parents:
                continue
            parents[succ] = node
            if succ == target:
                path = [succ]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            queue.append(succ)
    return None


def _witness_from_path(
    path: list[int], name_of
) -> tuple[WitnessStep, ...]:
    """Render an implication path origin-first, deduplicating hops.

    The path runs *select -> ... -> empty* (the direction the forced
    selection propagates); the user reads the record's life story, so
    the rendering reverses it: created empty, flowed through copies,
    selected at the end.
    """
    steps: list[WitnessStep] = []
    descriptions: set[str] = set()
    for literal in reversed(path):
        parsed = parse_flag_name(name_of(abs(literal)))
        if parsed is None:
            continue
        step = _step_for(*parsed)
        if step.description in descriptions:
            continue
        descriptions.add(step.description)
        steps.append(step)
    # Canonical reading order — creation, flow, selection — regardless of
    # where copies of the endpoint flags sit on the implication path
    # ((VAR) copies inherit the endpoint names, so a path may visit a
    # select-named flag before its last via hop).
    rank = {"empty": 0, "via": 1, "note": 1, "select": 2}
    steps.sort(key=lambda step: rank.get(step.kind, 1))
    return tuple(steps)


def diagnose_core(
    core: list[Clause], name_of
) -> Optional[Diagnostic]:
    """One diagnostic from a minimal core, or ``None`` if it has no
    recognisable field-selection provenance.

    ``name_of`` maps a flag id to its debug name
    (:meth:`repro.boolfn.flags.FlagSupply.name_of`).
    """
    selects: list[tuple[int, str, Optional[Pos]]] = []
    empties: list[tuple[int, Optional[Pos]]] = []
    for clause in core:
        if len(clause) != 1:
            continue
        (literal,) = clause
        parsed = parse_flag_name(name_of(abs(literal)))
        if parsed is None:
            continue
        kind, label, pos = parsed
        if kind == "select" and literal > 0:
            assert label is not None
            selects.append((literal, label, pos))
        elif kind == "empty" and literal < 0:
            empties.append((-literal, pos))
    if not selects:
        return None
    # Deterministic choice: the first selection in source order (minimal
    # cores rarely contain more than one).
    selects.sort(key=lambda s: (s[2] or Pos(0, 0)).as_tuple())
    empties.sort(key=lambda e: (e[1] or Pos(0, 0)).as_tuple())
    select_flag, label, select_pos = selects[0]
    graph = _implication_edges(core)
    witness: tuple[WitnessStep, ...] = ()
    empty_pos: Optional[Pos] = None
    for empty_flag, pos in empties:
        path = _bfs(graph, select_flag, empty_flag)
        if path is not None:
            witness = _witness_from_path(path, name_of)
            empty_pos = pos
            break
    if not witness and empties:
        # Wider (non-binary) clauses connect the endpoints; show them
        # without the intermediate hops.
        empty_flag, empty_pos = empties[0]
        witness = (
            _step_for("empty", None, empty_pos),
            _step_for("select", label, select_pos),
        )
    message = f"field {label!r} is selected but may be absent"
    related: list[tuple[str, Pos]] = []
    if empty_pos is not None:
        message += f" (the record originates from {{}} at {empty_pos})"
        related.append(("record created empty here", empty_pos))
    return Diagnostic(
        code=codes.MISSING_FIELD,
        message=message,
        pos=select_pos,
        label=label,
        witness=witness,
        related=tuple(related),
    )


def fallback_diagnostic(state) -> Diagnostic:
    """The ``RP0999`` diagnostic: unsat without a structured witness.

    Lists the asserted field selections still mentioned by β (or, when
    projection already dropped them, any selection the flag supply
    names: in a session, the check's own and those its dependencies'
    exports carry) so the user gets at least one source anchor.
    """
    name_of = state.flags.name_of
    in_beta = state.beta.variables()
    candidates: list[tuple[Pos, str]] = []
    anywhere: list[tuple[Pos, str]] = []
    for flag, name in sorted(state.flags.named_flags().items()):
        parsed = parse_flag_name(name)
        if parsed is None or parsed[0] != "select":
            continue
        _, label, pos = parsed
        entry = (pos or Pos(0, 0), label or "?")
        anywhere.append(entry)
        if flag in in_beta:
            candidates.append(entry)
    picks = candidates or anywhere
    picks.sort(key=lambda item: item[0].as_tuple())
    message = "a record field may be accessed without having been set"
    pos: Optional[Pos] = None
    if picks:
        rendered = ", ".join(
            f"{label!r} at {where}" for where, label in picks[:3]
        )
        message += f" (asserted selections: {rendered})"
        pos = picks[0][0]
    return Diagnostic(
        code=codes.FLOW_UNSAT_FALLBACK,
        message=message,
        pos=pos,
    )


def diagnose_unsat(state) -> list[Diagnostic]:
    """All diagnostics for an unsatisfiable flow state (never empty).

    ``state`` is duck-typed (:class:`repro.infer.state.FlowState`): it
    must expose ``beta``, ``flags`` and ``sat_engine()``.  Returns ``[]``
    only if β turns out satisfiable after all.

    Cores are preferentially extracted from the state's clause
    *provenance log* (``state.provenance_log``): variable elimination
    rewrites β destructively, and the pre-elimination clauses are what
    the witness path is made of.  The log is equisatisfiable with β, so
    falling back to the live engine (log capped or absent) changes only
    witness quality, never the verdict.
    """
    log = getattr(state, "provenance_log", None)
    if log:
        from ..boolfn.cnf import Cnf
        from ..boolfn.engine import SatEngine

        probe = SatEngine(Cnf(log))
        core = probe.unsat_core()
        # Core-extraction work done on the probe counts toward the run's
        # telemetry (the probe itself is discarded).
        state.sat_engine().stats().merge(probe.stats())
        if core:
            diagnostic = diagnose_core(core, state.flags.name_of)
            if diagnostic is not None:
                return [diagnostic]
        if core is not None:
            return [fallback_diagnostic(state)]
        # The log says satisfiable (it can miss clauses seeded directly
        # into β by a session); fall through to the live formula.
    engine = state.sat_engine()
    core = engine.unsat_core()
    if core is None:
        if state.beta.known_unsat:
            return [fallback_diagnostic(state)]
        return []
    if core:
        diagnostic = diagnose_core(core, state.flags.name_of)
        if diagnostic is not None:
            return [diagnostic]
    return [fallback_diagnostic(state)]
