"""The engine registry: one source of truth for inference engine names.

:data:`REGISTRY` is the only place engines are listed: every engine
registers once with its name, a one-line description, its capability
flags and its entry points, and the CLI (``--engine`` choices, ``rowpoly
engines``), the daemon, the public API facade and the docs table all
derive from it.

Capabilities
------------

``session``
    The engine conforms to the :class:`~repro.infer.engines.SessionEngine`
    protocol and can drive ``rowpoly check``/``serve``/``audit``.
``expression``
    The engine exposes a whole-expression entry point for
    ``rowpoly infer``.
``set_theoretic``
    Types may contain unions introduced at joins (the ``setrows``
    engine).
``unsat_cores``
    Rejections carry minimal unsatisfiable cores (the flow engine's SAT
    backend).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .engines import (
    FlowSessionEngine,
    PlainSessionEngine,
    PottierSessionEngine,
    SessionEngine,
)
from .flow import FlowInference
from .hm import infer_damas_milner, infer_mycroft
from .remy import infer_remy
from .setrows.engine import SetRowsSessionEngine, infer_setrows
from .state import FlowOptions

#: Capability flag names (see the module docstring).
CAP_SESSION = "session"
CAP_EXPRESSION = "expression"
CAP_SET_THEORETIC = "set_theoretic"
CAP_UNSAT_CORES = "unsat_cores"

CAPABILITIES = (
    CAP_SESSION,
    CAP_EXPRESSION,
    CAP_SET_THEORETIC,
    CAP_UNSAT_CORES,
)


def unknown_engine_message(name: str, known: tuple[str, ...]) -> str:
    """The uniform unknown-engine message (CLI, daemon and API alike)."""
    return f"unknown engine {name!r} (expected one of {', '.join(known)})"


class UnknownEngineError(ValueError):
    """A name that is not registered (or lacks the needed capability)."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(unknown_engine_message(name, known))


@dataclass(frozen=True)
class EngineInfo:
    """One registered engine: identity, capabilities, entry points."""

    name: str
    description: str
    capabilities: frozenset[str]
    #: ``(options) -> SessionEngine``; None when not a session engine.
    make_session: Optional[
        Callable[[Optional[FlowOptions]], SessionEngine]] = None
    #: ``(expr) -> result``; None when not an expression engine.
    run_expression: Optional[Callable[..., Any]] = None

    def __post_init__(self) -> None:
        unknown = self.capabilities - set(CAPABILITIES)
        if unknown:
            raise ValueError(
                f"engine {self.name!r} declares unknown capabilities: "
                f"{sorted(unknown)}"
            )
        if (CAP_SESSION in self.capabilities) != (
                self.make_session is not None):
            raise ValueError(
                f"engine {self.name!r}: the {CAP_SESSION!r} capability and "
                f"make_session must be declared together"
            )
        if (CAP_EXPRESSION in self.capabilities) != (
                self.run_expression is not None):
            raise ValueError(
                f"engine {self.name!r}: the {CAP_EXPRESSION!r} capability "
                f"and run_expression must be declared together"
            )

    def has(self, capability: str) -> bool:
        return capability in self.capabilities

    def as_dict(self) -> dict:
        """JSON-stable description (``rowpoly engines --json``)."""
        return {
            "name": self.name,
            "description": self.description,
            "capabilities": sorted(self.capabilities),
        }


class EngineRegistry:
    """Ordered name → :class:`EngineInfo` registry."""

    def __init__(self) -> None:
        self._infos: dict[str, EngineInfo] = {}

    # -- registration ----------------------------------------------------
    def register(self, info: EngineInfo) -> EngineInfo:
        if info.name in self._infos:
            raise ValueError(f"engine {info.name!r} is already registered")
        self._infos[info.name] = info
        return info

    # -- queries ---------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        return tuple(self._infos)

    def with_capability(self, capability: str) -> tuple[str, ...]:
        return tuple(
            name for name, info in self._infos.items()
            if info.has(capability)
        )

    def session_names(self) -> tuple[str, ...]:
        return self.with_capability(CAP_SESSION)

    def expression_names(self) -> tuple[str, ...]:
        return self.with_capability(CAP_EXPRESSION)

    def info(self, name: str) -> EngineInfo:
        info = self._infos.get(name)
        if info is None:
            raise UnknownEngineError(name, self.names())
        return info

    def as_dicts(self) -> list[dict]:
        return [info.as_dict() for info in self._infos.values()]

    # -- entry points ----------------------------------------------------
    def create_session(self, name: str,
                       options: Optional[FlowOptions] = None
                       ) -> SessionEngine:
        info = self._infos.get(name)
        if info is None or info.make_session is None:
            raise UnknownEngineError(name, self.session_names())
        return info.make_session(options)

    def expression_runner(self, name: str) -> Callable[..., Any]:
        info = self._infos.get(name)
        if info is None or info.run_expression is None:
            raise UnknownEngineError(name, self.expression_names())
        return info.run_expression

    # -- docs ------------------------------------------------------------
    def markdown_table(self) -> str:
        """The README engine table, generated so it cannot drift."""
        lines = [
            "| engine | capabilities | description |",
            "| --- | --- | --- |",
        ]
        for info in self._infos.values():
            caps = ", ".join(sorted(info.capabilities))
            lines.append(
                f"| `{info.name}` | {caps} | {info.description} |"
            )
        return "\n".join(lines)


def _run_flow(expr, options: Optional[FlowOptions] = None):
    return FlowInference(options).infer_program(expr)


#: The process-wide registry every engine-name lookup goes through.
REGISTRY = EngineRegistry()

REGISTRY.register(EngineInfo(
    name="flow",
    description=(
        "The paper's flag-calculus flow inference (Fig. 3): presence "
        "flags related by a global flow formula, with unsat cores on "
        "rejection."
    ),
    capabilities=frozenset(
        {CAP_SESSION, CAP_EXPRESSION, CAP_UNSAT_CORES}),
    make_session=lambda options=None: FlowSessionEngine(options),
    run_expression=_run_flow,
))
REGISTRY.register(EngineInfo(
    name="mycroft",
    description=(
        "Milner-Mycroft term inference (Fig. 2): polymorphic recursion "
        "via fixpoint iteration, no presence reasoning."
    ),
    capabilities=frozenset({CAP_SESSION, CAP_EXPRESSION}),
    make_session=lambda options=None: PlainSessionEngine(
        polymorphic_recursion=True, name="mycroft"),
    run_expression=infer_mycroft,
))
REGISTRY.register(EngineInfo(
    name="damas-milner",
    description=(
        "Classical Damas-Milner baseline: monomorphic recursion, "
        "rejects the polymorphic-recursion programs Mycroft accepts."
    ),
    capabilities=frozenset({CAP_SESSION, CAP_EXPRESSION}),
    make_session=lambda options=None: PlainSessionEngine(
        polymorphic_recursion=False, name="damas-milner"),
    run_expression=infer_damas_milner,
))
REGISTRY.register(EngineInfo(
    name="pottier",
    description=(
        "Pottier-style field-state lattice checking with the simplified "
        "D'r concatenation rule (Sect. 1.1)."
    ),
    capabilities=frozenset({CAP_SESSION}),
    make_session=lambda options=None: PottierSessionEngine(),
))
REGISTRY.register(EngineInfo(
    name="remy",
    description=(
        "Remy-style records: Pre/Abs flags unified into the types, the "
        "symmetric baseline the introduction contrasts with."
    ),
    capabilities=frozenset({CAP_EXPRESSION}),
    run_expression=infer_remy,
))
REGISTRY.register(EngineInfo(
    name="setrows",
    description=(
        "Set-theoretic rows: union types at joins and directional "
        "presence constraints, accepts dynamic-record programs the "
        "flag calculus cannot type."
    ),
    capabilities=frozenset(
        {CAP_SESSION, CAP_EXPRESSION, CAP_SET_THEORETIC}),
    make_session=lambda options=None: SetRowsSessionEngine(options),
    run_expression=infer_setrows,
))
