"""Inference engines: the paper's flow inference and its baselines."""

from .env import Mono, Poly, TypeEnv
from .errors import (
    FixpointDivergence,
    FlowUnsatisfiable,
    InferenceError,
    UnboundVariable,
    UnificationFailure,
)
from .conditional import CondConstraint, solve_with_unification_theory
from .flow import FlowInference, FlowResult
from .hm import (
    PlainInference,
    PlainResult,
    infer_damas_milner,
    infer_mycroft,
)
from .pottier import PottierChecker, PottierError, check_pottier
from .remy import RemyInference, infer_remy
from .engines import DeclCheck, SessionEngine
from .registry import (
    CAPABILITIES,
    EngineInfo,
    EngineRegistry,
    REGISTRY,
    UnknownEngineError,
    unknown_engine_message,
)
from .setrows import (
    SetRowsResult,
    SetRowsSessionEngine,
    infer_setrows,
    normalize_signature,
)
from .session import (
    DeclReport,
    InferSession,
    ModuleResult,
    SessionStats,
    check_module,
)
from .state import FlowOptions, FlowState, FlowStats


def infer_flow(expr, options=None, builtins=None) -> FlowResult:
    """Run the paper's flow inference (Fig. 3) on a closed program.

    Raises :class:`InferenceError` subclasses on ill-typed programs.
    """
    return FlowInference(options, builtins).infer_program(expr)


__all__ = [
    "CAPABILITIES",
    "CondConstraint",
    "DeclCheck",
    "EngineInfo",
    "EngineRegistry",
    "REGISTRY",
    "UnknownEngineError",
    "DeclReport",
    "FixpointDivergence",
    "FlowInference",
    "FlowOptions",
    "FlowResult",
    "FlowState",
    "FlowStats",
    "FlowUnsatisfiable",
    "InferSession",
    "InferenceError",
    "ModuleResult",
    "Mono",
    "PlainInference",
    "PlainResult",
    "PottierChecker",
    "PottierError",
    "RemyInference",
    "Poly",
    "SessionEngine",
    "SessionStats",
    "SetRowsResult",
    "SetRowsSessionEngine",
    "TypeEnv",
    "UnboundVariable",
    "UnificationFailure",
    "check_module",
    "check_pottier",
    "infer_damas_milner",
    "infer_flow",
    "infer_mycroft",
    "infer_remy",
    "infer_setrows",
    "normalize_signature",
    "solve_with_unification_theory",
    "unknown_engine_message",
]
