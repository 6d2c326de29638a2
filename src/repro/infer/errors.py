"""Typed errors raised by the inference engines.

A program is ill-typed when (a) unification of the type terms fails, or
(b) the Boolean flow formula becomes unsatisfiable (Sect. 1).  The two
failure modes get distinct exception classes so that tests and diagnostics
can tell a constructor clash from a missing-field rejection.

Every :class:`InferenceError` carries at least one structured
:class:`~repro.diag.Diagnostic` (stable ``RP####`` code, source position,
witness path where one was recovered).  Raise sites that ran the unsat-core
diagnosis pass their diagnostics in; for everything else the constructor
synthesises one from the class's default code, the message and the span, so
``error.diagnostic`` is never ``None``.  ``str(error)`` remains exactly the
message the raise site supplied — existing tests and tooling that match on
it are unaffected.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..diag import Diagnostic, codes
from ..diag.diagnostic import Pos
from ..lang.ast import Expr, Span


class InferenceError(Exception):
    """Base class for type errors found by an inference engine."""

    #: Code used when the raise site supplies no diagnostics.
    default_code = codes.FLOW_UNSAT_FALLBACK

    def __init__(self, message: str, span: Optional[Span] = None,
                 expr: Optional[Expr] = None,
                 diagnostics: Iterable[Diagnostic] = ()) -> None:
        super().__init__(message)
        self.span = span
        self.expr = expr
        #: Solver telemetry (a ``SolverStats``) of the run that raised,
        #: attached by the flow engine; never part of the stable report.
        self.solver_stats = None
        self.diagnostics: tuple[Diagnostic, ...] = tuple(diagnostics)
        if not self.diagnostics:
            self.diagnostics = (
                Diagnostic(
                    code=self.default_code,
                    message=message,
                    pos=Pos.from_span(span),
                ),
            )

    @property
    def diagnostic(self) -> Diagnostic:
        """The primary diagnostic (always present)."""
        return self.diagnostics[0]


class UnificationFailure(InferenceError):
    """The type terms do not unify (constructor clash or occurs check)."""

    default_code = codes.UNIFICATION


class FlowUnsatisfiable(InferenceError):
    """The flow formula β is unsatisfiable: some field access can fail.

    ``label`` names the offending field when diagnostics could recover it.
    """

    default_code = codes.FLOW_UNSAT_FALLBACK

    def __init__(self, message: str, span: Optional[Span] = None,
                 expr: Optional[Expr] = None,
                 label: Optional[str] = None,
                 explanation: Optional[str] = None,
                 diagnostics: Iterable[Diagnostic] = ()) -> None:
        super().__init__(message, span, expr, diagnostics)
        self.label = label
        self.explanation = explanation


class FixpointDivergence(InferenceError):
    """The (LETREC) fixpoint did not stabilise (e.g. ``f x = f 1 x``)."""

    default_code = codes.FIXPOINT_DIVERGENCE


class UnboundVariable(InferenceError):
    """A variable is neither bound nor a known builtin."""

    default_code = codes.UNBOUND_VARIABLE
