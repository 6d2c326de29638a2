"""Small shared utilities (deadlines, budgets, deep-stack execution)."""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Optional, TypeVar

from .budget import Budget, BudgetExceeded, tighten

__all__ = [
    "Budget",
    "BudgetExceeded",
    "Cancelled",
    "Deadline",
    "DeadlineExceeded",
    "run_deep",
    "tighten",
]

T = TypeVar("T")


class DeadlineExceeded(Exception):
    """A request's wall-clock budget ran out mid-inference.

    Deliberately *not* an :class:`repro.infer.errors.InferenceError`: a
    timeout says nothing about the program being ill-typed, so it must
    never be recorded as a type error (or cached as one).
    """


class Cancelled(Exception):
    """A request was cancelled by its client before completion."""


class Deadline:
    """A cooperative wall-clock deadline with client-side cancellation.

    The serving layer creates one per request and threads it into the
    inference engines, which call :meth:`check` at safe points (between
    declarations; periodically inside the flow engine's hot loop).  The
    object is also the cancellation token: :meth:`cancel` can be called
    from any thread and the next :meth:`check` raises :class:`Cancelled`.

    ``Deadline(None)`` never expires (but can still be cancelled), so
    callers can thread one unconditionally.
    """

    __slots__ = ("expires_at", "_cancelled")

    def __init__(self, seconds: Optional[float] = None) -> None:
        self.expires_at = (
            None if seconds is None else time.monotonic() + seconds
        )
        self._cancelled = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (thread-safe, idempotent)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def remaining(self) -> Optional[float]:
        """Seconds left, or ``None`` for an unbounded deadline."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return (
            self.expires_at is not None
            and time.monotonic() >= self.expires_at
        )

    def check(self) -> None:
        """Raise :class:`Cancelled`/:class:`DeadlineExceeded` when due."""
        if self._cancelled.is_set():
            raise Cancelled("request cancelled by client")
        if self.expired():
            raise DeadlineExceeded("request deadline exceeded")


def run_deep(fn: Callable[[], T], stack_mb: int = 512,
             recursion_limit: int = 1_000_000) -> T:
    """Run ``fn`` in a thread with a large stack and recursion limit.

    The inference engines recurse over the AST; the Fig. 9 decoder
    workloads are deeply right-nested let-chains (thousands of bindings),
    which overflows CPython's default stack.  The paper's SML
    implementation has no such limit; this helper removes ours.
    """
    result: list[T] = []
    error: list[BaseException] = []

    def runner() -> None:
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(recursion_limit)
        try:
            result.append(fn())
        except BaseException as exc:  # re-raised in the caller
            error.append(exc)
        finally:
            sys.setrecursionlimit(old_limit)

    old_stack = threading.stack_size()
    threading.stack_size(stack_mb * 1024 * 1024)
    try:
        thread = threading.Thread(target=runner)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old_stack)
    if error:
        raise error[0]
    return result[0]
