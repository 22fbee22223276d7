"""Exception hierarchy for the BlinkDB reproduction.

Every error raised by the library derives from :class:`BlinkDBError` so that
callers can catch a single base class.  Sub-classes are organised by the
subsystem that raises them (parser, planner, optimizer, runtime, catalog).
"""

from __future__ import annotations


class BlinkDBError(Exception):
    """Base class for every error raised by the library."""


class SchemaError(BlinkDBError):
    """A table, column, or type was used inconsistently with its schema."""


class CatalogError(BlinkDBError):
    """A table or sample was registered twice, or looked up and not found."""


class ParseError(BlinkDBError):
    """The BlinkQL text could not be tokenised or parsed.

    Attributes
    ----------
    position:
        Character offset in the query string where the error was detected,
        or ``None`` when the offset is unknown.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class PlanningError(BlinkDBError):
    """A parsed query could not be converted into an executable plan."""


class ExecutionError(BlinkDBError):
    """A physical operator failed while executing a plan."""


class SampleNotFoundError(BlinkDBError):
    """No sample (family or resolution) could serve the query."""


class OptimizationError(BlinkDBError):
    """The MILP sample-selection problem could not be solved."""


class QueryRejectedError(BlinkDBError):
    """The service's admission controller refused to run a query.

    Raised synchronously (through the query's ticket) when the scheduler
    sheds work — because the predicted completion time misses the query's
    deadline given the current backlog, or because the queue is full.

    Attributes
    ----------
    reason:
        Machine-readable shed reason (e.g. ``"shed-deadline"``,
        ``"shed-queue-full"``, ``"shed-quota"``, ``"cancelled"``).
    retry_after_seconds:
        When set (quota rejections), how long the client should wait before
        re-submitting; carried over the wire as HTTP ``Retry-After``.
    """

    def __init__(
        self,
        message: str,
        reason: str = "rejected",
        retry_after_seconds: float | None = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds


class ConstraintUnsatisfiableError(BlinkDBError):
    """A query's error or response-time constraint cannot be met.

    Raised by the runtime when even the largest available sample cannot
    satisfy the requested error bound, or when even the smallest sample is
    predicted to exceed the requested time bound.  The runtime normally
    degrades gracefully (returns the best achievable answer and flags the
    violation); this exception is reserved for strict mode.
    """
