"""Abstract syntax tree for BlinkQL queries."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union


class AggregateFunction(enum.Enum):
    """Aggregates supported by the engine (paper Table 2 plus extensions)."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    QUANTILE = "quantile"
    MEDIAN = "median"
    STDDEV = "stddev"
    VARIANCE = "variance"


class ComparisonOp(enum.Enum):
    """Comparison operators allowed in WHERE predicates."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


class LogicalOp(enum.Enum):
    AND = "and"
    OR = "or"


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly table-qualified) reference to a column."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate expression in the SELECT list, e.g. ``AVG(latency)``."""

    function: AggregateFunction
    column: ColumnRef | None = None
    quantile: float | None = None  # only for QUANTILE/PERCENTILE
    alias: str | None = None

    def output_name(self) -> str:
        """Name of the output column for this aggregate."""
        if self.alias:
            return self.alias
        if self.function is AggregateFunction.COUNT and self.column is None:
            return "count_star"
        column_part = self.column.name if self.column else "star"
        if self.function is AggregateFunction.QUANTILE and self.quantile is not None:
            return f"quantile_{column_part}_{self.quantile:g}"
        return f"{self.function.value}_{column_part}"


# -- predicates -----------------------------------------------------------------


@dataclass(frozen=True)
class BinaryPredicate:
    """``column <op> literal``."""

    column: ColumnRef
    op: ComparisonOp
    value: object


@dataclass(frozen=True)
class InPredicate:
    """``column IN (v1, v2, ...)``."""

    column: ColumnRef
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("IN predicate requires at least one value")


@dataclass(frozen=True)
class BetweenPredicate:
    """``column BETWEEN low AND high`` (inclusive on both ends)."""

    column: ColumnRef
    low: object
    high: object


@dataclass(frozen=True)
class NotPredicate:
    """Negation of an inner predicate."""

    inner: "Predicate"


@dataclass(frozen=True)
class CompoundPredicate:
    """A conjunction or disjunction of two or more predicates."""

    op: LogicalOp
    operands: tuple["Predicate", ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("compound predicate requires at least two operands")


Predicate = Union[BinaryPredicate, InPredicate, BetweenPredicate, NotPredicate, CompoundPredicate]


# -- bounds ----------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBound:
    """``ERROR WITHIN e% AT CONFIDENCE c%`` (or an absolute error).

    ``relative`` errors are expressed as fractions (10% -> 0.10); absolute
    errors are in the units of the aggregate.
    """

    error: float
    confidence: float = 0.95
    relative: bool = True

    def __post_init__(self) -> None:
        if self.error <= 0:
            raise ValueError("error bound must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True)
class TimeBound:
    """``WITHIN t SECONDS``."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("time bound must be positive")


@dataclass(frozen=True)
class JoinClause:
    """``JOIN right_table ON left_column = right_column`` (equi-join)."""

    right_table: str
    left_column: ColumnRef
    right_column: ColumnRef


# -- the query -----------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """A parsed BlinkQL aggregation query."""

    table: str
    aggregates: tuple[AggregateCall, ...]
    group_by: tuple[ColumnRef, ...] = ()
    where: Predicate | None = None
    joins: tuple[JoinClause, ...] = ()
    error_bound: ErrorBound | None = None
    time_bound: TimeBound | None = None
    report_error: bool = False  # "RELATIVE ERROR AT c% CONFIDENCE" in the select list
    limit: int | None = None
    raw_sql: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise ValueError("a BlinkQL query requires at least one aggregate")
        if self.error_bound is not None and self.time_bound is not None:
            raise ValueError("a query may specify an error bound or a time bound, not both")

    @property
    def has_bound(self) -> bool:
        return self.error_bound is not None or self.time_bound is not None

    def where_columns(self) -> set[str]:
        """Names of columns referenced anywhere in the WHERE clause."""
        if self.where is None:
            return set()
        return predicate_columns(self.where)

    def group_by_columns(self) -> set[str]:
        return {c.name for c in self.group_by}

    def template_columns(self) -> set[str]:
        """The query-template column set: WHERE ∪ GROUP BY columns (§3.2.1)."""
        return self.where_columns() | self.group_by_columns()


@dataclass(frozen=True)
class ExplainQuery:
    """``EXPLAIN [ANALYZE] SELECT ...``.

    Plain ``EXPLAIN`` renders the physical plan instead of executing;
    ``EXPLAIN ANALYZE`` (``analyze=True``) executes the query with tracing
    forced on and renders the plan's estimates beside the measured actuals.
    """

    query: Query
    analyze: bool = False

    @property
    def raw_sql(self) -> str:
        return self.query.raw_sql


#: A top-level BlinkQL statement: a query, or an EXPLAIN wrapper around one.
Statement = Union[Query, ExplainQuery]


def predicate_columns(predicate: Predicate) -> set[str]:
    """All column names referenced by a predicate tree."""
    if isinstance(predicate, BinaryPredicate):
        return {predicate.column.name}
    if isinstance(predicate, InPredicate):
        return {predicate.column.name}
    if isinstance(predicate, BetweenPredicate):
        return {predicate.column.name}
    if isinstance(predicate, NotPredicate):
        return predicate_columns(predicate.inner)
    if isinstance(predicate, CompoundPredicate):
        columns: set[str] = set()
        for operand in predicate.operands:
            columns |= predicate_columns(operand)
        return columns
    raise TypeError(f"unknown predicate type {type(predicate)!r}")


def to_disjunctive_branches(predicate: Predicate | None) -> list[Predicate | None]:
    """Split a predicate into top-level OR branches (§4.1.2).

    A query whose WHERE clause has disjunctions is rewritten as a union of
    conjunctive-only queries.  This helper returns the list of branch
    predicates; a ``None`` input yields a single ``None`` branch.
    """
    if predicate is None:
        return [None]
    if isinstance(predicate, CompoundPredicate) and predicate.op is LogicalOp.OR:
        branches: list[Predicate | None] = []
        for operand in predicate.operands:
            branches.extend(to_disjunctive_branches(operand))
        return branches
    return [predicate]
