"""The logical query plan: a normalized, canonical form of a parsed query.

Before this layer existed, three places in the repo each kept their own
notion of "what a query means": the runtime rewrote disjunctive predicates
and derived φ column sets, the service cache re-derived a private predicate
canonicalization for its keys, and the template extractor kept a third
notion of query shape.  :class:`LogicalPlan` unifies them — it is the single
normalized representation every downstream consumer (planner, executor,
partition pipeline, baselines, cache) works from:

* the WHERE clause is put into **canonical form** (flattened AND/OR,
  operands deduplicated and sorted, double negations removed, sorted IN
  lists, single-element IN folded to equality), so two predicates that are
  commutative/associative rewrites of each other compare equal;
* **GROUP BY is canonicalized to sorted column order** — grouping is a set
  operation, so ``GROUP BY a, b`` and ``GROUP BY b, a`` are the same plan
  (and share one cache entry, one probe, and one answer);
* top-level **OR branches are hoisted into disjoint conjunctive branches**
  (§4.1.2) once, here, instead of inside family selection;
* the **referenced-column set** is computed for column pruning: only the
  columns a query actually touches need to be materialized by the executor;
* a stable :meth:`LogicalPlan.fingerprint` identifies the plan — the
  service result cache keys on it, and probe memoization keys on the
  bound-independent :meth:`LogicalPlan.probe_fingerprint`.

The plan is a frozen dataclass: building one never mutates the AST, and a
plan can be shared freely across threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Union

from repro.sql.ast import (
    AggregateCall,
    BetweenPredicate,
    BinaryPredicate,
    ComparisonOp,
    CompoundPredicate,
    ErrorBound,
    InPredicate,
    JoinClause,
    LogicalOp,
    NotPredicate,
    Predicate,
    Query,
    TimeBound,
    predicate_columns,
    to_disjunctive_branches,
)


# -- canonical predicate form -----------------------------------------------------


def _literal_key(value: object) -> str:
    """Canonical, type-tagged rendering of one predicate constant."""
    return f"{type(value).__name__}:{value!r}"


def predicate_key(predicate: Predicate | None) -> str:
    """Deterministic textual rendering of a predicate tree.

    Canonically equal predicates render identically; the rendering doubles
    as the sort key used while canonicalizing compound operands and as the
    predicate component of plan fingerprints.
    """
    if predicate is None:
        return ""
    if isinstance(predicate, BinaryPredicate):
        return f"{predicate.column}{predicate.op.value}{_literal_key(predicate.value)}"
    if isinstance(predicate, InPredicate):
        values = ",".join(sorted(_literal_key(v) for v in predicate.values))
        return f"{predicate.column} in[{values}]"
    if isinstance(predicate, BetweenPredicate):
        return (
            f"{predicate.column} between"
            f"[{_literal_key(predicate.low)},{_literal_key(predicate.high)}]"
        )
    if isinstance(predicate, NotPredicate):
        return f"not({predicate_key(predicate.inner)})"
    if isinstance(predicate, CompoundPredicate):
        operands = sorted(predicate_key(p) for p in predicate.operands)
        return f"{predicate.op.value}({'|'.join(operands)})"
    raise TypeError(f"unknown predicate type {type(predicate)!r}")


def canonicalize_predicate(predicate: Predicate | None) -> Predicate | None:
    """Rewrite a predicate tree into its canonical form.

    The rewrites preserve semantics exactly:

    * nested AND/OR of the same operator are flattened into one n-ary node;
    * compound operands are deduplicated and sorted by :func:`predicate_key`
      (AND/OR are commutative and idempotent);
    * ``NOT NOT p`` collapses to ``p``;
    * IN value lists are sorted and deduplicated; a single-element IN
      becomes an equality comparison.
    """
    if predicate is None:
        return None
    if isinstance(predicate, BinaryPredicate):
        return predicate
    if isinstance(predicate, BetweenPredicate):
        return predicate
    if isinstance(predicate, InPredicate):
        unique = {_literal_key(v): v for v in predicate.values}
        values = tuple(unique[k] for k in sorted(unique))
        if len(values) == 1:
            return BinaryPredicate(
                column=predicate.column, op=ComparisonOp.EQ, value=values[0]
            )
        return InPredicate(column=predicate.column, values=values)
    if isinstance(predicate, NotPredicate):
        inner = canonicalize_predicate(predicate.inner)
        if isinstance(inner, NotPredicate):
            return inner.inner
        assert inner is not None
        return NotPredicate(inner=inner)
    if isinstance(predicate, CompoundPredicate):
        flattened: list[Predicate] = []
        for operand in predicate.operands:
            canonical = canonicalize_predicate(operand)
            assert canonical is not None
            if isinstance(canonical, CompoundPredicate) and canonical.op is predicate.op:
                flattened.extend(canonical.operands)
            else:
                flattened.append(canonical)
        unique = {predicate_key(p): p for p in flattened}
        operands = tuple(unique[k] for k in sorted(unique))
        if len(operands) == 1:
            return operands[0]
        return CompoundPredicate(op=predicate.op, operands=operands)
    raise TypeError(f"unknown predicate type {type(predicate)!r}")


def disjoint_branches(predicate: Predicate | None) -> tuple[Predicate | None, ...]:
    """Split a predicate into *disjoint* conjunctive branches (§4.1.2).

    The paper rewrites a disjunctive query into a union of conjunctive
    queries; to keep the union's partial aggregates addable the branches are
    made disjoint by conjoining each branch with the negation of all earlier
    branches (inclusion–exclusion by construction).  A conjunctive (or
    missing) predicate yields a single branch.
    """
    raw = to_disjunctive_branches(predicate)
    if len(raw) <= 1:
        return tuple(raw)
    branches: list[Predicate | None] = []
    previous: list[Predicate] = []
    for branch in raw:
        assert branch is not None
        if previous:
            negations = tuple(NotPredicate(inner=p) for p in previous)
            branches.append(
                CompoundPredicate(op=LogicalOp.AND, operands=(branch, *negations))
            )
        else:
            branches.append(branch)
        previous.append(branch)
    return tuple(branches)


# -- the logical plan --------------------------------------------------------------


@dataclass(frozen=True)
class LogicalPlan:
    """The normalized form of one BlinkQL query.

    Field-for-field this mirrors :class:`~repro.sql.ast.Query`, but every
    field is canonical: the predicate is in canonical form, ``group_by``
    holds sorted unique column names, joins are sorted, and the precomputed
    ``branches`` are the disjoint OR branches of the WHERE clause.  All
    execution paths consume this type; none consume the raw AST.
    """

    table: str
    aggregates: tuple[AggregateCall, ...]
    group_by: tuple[str, ...] = ()
    where: Predicate | None = None
    joins: tuple[JoinClause, ...] = ()
    error_bound: ErrorBound | None = None
    time_bound: TimeBound | None = None
    report_error: bool = False
    limit: int | None = None
    branches: tuple[Predicate | None, ...] = (None,)
    raw_sql: str = field(default="", compare=False)

    # -- construction -------------------------------------------------------------
    @classmethod
    def from_query(cls, query: Query) -> "LogicalPlan":
        """Normalize a parsed query into its logical plan."""
        where = canonicalize_predicate(query.where)
        group_by = tuple(sorted({c.name for c in query.group_by}))
        joins = tuple(
            sorted(
                query.joins,
                key=lambda j: (j.right_table, str(j.left_column), str(j.right_column)),
            )
        )
        return cls(
            table=query.table,
            aggregates=query.aggregates,
            group_by=group_by,
            where=where,
            joins=joins,
            error_bound=query.error_bound,
            time_bound=query.time_bound,
            report_error=query.report_error,
            limit=query.limit,
            branches=disjoint_branches(where),
            raw_sql=query.raw_sql,
        )

    @classmethod
    def of(cls, query: "Union[LogicalPlan, Query, str]") -> "LogicalPlan":
        """Normalize any query representation (plan, AST, or SQL text)."""
        if isinstance(query, cls):
            return query
        if isinstance(query, str):
            return _plan_from_text(query)
        if isinstance(query, Query):
            return cls.from_query(query)
        raise TypeError(f"cannot plan object of type {type(query)!r}")

    # -- bounds --------------------------------------------------------------------
    @property
    def has_bound(self) -> bool:
        return self.error_bound is not None or self.time_bound is not None

    # -- column sets ---------------------------------------------------------------
    def where_columns(self) -> set[str]:
        """Names of columns referenced anywhere in the WHERE clause."""
        if self.where is None:
            return set()
        return predicate_columns(self.where)

    def group_by_columns(self) -> set[str]:
        return set(self.group_by)

    def template_columns(self) -> set[str]:
        """The query-template column set φ: WHERE ∪ GROUP BY columns (§3.2.1)."""
        return self.where_columns() | self.group_by_columns()

    def branch_columns(self, branch: Predicate | None) -> set[str]:
        """The φ column set of one disjunctive branch."""
        columns = set(self.group_by)
        if branch is not None:
            columns |= predicate_columns(branch)
        return columns

    @cached_property
    def referenced_columns(self) -> frozenset[str]:
        """Every column name the query touches, across all clauses.

        The union of WHERE, GROUP BY, aggregate inputs, and both sides of
        every join — the set the executor prunes scans down to.  Names are
        unqualified; a name satisfied by a joined dimension table simply
        won't appear in the fact table's schema.  Cached on the (frozen)
        plan: the partition pipeline consults it once per partition.
        """
        columns = self.template_columns()
        for call in self.aggregates:
            if call.column is not None:
                columns.add(call.column.name)
        for join in self.joins:
            columns.add(join.left_column.name)
            columns.add(join.right_column.name)
        return frozenset(columns)

    # -- derived plans -------------------------------------------------------------
    def for_branch(
        self, branch: Predicate | None, error_bound: ErrorBound | None = None
    ) -> "LogicalPlan":
        """This plan restricted to one disjunctive branch (optionally re-bounded)."""
        where = canonicalize_predicate(branch)
        return replace(
            self,
            where=where,
            branches=(where,),
            error_bound=error_bound if self.error_bound is not None else None,
        )

    def unbounded(self) -> "LogicalPlan":
        """This plan with error/time bounds stripped (probe executions)."""
        if not self.has_bound:
            return self
        return replace(self, error_bound=None, time_bound=None)

    # -- fingerprints --------------------------------------------------------------
    def _identity_parts(self) -> list[str]:
        # Select-list order is part of the identity: execution preserves it
        # (state/aggregate pairing, result presentation), so folding it away
        # would let a cached answer reach a client with a permuted list.
        aggregates = ";".join(_aggregate_key(call) for call in self.aggregates)
        joins = ";".join(
            f"join:{j.right_table}:{j.left_column}={j.right_column}" for j in self.joins
        )
        return [
            self.table,
            aggregates,
            ",".join(self.group_by),
            predicate_key(self.where),
            joins,
            f"limit:{self.limit}" if self.limit is not None else "",
        ]

    def _bound_part(self) -> str:
        if self.error_bound is not None:
            bound = self.error_bound
            kind = "rel" if bound.relative else "abs"
            return f"err:{kind}:{bound.error:g}@{bound.confidence:g}"
        if self.time_bound is not None:
            return f"time:{self.time_bound.seconds:g}"
        return ""

    def fingerprint(self) -> str:
        """Stable identity of this plan, bounds included.

        Two queries share a fingerprint iff they ask for the same aggregates
        over the same table with canonically equal predicates, the same
        grouping *set*, the same joins, and the same error/time bound —
        regardless of how the SQL text was written.  This is the service
        result cache's key.
        """
        return _digest(self._identity_parts() + [self._bound_part()])

    def probe_fingerprint(self) -> str:
        """Plan identity with error/time bounds stripped, for probe memoization.

        A probe executes the query on a family's smallest resolution; its
        outcome depends on everything *except* the requested bound — only
        the reporting confidence of an error bound leaks into the probe's
        error bars, so that alone is folded in.
        """
        confidence = (
            self.error_bound.confidence if self.error_bound is not None else 0.95
        )
        return _digest(self._identity_parts() + [f"conf:{confidence:g}"])

    def describe(self) -> str:
        """Compact human-readable rendering (used by EXPLAIN)."""
        parts = [f"table={self.table}"]
        parts.append(
            "aggregates=" + ",".join(call.output_name() for call in self.aggregates)
        )
        if self.group_by:
            parts.append("group_by=" + ",".join(self.group_by))
        if self.where is not None:
            parts.append("where=" + predicate_key(self.where))
        if self.joins:
            parts.append(
                "joins=" + ";".join(f"{j.right_table} on {j.left_column}={j.right_column}"
                                    for j in self.joins)
            )
        parts.append("bound=" + (self._bound_part() or "none"))
        return " ".join(parts)


def _aggregate_key(call: AggregateCall) -> str:
    column = str(call.column) if call.column is not None else "*"
    quantile = f"@{call.quantile:g}" if call.quantile is not None else ""
    return f"{call.function.value}({column}){quantile}>{call.output_name()}"


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:32]


@lru_cache(maxsize=1024)
def _plan_from_text(text: str) -> LogicalPlan:
    """Parse + normalize SQL text, memoized (hot path for repeated queries)."""
    from repro.sql.parser import parse_query

    return LogicalPlan.from_query(parse_query(text))
