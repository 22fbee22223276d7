"""Query result types.

A :class:`QueryResult` contains one :class:`GroupResult` per GROUP BY key
(or a single anonymous group when there is no GROUP BY), and each group
carries one :class:`AggregateValue` — an estimate plus its error bar — per
aggregate in the SELECT list.  Exact executions produce the same structure
with zero-width intervals, which keeps the benchmark comparison code uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.estimation.confidence import ConfidenceInterval
from repro.estimation.estimators import Estimate


@dataclass(frozen=True)
class AggregateValue:
    """One aggregate's answer within one group."""

    name: str
    estimate: Estimate
    confidence: float = 0.95

    @property
    def value(self) -> float:
        return self.estimate.value

    @property
    def interval(self) -> ConfidenceInterval:
        return self.estimate.interval(self.confidence)

    @property
    def error_bar(self) -> float:
        """CI half-width at the reporting confidence."""
        return self.interval.half_width

    @property
    def relative_error(self) -> float:
        return self.interval.relative_half_width

    def __str__(self) -> str:
        if self.estimate.exact:
            return f"{self.name}={self.value:,.4g} (exact)"
        return f"{self.name}={self.interval}"


@dataclass(frozen=True)
class GroupResult:
    """Aggregates for one GROUP BY key."""

    key: tuple
    aggregates: Mapping[str, AggregateValue]

    def __getitem__(self, name: str) -> AggregateValue:
        return self.aggregates[name]

    def value(self, name: str) -> float:
        return self.aggregates[name].value


@dataclass(frozen=True)
class QueryResult:
    """The full answer to a query.

    Attributes
    ----------
    group_by:
        The GROUP BY column names, in query order (empty for global
        aggregates).
    groups:
        One :class:`GroupResult` per group, ordered by key.
    rows_read:
        Total rows scanned to produce the answer (sample rows for
        approximate executions).
    sample_name:
        Identifier of the sample used, or ``None`` for exact execution.
    simulated_latency_seconds:
        Latency predicted by the cluster simulator for this execution at the
        simulated data scale, when available.
    wire_text:
        The JSON text of this answer's wire payload, kept by
        :func:`repro.net.protocol.result_payload_text` when the network
        server serves it as a result-cache hit (``None`` until then).
        A result is not changed once it is answered, so the text stays
        right for the object's life; an append or a sample rebuild drops
        the cached result, and the next answer is a new object.
    """

    group_by: tuple[str, ...]
    groups: tuple[GroupResult, ...]
    rows_read: int
    sample_name: str | None = None
    simulated_latency_seconds: float | None = None
    metadata: dict = field(default_factory=dict, compare=False)
    wire_text: str | None = field(default=None, init=False, compare=False, repr=False)

    def __iter__(self) -> Iterator[GroupResult]:
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def is_exact(self) -> bool:
        return all(
            agg.estimate.exact for group in self.groups for agg in group.aggregates.values()
        )

    def group(self, key: tuple | object) -> GroupResult:
        """Look up a group by its key (scalars are promoted to 1-tuples)."""
        if not isinstance(key, tuple):
            key = (key,)
        for group in self.groups:
            if group.key == key:
                return group
        raise KeyError(f"no group with key {key!r}")

    def has_group(self, key: tuple | object) -> bool:
        if not isinstance(key, tuple):
            key = (key,)
        return any(group.key == key for group in self.groups)

    def scalar(self, name: str | None = None) -> AggregateValue:
        """The single aggregate of a no-GROUP-BY query (convenience accessor)."""
        if len(self.groups) != 1:
            raise ValueError("scalar() requires a query without GROUP BY")
        aggregates = self.groups[0].aggregates
        if name is None:
            if len(aggregates) != 1:
                raise ValueError("scalar() without a name requires exactly one aggregate")
            return next(iter(aggregates.values()))
        return aggregates[name]

    def max_relative_error(self) -> float:
        """The worst relative error across all groups and aggregates."""
        errors = [
            agg.relative_error
            for group in self.groups
            for agg in group.aggregates.values()
        ]
        return max(errors) if errors else 0.0

    def to_rows(self) -> list[dict[str, object]]:
        """Flatten into a list of dict rows (group key columns + aggregates)."""
        rows = []
        for group in self.groups:
            row: dict[str, object] = {
                column: value for column, value in zip(self.group_by, group.key)
            }
            for name, agg in group.aggregates.items():
                row[name] = agg.value
                if not agg.estimate.exact:
                    row[f"{name}_error"] = agg.error_bar
            rows.append(row)
        return rows
