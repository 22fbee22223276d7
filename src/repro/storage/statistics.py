"""Table and column statistics.

The offline sample-creation module (paper §2.2.1) relies on "statistics
collected from the data (e.g., average row sizes, key skews, column
histograms)".  This module computes those statistics once per table so that
the optimizer and the skew metric ``Δ(φ)`` can be evaluated without rescanning
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.storage.table import Table
from repro.storage.zonemaps import ZoneMapIndex


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics for a single column.

    ``estimated`` marks statistics produced by an incremental merge
    (:func:`merge_column_statistics`) whose ``distinct_count`` and
    ``top_frequencies`` are bounds rather than exact rescan values; consumers
    that compare snapshots (drift detection) must treat such values with
    slack instead of as ground truth.
    """

    name: str
    num_rows: int
    distinct_count: int
    null_count: int
    min_value: object
    max_value: object
    mean: float | None
    std: float | None
    # Histogram of value frequencies (top of the frequency distribution).
    top_frequencies: tuple[int, ...]
    estimated: bool = False
    #: Lower bound on the true distinct count when ``estimated`` (merges can
    #: only bound the union cardinality: ``max(parts) <= D <= capped sum``).
    #: ``None`` means exact — the bound equals ``distinct_count``.
    distinct_low: int | None = None

    @property
    def distinct_bounds(self) -> tuple[int, int]:
        """``(low, high)`` bounds on the true distinct count."""
        low = self.distinct_low if self.distinct_low is not None else self.distinct_count
        return (low, self.distinct_count)

    @property
    def skew_ratio(self) -> float:
        """Ratio of the most frequent value's count to the mean frequency.

        1.0 indicates a perfectly uniform column; large values indicate a
        heavy-tailed (Zipf-like) distribution where stratification pays off.
        """
        if not self.top_frequencies or self.distinct_count == 0:
            return 1.0
        mean_frequency = self.num_rows / self.distinct_count
        if mean_frequency == 0:
            return 1.0
        return float(self.top_frequencies[0] / mean_frequency)


@dataclass(frozen=True)
class TableStatistics:
    """Statistics for a whole table, keyed by column name."""

    table_name: str
    num_rows: int
    row_width_bytes: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)
    #: Block-level zone maps (scan-acceleration metadata), when computed.
    zone_index: ZoneMapIndex | None = field(default=None, compare=False)

    @property
    def size_bytes(self) -> int:
        return self.num_rows * self.row_width_bytes

    def column(self, name: str) -> ColumnStatistics:
        return self.columns[name]

    def most_skewed_columns(self, limit: int = 5) -> list[str]:
        """Column names ordered by decreasing skew ratio."""
        ranked = sorted(
            self.columns.values(), key=lambda c: c.skew_ratio, reverse=True
        )
        return [c.name for c in ranked[:limit]]

    @property
    def estimated(self) -> bool:
        """True when any column's statistics came from an incremental merge."""
        return any(c.estimated for c in self.columns.values())


def compute_statistics(
    table: Table,
    top_k: int = 16,
    with_zone_maps: bool = False,
    zone_block_rows: int | None = None,
) -> TableStatistics:
    """Compute :class:`TableStatistics` for every column of ``table``.

    ``with_zone_maps=True`` additionally attaches the table's block-level
    :class:`~repro.storage.zonemaps.ZoneMapIndex` (built through the table's
    cache, so repeated calls share one index).
    """
    column_stats: dict[str, ColumnStatistics] = {}
    for column in table.columns():
        data = column.data
        null_count = (
            int(np.count_nonzero(np.isnan(data))) if data.dtype.kind == "f" else 0
        )
        distinct, counts = np.unique(data, return_counts=True)
        counts_sorted = np.sort(counts)[::-1]
        top = tuple(int(c) for c in counts_sorted[:top_k])
        if column.is_numeric and len(column) > 0:
            numeric = column.numeric()
            mean = float(np.mean(numeric))
            std = float(np.std(numeric, ddof=1)) if len(column) > 1 else 0.0
            min_value: object = float(np.min(numeric))
            max_value: object = float(np.max(numeric))
        else:
            mean = None
            std = None
            values = column.values()
            if len(column) > 0:
                min_value = values.min()
                max_value = values.max()
            else:
                min_value = None
                max_value = None
        column_stats[column.name] = ColumnStatistics(
            name=column.name,
            num_rows=len(column),
            distinct_count=int(distinct.size),
            null_count=null_count,
            min_value=min_value,
            max_value=max_value,
            mean=mean,
            std=std,
            top_frequencies=top,
        )
    zone_index = table.zone_map_index(zone_block_rows) if with_zone_maps else None
    return TableStatistics(
        table_name=table.name,
        num_rows=table.num_rows,
        row_width_bytes=table.row_width_bytes,
        columns=column_stats,
        zone_index=zone_index,
    )


def _merge_extremum(a: object, b: object, combine) -> object:
    """``combine(a, b)`` with None treated as absent and NaN poisoning."""
    if a is None:
        return b
    if b is None:
        return a
    if a != a:  # NaN
        return a
    if b != b:
        return b
    return combine(a, b)


def merge_column_statistics(
    previous: ColumnStatistics,
    batch: ColumnStatistics,
    distinct_cap: int | None = None,
    integral: bool | None = None,
) -> ColumnStatistics:
    """Merge the statistics of two disjoint row sets of one column.

    Counts, extrema, and moments merge exactly (mean/std via Chan's parallel
    update).  ``distinct_count`` and ``top_frequencies`` cannot be merged
    exactly without the data, so the union cardinality is tracked as a
    ``[low, high]`` interval: ``high`` is the capped sum, tightened by the
    integral range width and by ``distinct_cap`` (the string dictionary
    length — an upper bound, since ``from_codes`` dictionaries may carry
    labels no row uses); ``low`` is the larger part's count.  When the
    bounds coincide the merge is exact; otherwise the result is flagged
    ``estimated``.  Each top frequency becomes the sum of the aligned
    per-part tops (an upper bound that is tight for stable heavy hitters).
    """
    num_rows = previous.num_rows + batch.num_rows
    null_count = previous.null_count + batch.null_count
    estimated = previous.estimated or batch.estimated

    if previous.mean is not None and batch.mean is not None:
        n_a, n_b = previous.num_rows, batch.num_rows
        if n_a == 0:
            mean, std = batch.mean, batch.std
        elif n_b == 0:
            mean, std = previous.mean, previous.std
        else:
            delta = batch.mean - previous.mean
            mean = previous.mean + delta * n_b / num_rows
            m2_a = (previous.std or 0.0) ** 2 * max(0, n_a - 1)
            m2_b = (batch.std or 0.0) ** 2 * max(0, n_b - 1)
            m2 = m2_a + m2_b + delta * delta * n_a * n_b / num_rows
            std = float(np.sqrt(m2 / (num_rows - 1))) if num_rows > 1 else 0.0
    else:
        mean = previous.mean if previous.mean is not None else batch.mean
        std = previous.std if previous.std is not None else batch.std

    previous_low, previous_high = previous.distinct_bounds
    batch_low, batch_high = batch.distinct_bounds
    distinct = min(previous_high + batch_high, num_rows)
    minimum = _merge_extremum(previous.min_value, batch.min_value, min)
    maximum = _merge_extremum(previous.max_value, batch.max_value, max)
    if integral is None:
        integral = _is_integral(minimum) and _is_integral(maximum)
    bounds_known = (
        minimum is not None and maximum is not None
        and minimum == minimum and maximum == maximum  # NaN-safe
    )
    if integral and bounds_known:
        # Integral domains cannot hold more distinct values than their
        # range width — the tight bound for day/flag/code-style columns.
        distinct = min(distinct, int(maximum) - int(minimum) + 1)
    if distinct_cap is not None:
        distinct = min(distinct, int(distinct_cap))
    distinct_low: int | None = max(previous_low, batch_low)
    distinct = max(distinct, distinct_low)
    if distinct == distinct_low:
        distinct_low = None  # the bounds met: the merge is exact
    else:
        estimated = True

    top_k = max(len(previous.top_frequencies), len(batch.top_frequencies))
    tops: list[int] = []
    for i in range(top_k):
        a = previous.top_frequencies[i] if i < len(previous.top_frequencies) else 0
        b = batch.top_frequencies[i] if i < len(batch.top_frequencies) else 0
        tops.append(min(a + b, num_rows))
    top_frequencies = tuple(sorted(tops, reverse=True))
    if previous.top_frequencies and batch.top_frequencies:
        estimated = True

    return ColumnStatistics(
        name=previous.name,
        num_rows=num_rows,
        distinct_count=distinct,
        null_count=null_count,
        min_value=minimum,
        max_value=maximum,
        mean=mean,
        std=std,
        top_frequencies=top_frequencies,
        estimated=estimated,
        distinct_low=distinct_low if estimated else None,
    )


def _is_integral(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def extend_statistics(
    previous: TableStatistics, table: Table, batch_start: int
) -> TableStatistics:
    """Statistics of ``table`` given ``previous`` covered rows ``[0, batch_start)``.

    The ingestion path's incremental sibling of :func:`compute_statistics`:
    only the appended rows ``[batch_start, num_rows)`` are scanned, then the
    per-column statistics are merged.  String columns tighten their distinct
    bound with the dictionary length (an upper bound — ``from_codes``
    dictionaries may carry labels no row uses); all inexact merges carry
    ``[low, high]`` bounds, flagged via :attr:`ColumnStatistics.estimated`.
    The zone index
    is taken from the table's cache when the previous snapshot carried one
    (the append path extends it incrementally).
    """
    if previous.num_rows != batch_start:
        raise ValueError(
            f"previous statistics cover {previous.num_rows} rows, expected {batch_start}"
        )
    batch = compute_statistics(table.slice_rows(batch_start, table.num_rows))
    columns: dict[str, ColumnStatistics] = {}
    for name, previous_column in previous.columns.items():
        column = table.column(name)
        distinct_cap = (
            int(column.dictionary.shape[0]) if column.dictionary is not None else None
        )
        columns[name] = merge_column_statistics(
            previous_column,
            batch.columns[name],
            distinct_cap=distinct_cap,
            integral=column.data.dtype.kind in ("i", "u", "b") and column.dictionary is None,
        )
    zone_index = None
    if previous.zone_index is not None:
        zone_index = table.zone_map_index(previous.zone_index.block_rows)
    return TableStatistics(
        table_name=previous.table_name,
        num_rows=table.num_rows,
        row_width_bytes=table.row_width_bytes,
        columns=columns,
        zone_index=zone_index,
    )


def joint_frequencies(table: Table, columns: Sequence[str]) -> np.ndarray:
    """Frequencies of each distinct value combination of ``columns``.

    Returned as a plain (unordered) array of counts; used by the skew metric
    and the storage-cost estimator without needing the actual key values.
    """
    codes, num_groups = table._group_counts(columns)
    return np.bincount(codes, minlength=num_groups).astype(np.int64)
