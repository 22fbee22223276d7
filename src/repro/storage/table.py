"""In-memory columnar tables.

A :class:`Table` is an immutable collection of equal-length :class:`Column`
objects plus a :class:`Schema`.  It supports the row-subset operations the
engine and sampling layer need (take / filter / sort by column set), and it
exposes size estimates so the cluster cost model and the sample-selection
optimizer can reason about bytes without real multi-terabyte data.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.common.errors import SchemaError
from repro.storage.block import (
    BlockSet,
    TablePartition,
    split_into_blocks,
    split_into_row_ranges,
)
from repro.storage.column import Column
from repro.storage.schema import ColumnDef, ColumnType, Schema
from repro.storage.zonemaps import (
    DEFAULT_ZONE_BLOCK_ROWS,
    ZoneMapIndex,
    build_zone_map_index,
    extend_zone_map_index,
    project_zone_index,
    replace_zone_column,
)


class Table:
    """A named, immutable columnar table."""

    def __init__(self, name: str, columns: Sequence[Column], schema: Schema | None = None) -> None:
        if not columns:
            raise SchemaError("a table requires at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise SchemaError(f"columns of table {name!r} have differing lengths: {lengths}")
        self.name = name
        self._columns: dict[str, Column] = {c.name: c for c in columns}
        if len(self._columns) != len(columns):
            raise SchemaError(f"duplicate column names in table {name!r}")
        if schema is None:
            schema = Schema(
                [ColumnDef(c.name, c.ctype, c.ctype.default_width_bytes) for c in columns]
            )
        self.schema = schema
        self._num_rows = lengths.pop()
        # Zone-map indexes keyed by block granularity, built lazily.  The
        # table is immutable, so a computed index never goes stale; a benign
        # double-build under concurrency just replaces equal metadata.
        self._zone_indexes: dict[int, ZoneMapIndex] = {}
        # The compression summary, computed on first use; a tuple so that a
        # computed ``None`` (nothing encoded) is told apart from "not yet".
        self._encoding_stats: tuple[dict[str, object] | None] | None = None

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        name: str,
        data: Mapping[str, Sequence],
        types: Mapping[str, ColumnType] | None = None,
    ) -> "Table":
        """Build a table from a mapping of column name to values."""
        columns = []
        for col_name, values in data.items():
            ctype = types.get(col_name) if types else None
            columns.append(Column.from_values(col_name, values, ctype))
        return cls(name, columns)

    # -- basic properties ---------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self._num_rows}, cols={self.schema.names})"

    @property
    def column_names(self) -> list[str]:
        return self.schema.names

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; have {self.column_names}"
            ) from None

    def columns(self) -> list[Column]:
        return [self._columns[n] for n in self.schema.names]

    # -- size estimation ------------------------------------------------------------
    @property
    def row_width_bytes(self) -> int:
        """Approximate serialized width of one row."""
        return self.schema.row_width_bytes

    @property
    def size_bytes(self) -> int:
        """Approximate serialized size of the whole table."""
        return self.row_width_bytes * self._num_rows

    # -- row-subset operations --------------------------------------------------------
    def take(self, indices: np.ndarray, name: str | None = None) -> "Table":
        """A new table containing the rows at ``indices`` (in that order)."""
        indices = np.asarray(indices)
        new_columns = [c.take(indices) for c in self.columns()]
        return Table(name or self.name, new_columns, self.schema)

    def filter(self, mask: np.ndarray, name: str | None = None) -> "Table":
        """A new table containing only rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self._num_rows:
            raise SchemaError("filter mask length does not match row count")
        new_columns = [c.filter(mask) for c in self.columns()]
        return Table(self.name if name is None else name, new_columns, self.schema)

    def head(self, n: int) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(min(n, self._num_rows)))

    def slice_rows(self, start: int, stop: int, name: str | None = None) -> "Table":
        """The rows ``[start, stop)`` as a zero-copy view of this table.

        Every column's backing array is sliced with a basic (view) slice, so
        the returned table shares memory with this one.  This is what makes
        :class:`~repro.storage.block.TablePartition` iteration free.
        """
        start = max(0, min(start, self._num_rows))
        stop = max(start, min(stop, self._num_rows))
        return Table(
            name or self.name,
            [c.slice_rows(start, stop) for c in self.columns()],
            self.schema,
        )

    # -- zone maps -------------------------------------------------------------------
    def zone_map_index(self, block_rows: int | None = None) -> ZoneMapIndex:
        """Block-level zone maps of this table, built once and cached.

        The index is the scan-acceleration metadata: per ``block_rows``-sized
        block, every column's min/max/null-count/distinct estimate, computed
        in one vectorized pass per column.  Subsequent calls with the same
        granularity return the cached index (the table is immutable).
        """
        rows = int(block_rows) if block_rows else DEFAULT_ZONE_BLOCK_ROWS
        index = self._zone_indexes.get(rows)
        if index is None:
            index = build_zone_map_index(self, rows)
            self._zone_indexes[rows] = index
        return index

    def has_zone_map_index(self, block_rows: int | None = None) -> bool:
        """Whether a zone-map index at this granularity was already built."""
        rows = int(block_rows) if block_rows else DEFAULT_ZONE_BLOCK_ROWS
        return rows in self._zone_indexes

    # -- compressed storage ----------------------------------------------------------
    def encoding_stats(self) -> dict[str, object] | None:
        """Compression summary over this table's encoded columns.

        ``None`` when no column is block-encoded (see
        :func:`repro.storage.encodings.table_encoding_stats`).  Computed once
        and cached (the table is immutable); callers share the returned
        mapping and must not mutate it.
        """
        if self._encoding_stats is None:
            from repro.storage.encodings import table_encoding_stats

            self._encoding_stats = (table_encoding_stats(self),)
        return self._encoding_stats[0]

    # -- partitioning ---------------------------------------------------------------
    def block_set(self, block_bytes: int | None = None,
                  num_partitions: int | None = None,
                  zone_maps: bool = False) -> BlockSet:
        """Split this table's rows into blocks (§2.2.1's "many small files").

        Exactly one of ``block_bytes`` (byte-sized HDFS-style blocks) or
        ``num_partitions`` (an exact partition count) must be given.
        ``zone_maps=True`` annotates every block with its per-column zone
        maps (see :meth:`repro.storage.block.BlockSet.with_zones`).
        """
        if (block_bytes is None) == (num_partitions is None):
            raise ValueError("pass exactly one of block_bytes or num_partitions")
        if block_bytes is not None:
            blocks = split_into_blocks(
                self.name, self._num_rows, self.row_width_bytes, block_bytes
            )
        else:
            blocks = split_into_row_ranges(self.name, self._num_rows, int(num_partitions))
        if zone_maps:
            blocks = blocks.with_zones(self)
        return blocks

    def partitions(
        self,
        block_set: BlockSet | None = None,
        weights: np.ndarray | None = None,
        num_partitions: int | None = None,
    ) -> list[TablePartition]:
        """This table's rows as zero-copy :class:`TablePartition` views.

        ``block_set`` defaults to a row-balanced split into ``num_partitions``
        ranges (one partition when neither is given).  ``weights`` — per-row
        inverse sampling rates aligned with this table — are sliced alongside
        the rows so each partition carries its own weight view.
        """
        if block_set is None:
            block_set = self.block_set(num_partitions=num_partitions or 1)
        if weights is not None:
            weights = np.asarray(weights)
            if weights.shape[0] != self._num_rows:
                raise SchemaError("weights length does not match table row count")
        return [
            TablePartition(
                source=self,
                block=block,
                weights=(
                    weights[block.row_start:block.row_end] if weights is not None else None
                ),
            )
            for block in block_set
        ]

    def project(self, names: Iterable[str], name: str | None = None) -> "Table":
        """A new table containing only the named columns.

        Projection keeps every surviving column's rows bit-identical, so any
        cached zone-map index carries forward (restricted to the projected
        columns) instead of being rebuilt on first accelerated scan.
        """
        names = list(names)
        self.schema.validate_columns(names)
        projected = Table(
            name or self.name,
            [self._columns[n] for n in names],
            self.schema.project(names),
        )
        for rows, index in self._zone_indexes.items():
            projected._zone_indexes[rows] = project_zone_index(index, names, projected.name)
        return projected

    def with_column(self, column: Column) -> "Table":
        """A new table with ``column`` appended (or replaced if the name exists).

        Zone-compatible change: the other columns' rows are untouched, so any
        cached zone-map index carries forward with only the new/replaced
        column's zones recomputed (one vectorized pass over that column) —
        never a whole-table rebuild.
        """
        if len(column) != self._num_rows:
            raise SchemaError("new column length does not match table row count")
        columns = [c for c in self.columns() if c.name != column.name]
        columns.append(column)
        updated = Table(self.name, columns)
        for rows, index in self._zone_indexes.items():
            updated._zone_indexes[rows] = replace_zone_column(index, updated, column.name)
        return updated

    # -- ingestion -------------------------------------------------------------------
    def append_batch(self, data: Mapping[str, Sequence], name: str | None = None) -> "Table":
        """A new table with the batch's rows appended (the streaming-ingest path).

        ``data`` maps every column name to an equal-length sequence of new
        values (use :func:`repro.ingest.batch.columns_from_rows` to normalise
        row dictionaries).  All *derived metadata* is incremental in the
        batch size:

        * string columns remap the batch into the existing dictionary's code
          space, appending novel labels so existing codes never move;
        * every zone-map index cached on this table is carried forward with
          only the partial tail block and the new blocks recomputed
          (:func:`~repro.storage.zonemaps.extend_zone_map_index`).

        The column arrays themselves are concatenated — one raw memcpy of
        the old data per column (memory-bandwidth-bound, no per-value
        work).  The original table is never mutated, so readers of the
        previous generation keep a consistent view while the appended table
        is published.
        """
        missing = [n for n in self.schema.names if n not in data]
        extra = [n for n in data if n not in self._columns]
        if missing or extra:
            raise SchemaError(
                f"append batch for table {self.name!r} must cover exactly the schema "
                f"columns; missing={missing}, unexpected={extra}"
            )
        lengths = {len(values) for values in data.values()}
        if len(lengths) > 1:
            raise SchemaError(f"append batch columns have differing lengths: {lengths}")
        batch_rows = lengths.pop() if lengths else 0
        if batch_rows == 0:
            return self
        appended = Table(
            name or self.name,
            [self._columns[n].append_values(data[n]) for n in self.schema.names],
            self.schema,
        )
        for rows, index in self._zone_indexes.items():
            appended._zone_indexes[rows] = extend_zone_map_index(index, appended, rows)
        return appended

    def sort_by(self, names: Sequence[str]) -> "Table":
        """Rows sorted lexicographically by the given columns.

        The paper stores each stratified sample "sequentially sorted according
        to the order of columns in φ" so that rows sharing a stratum value are
        contiguous on disk; this method reproduces that layout.
        """
        names = list(names)
        self.schema.validate_columns(names)
        keys = [self._columns[n].data for n in reversed(names)]
        order = np.lexsort(keys)
        return self.take(order)

    # -- grouping helpers -----------------------------------------------------------------
    def group_codes(self, names: Sequence[str]) -> tuple[np.ndarray, list[tuple]]:
        """Assign each row a dense group id for the composite key ``names``.

        Returns ``(codes, keys)`` where ``codes[i]`` is the group id of row
        ``i`` and ``keys[g]`` is the decoded composite key of group ``g``.
        This is the backbone of both group-by aggregation and stratified
        sampling.

        Groups are numbered in lexicographic order of (column order, value),
        where a STRING column orders by dictionary code, not by label.  Keys
        hold ``dictionary[code]`` for STRING columns and plain Python
        scalars for the rest.  All NaN rows of a FLOAT column form one
        group, ordered after every number, and its key holds the shared
        :data:`math.nan` object, so keys from separate calls match as dict
        keys.
        """
        arrays, dictionaries = self._group_columns(names)
        codes, num_groups = group_ids(arrays, dictionaries)
        return codes, decode_group_keys(arrays, dictionaries, codes, num_groups)

    def _group_columns(
        self, names: Sequence[str]
    ) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
        names = list(names)
        if not names:
            raise SchemaError("group_codes requires at least one column")
        self.schema.validate_columns(names)
        columns = [self._columns[n] for n in names]
        return [c.data for c in columns], [c.dictionary for c in columns]

    def _group_counts(self, names: Sequence[str]) -> tuple[np.ndarray, int]:
        """``(codes, num_groups)`` of :meth:`group_codes`, without decoding keys."""
        return group_ids(*self._group_columns(names))

    def value_frequencies(self, names: Sequence[str]) -> dict[tuple, int]:
        """Frequency ``F(φ, T, x)`` of every distinct value combination of φ."""
        codes, keys = self.group_codes(names)
        counts = np.bincount(codes, minlength=len(keys))
        return {key: int(count) for key, count in zip(keys, counts)}

    def distinct_count(self, names: Sequence[str]) -> int:
        """``|D(φ)|`` — number of distinct value combinations in φ."""
        if not names:
            return 0
        return self._group_counts(names)[1]

    def to_dict(self) -> dict[str, list]:
        """Materialise the table as plain Python lists (for tests and display)."""
        return {n: list(self._columns[n].values()) for n in self.schema.names}

    def iter_rows(self) -> Iterable[dict[str, object]]:
        """Iterate over rows as dictionaries (slow; intended for tests/examples)."""
        decoded = {n: self._columns[n].values() for n in self.schema.names}
        for i in range(self._num_rows):
            yield {n: decoded[n][i] for n in self.schema.names}


# -- group keys --------------------------------------------------------------------------
_INT64_MAX = 2**63 - 1
#: Keys whose radix is at most this many times the row count are ranked by
#: counting over the radix (O(rows + radix)) instead of by a sort.
_COUNTING_RADIX_PER_ROW = 8


def group_ids(
    arrays: Sequence[np.ndarray], dictionaries: Sequence[np.ndarray | None]
) -> tuple[np.ndarray, int]:
    """Dense group ids of the rows of equal-length ``arrays``: ``(codes, num_groups)``.

    Each column becomes an order-preserving digit (see :func:`_digit`).
    The digits combine, most significant first, into one int64 key.  When
    the next multiply could pass 2^63 - 1, the partial key is re-densified
    first, so its radix drops to the combinations present (at most the row
    count).  Group ids number the distinct keys in ascending order, which
    is lexicographic order of the digits.
    """
    if len(arrays[0]) == 0:
        return np.empty(0, dtype=np.int64), 0
    key, radix = None, 1
    for data, dictionary in zip(arrays, dictionaries):
        digit, digit_radix = _digit(data, dictionary)
        if key is None:
            key, radix = digit, digit_radix
            continue
        if radix * digit_radix > _INT64_MAX:
            key, radix = _densify(key, radix)
        if radix * digit_radix > _INT64_MAX:
            digit, digit_radix = _densify(digit, digit_radix)
        key = key * digit_radix + digit
        radix *= digit_radix
    return _densify(key, radix)


def _digit(data: np.ndarray, dictionary: np.ndarray | None) -> tuple[np.ndarray, int]:
    """``(digit, radix)``: an order-preserving int64 digit per row, below ``radix``.

    A dictionary column's codes, radix ``len(dictionary)``; an integer or
    bool column with a narrow range, its offset from the minimum; anything
    else, the rank among its distinct values (NaN is one value, last).
    """
    if dictionary is not None:
        return data.astype(np.int64, copy=False), len(dictionary)
    if data.dtype.kind in "ib":
        low, high = int(data.min()), int(data.max())
        if high - low < _COUNTING_RADIX_PER_ROW * data.shape[0]:
            return data.astype(np.int64) - low, high - low + 1
    return _densify(data)


def _densify(values: np.ndarray, radix: int | None = None) -> tuple[np.ndarray, int]:
    """Rank of each value among the distinct values, and their number.

    ``radix`` (when known) bounds non-negative integer ``values``; a small
    one is ranked by counting instead of sorting.
    """
    if radix is not None and radix <= _COUNTING_RADIX_PER_ROW * values.shape[0]:
        rank = np.cumsum(np.bincount(values, minlength=radix) > 0) - 1
        return rank[values], int(rank[-1]) + 1
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64, copy=False), int(uniques.shape[0])


def decode_group_keys(
    arrays: Sequence[np.ndarray],
    dictionaries: Sequence[np.ndarray | None],
    codes: np.ndarray,
    num_groups: int,
) -> list[tuple]:
    """The composite key of each of the ``num_groups`` groups of ``codes``.

    Reads the values of one row per group: ``dictionary[code]`` for
    dictionary columns, Python scalars for the rest, with every NaN
    decoded to :data:`math.nan`.
    """
    if num_groups == 0:
        return []
    rows = np.empty(num_groups, dtype=np.int64)
    rows[codes] = np.arange(codes.shape[0], dtype=np.int64)
    parts: list[list] = []
    for data, dictionary in zip(arrays, dictionaries):
        values = data[rows]
        if dictionary is not None:
            parts.append(list(dictionary[values]))
            continue
        decoded = values.tolist()
        if values.dtype.kind == "f":
            for i in np.flatnonzero(np.isnan(values)).tolist():
                decoded[i] = math.nan
        parts.append(decoded)
    return list(zip(*parts))
