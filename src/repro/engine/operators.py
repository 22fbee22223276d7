"""Physical operators: the hash equi-join.

The paper supports joins between a (sampled) fact table and dimension tables
that fit in memory (§2.1).  The executor joins the dimension columns onto the
fact rows before evaluating predicates and aggregates, which is exactly the
broadcast-hash-join plan a Hive/Shark engine would pick for that shape.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ExecutionError, SchemaError
from repro.storage.column import Column
from repro.storage.table import Table


def hash_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    prefix_right: bool = True,
) -> tuple[Table, np.ndarray]:
    """Inner equi-join of ``left`` with ``right`` on the given key columns.

    Returns ``(joined_table, left_row_indices)`` where ``left_row_indices``
    maps every output row back to the left-table row it came from — the
    sampling weights of the fact table rows carry over through the join via
    this mapping.

    The right (dimension) table is assumed to have at most one row per key
    (a foreign-key join); duplicate right keys raise :class:`ExecutionError`
    because a fan-out join would invalidate the per-row sampling rates.
    """
    left_column = left.column(left_key)
    right_column = right.column(right_key)

    right_values = np.asarray(right_column.values())
    left_values = np.asarray(left_column.values())

    # Build the (sorted) dimension side: sorting the unique keys once lets the
    # probe be a vectorised binary search instead of a per-row dict lookup.
    # equal_nan=False: NaN keys are distinct (NaN != NaN), so several NaN rows
    # are not a key-uniqueness violation — they simply never match a probe.
    if right_values.dtype.kind == "f":
        unique_keys, first_rows = np.unique(
            right_values, return_index=True, equal_nan=False
        )
    else:
        unique_keys, first_rows = np.unique(right_values, return_index=True)
    if unique_keys.shape[0] != right_values.shape[0]:
        raise ExecutionError(
            f"join key {right_key!r} is not unique in dimension table {right.name!r}"
        )

    if unique_keys.shape[0] == 0:
        matched = np.zeros(left_values.shape[0], dtype=bool)
        positions = np.zeros(left_values.shape[0], dtype=np.int64)
    else:
        try:
            positions = np.searchsorted(unique_keys, left_values)
        except (TypeError, np.exceptions.DTypePromotionError):
            # Incomparable key types (e.g. strings vs numbers) match nothing,
            # matching the behaviour of a hash probe across types.
            positions = np.zeros(left_values.shape[0], dtype=np.int64)
            matched = np.zeros(left_values.shape[0], dtype=bool)
        else:
            positions = np.minimum(positions, unique_keys.shape[0] - 1)
            matched = unique_keys[positions] == left_values

    left_rows = np.nonzero(matched)[0].astype(np.int64)
    right_rows = first_rows[positions[left_rows]].astype(np.int64)

    joined_columns: list[Column] = [c.take(left_rows) for c in left.columns()]
    existing = {c.name for c in joined_columns}
    for column in right.columns():
        if column.name == right_key:
            continue  # the join key is already present via the left table
        name = column.name
        if name in existing:
            if not prefix_right:
                raise SchemaError(f"duplicate column {name!r} after join")
            name = f"{right.name}_{name}"
        joined_columns.append(column.take(right_rows).rename(name))

    joined = Table(f"{left.name}_join_{right.name}", joined_columns)
    return joined, left_rows


def semi_join_mask(left: Table, left_key: str, right: Table, right_key: str) -> np.ndarray:
    """Boolean mask of left rows whose key appears in the right table."""
    right_values = set(
        v.item() if hasattr(v, "item") else v for v in right.column(right_key).values()
    )
    left_values = left.column(left_key).values()
    return np.asarray(
        [(v.item() if hasattr(v, "item") else v) in right_values for v in left_values],
        dtype=bool,
    )
