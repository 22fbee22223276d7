"""Small helpers for printing paper-style result tables from the benchmarks.

Every paper-figure benchmark regenerates the rows/series of one table or
figure of the paper and prints them with these helpers, so that the output
of ``pytest -s benchmarks/test_<figure>.py`` can be compared side by side
with the original in the paper.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> None:
    """Print a list of dict rows as an aligned text table."""
    if not rows:
        print("(no rows)")
        return
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns))


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
