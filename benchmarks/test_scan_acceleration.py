"""Scan acceleration: zone maps + compiled kernels against a mask scan.

Not a figure from the paper — this guards the scan-acceleration layer
(block zone maps, predicate kernel compilation, selection vectors).  Its
speedup comes from blocks the zone maps prove it need not read, so the
test asserts those counters (:class:`~repro.engine.kernels.ScanCounters`)
rather than timing the host; wall-clock engine time is perfbench's
``engine.execute_ms``.  Predicates span the selectivity spectrum over two
layouts of the same rows:

* ``clustered`` — rows sorted by the filtered column (the layout of the
  stratified samples the planner prefers, §3.1): zone maps skip all but the
  boundary blocks of a range predicate;
* ``shuffled`` — the same keys unsorted: every block spans the key range,
  so zone maps can prove nothing and every block is evaluated.

On every workload and layout the kernel answer is bit-identical to the
mask-path reference (``tests/_reference.py``), which evaluates the
predicate over every row.
"""

from __future__ import annotations

import numpy as np

from benchmarks._report import print_header, print_table
from repro.engine.executor import ExecutionContext, QueryExecutor
from repro.engine.kernels import ScanSink
from repro.planner.logical import LogicalPlan
from repro.storage.table import Table
from tests._reference import MaskPathExecutor

ROWS = 200_000
ZONE_BLOCK_ROWS = 4096

#: (label, WHERE clause, rough selectivity) — `key` is uniform on [0, 10000).
WORKLOADS = [
    ("selective", "key BETWEEN 100 AND 109", 0.001),
    ("narrow", "key < 500", 0.05),
    ("half", "key < 5000", 0.5),
    ("broad", "key < 9000 AND value >= 0.0", 0.9),
]


def _make_table(sort: bool) -> Table:
    rng = np.random.default_rng(17)
    key = rng.integers(0, 10_000, ROWS)
    if sort:
        key = np.sort(key)
    return Table.from_dict(
        "scan",
        {
            "key": key.tolist(),
            "value": rng.normal(100.0, 25.0, ROWS).tolist(),
        },
    )


def _run(executor: QueryExecutor, plan: LogicalPlan, table: Table):
    sink = ScanSink()
    result = executor.execute(plan, table, ExecutionContext(exact=True, scan_sink=sink))
    return result.scalar().value, sink.counters


def run_scan_sweep(layout: str, table: Table) -> list[dict]:
    naive = MaskPathExecutor()
    accelerated = QueryExecutor(zone_block_rows=ZONE_BLOCK_ROWS)
    rows = []
    for label, fragment, selectivity in WORKLOADS:
        plan = LogicalPlan.of(f"SELECT SUM(value) FROM scan WHERE {fragment}")
        off_value, off = _run(naive, plan, table)
        on_value, on = _run(accelerated, plan, table)
        rows.append(
            {
                "layout": layout,
                "workload": label,
                "selectivity": selectivity,
                "identical": off_value == on_value,
                "off_rows_skipped": off.rows_skipped,
                "blocks": on.blocks_total,
                "skipped": on.blocks_skipped,
                "take_all": on.blocks_take_all,
                "evaluated": on.blocks_evaluated,
                "skip_fraction": round(on.skip_fraction, 3),
            }
        )
    return rows


def test_scan_acceleration_skips_blocks():
    print_header(
        f"Scan acceleration: zone-map block verdicts, kernels vs mask scan "
        f"({ROWS:,} rows, {ZONE_BLOCK_ROWS}-row blocks)"
    )
    clustered = run_scan_sweep("clustered", _make_table(sort=True))
    shuffled = run_scan_sweep("shuffled", _make_table(sort=False))
    print_table(clustered + shuffled)

    for row in clustered + shuffled:
        assert row["identical"], row
        # The mask path reads every row: the whole win is the kernel path's
        # skipped blocks.
        assert row["off_rows_skipped"] == 0, row
        assert row["skipped"] + row["take_all"] + row["evaluated"] == row["blocks"], row
    for row in clustered:
        # A sorted key range leaves at most its two boundary blocks (plus the
        # blocks the `value` conjunct cannot settle) to per-row evaluation.
        if row["workload"] != "broad":
            assert row["evaluated"] <= 2, row
    selective = next(r for r in clustered if r["workload"] == "selective")
    assert selective["skip_fraction"] >= 0.95, selective
    # Shuffled keys give the zone maps nothing to prove.
    for row in shuffled:
        assert row["skipped"] == 0 and row["evaluated"] == row["blocks"], row


if __name__ == "__main__":
    test_scan_acceleration_skips_blocks()
