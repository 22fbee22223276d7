"""Compressed execution: encoded storage vs raw, same kernels.

Not a figure from the paper — this guards the compressed-execution layer
(per-block RLE / frame-of-reference / packed encodings plus the
never-decode kernels and run-weighted aggregate folds).  Both sides run
with scan acceleration on, so any difference is the encoding layer itself,
not the zone maps.  The layer's speedup comes from predicate rows answered
in the encoded domain, so the test asserts those counters
(``ScanCounters.rows_decode_avoided`` / ``bytes_encoded``) and the resident
footprint rather than timing the host; wall-clock engine time is
perfbench's ``engine.execute_ms``.

Two table layouts:

* ``clustered`` — values arrive in ~512-row runs with several distinct
  labels per 4096-row block, so zone maps can prove little (most blocks
  span much of the key range) but RLE triage evaluates predicates once per
  *run* and the fold aggregates value × run-length.  The layout of the
  φ-sorted samples.  Asserted: **≥ 3x** footprint reduction, and the
  predicate reads at least that many times fewer bytes than raw keys.
* ``shuffled`` — the same value distributions in random row order: keys
  pack to frame-of-reference bytes, float measures stay raw, and answers
  are bit-identical to raw storage.
"""

from __future__ import annotations

import numpy as np

from benchmarks._report import print_header, print_table
from repro.engine.executor import ExecutionContext, QueryExecutor
from repro.engine.kernels import ScanSink
from repro.planner.logical import LogicalPlan
from repro.storage.encodings import encode_table, table_encoding_stats
from repro.storage.table import Table

ROWS = 200_000
BLOCK_ROWS = 4096
RUN_ROWS = 512  # ~8 distinct runs per block: zone maps can't skip, RLE wins

#: Resident bytes of the clustered layout must shrink at least this much,
#: and so must the key bytes its predicates read.
MIN_FOOTPRINT_RATIO = 3.0

#: (label, WHERE clause, rough selectivity) — `key` is uniform on [0, 10000).
#: The selective band sits mid-range so zone maps cannot skip most blocks on
#: either storage: the delta it shows is pure per-row vs per-run work.
WORKLOADS = [
    ("selective", "key BETWEEN 5000 AND 5009", 0.001),
    ("narrow", "key < 500", 0.05),
    ("half", "key < 5000", 0.5),
    ("broad", "key < 9000", 0.9),
]


def _make_table(layout: str) -> Table:
    rng = np.random.default_rng(17)
    if layout == "clustered":
        runs = ROWS // RUN_ROWS
        key = np.repeat(rng.integers(0, 10_000, runs), RUN_ROWS)
        value = np.repeat(np.round(rng.normal(100.0, 25.0, runs), 2), RUN_ROWS)
    else:
        key = rng.integers(0, 10_000, ROWS)
        value = rng.normal(100.0, 25.0, ROWS)
    return Table.from_dict("scan", {"key": key.tolist(), "value": value.tolist()})


def _run(executor: QueryExecutor, plan: LogicalPlan, table: Table):
    sink = ScanSink()
    result = executor.execute(plan, table, ExecutionContext(exact=True, scan_sink=sink))
    return result.scalar().value, sink.counters


def run_compressed_sweep(layout: str) -> tuple[list[dict], dict]:
    raw = _make_table(layout)
    encoded = encode_table(raw, BLOCK_ROWS)
    stats = table_encoding_stats(encoded)
    key_width = raw.column("key").values().dtype.itemsize
    executor = QueryExecutor(zone_block_rows=BLOCK_ROWS)
    rows = []
    for label, fragment, selectivity in WORKLOADS:
        plan = LogicalPlan.of(f"SELECT SUM(value) FROM scan WHERE {fragment}")
        raw_value, raw_scan = _run(executor, plan, raw)
        enc_value, enc_scan = _run(executor, plan, encoded)
        rows.append(
            {
                "layout": layout,
                "workload": label,
                "selectivity": selectivity,
                "raw_value": raw_value,
                "enc_value": enc_value,
                "raw_decode_avoided": raw_scan.rows_decode_avoided,
                "raw_bytes_encoded": raw_scan.bytes_encoded,
                "rows_decode_avoided": enc_scan.rows_decode_avoided,
                "raw_key_bytes": enc_scan.rows_decode_avoided * key_width,
                "bytes_encoded": enc_scan.bytes_encoded,
            }
        )
    return rows, stats


def test_compressed_scan_avoids_decodes():
    print_header(
        f"Compressed execution: encoded vs raw storage, kernels on both "
        f"({ROWS:,} rows, {BLOCK_ROWS}-row blocks, {RUN_ROWS}-row runs)"
    )
    clustered, clustered_stats = run_compressed_sweep("clustered")
    shuffled, shuffled_stats = run_compressed_sweep("shuffled")
    print_table(clustered + shuffled)
    print(
        f"footprint: clustered {clustered_stats['compression_ratio']:.1f}x "
        f"({clustered_stats['encoded_bytes']:,}B of {clustered_stats['raw_bytes']:,}B,"
        f" blocks {clustered_stats['blocks']}); "
        f"shuffled {shuffled_stats['compression_ratio']:.1f}x"
    )

    assert clustered_stats["compression_ratio"] >= MIN_FOOTPRINT_RATIO, (
        f"clustered footprint ratio {clustered_stats['compression_ratio']:.2f}x "
        f"below the {MIN_FOOTPRINT_RATIO}x floor"
    )
    for row in clustered + shuffled:
        # Raw storage decodes nothing because it stores nothing encoded; on
        # encoded storage every predicate runs in the stored domain.
        assert row["raw_decode_avoided"] == 0 and row["raw_bytes_encoded"] == 0, row
        assert row["rows_decode_avoided"] > 0, row
    for row in clustered:
        assert row["bytes_encoded"] * MIN_FOOTPRINT_RATIO <= row["raw_key_bytes"], row
        # The run-weighted fold sums value × run-length: same total, another
        # floating-point association order.
        raw_value = row["raw_value"]
        assert abs(row["enc_value"] - raw_value) <= 1e-9 * max(1.0, abs(raw_value)), row
    for row in shuffled:
        assert row["enc_value"] == row["raw_value"], row


if __name__ == "__main__":
    test_compressed_scan_avoids_decodes()
