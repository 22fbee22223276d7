"""Ablation: nested (non-overlapping) multi-resolution storage vs independent samples.

§3.1 observes that because every smaller sample is a subset of the next larger
one, a family only needs the storage of its largest member, and §4.4 uses the
same nesting to reuse the blocks scanned while probing.  This ablation
quantifies both effects against the naive alternative of drawing each
resolution independently.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from benchmarks.conftest import conviva_sampling_config
from repro.common.units import MB
from repro.sampling.family import StratifiedSampleFamily
from repro.sampling.layout import FamilyLayout


def run_nesting_ablation(table):
    config = conviva_sampling_config()
    rows = []
    for columns in (("city",), ("city", "os"), ("country", "dt")):
        family = StratifiedSampleFamily.build(table, columns, config)
        layout = FamilyLayout.for_family(family, block_bytes=8 * MB)
        nested_bytes = family.storage_bytes
        independent_bytes = family.total_logical_bytes
        probe_blocks = len(layout.blocks_for_resolution(family.smallest))
        full_blocks = len(layout.blocks_for_resolution(family.largest))
        reused_blocks = probe_blocks  # blocks not re-read when escalating (§4.4)
        rows.append(
            {
                "columns": ",".join(columns),
                "resolutions": len(family),
                "nested_storage_MB": round(nested_bytes / 2**20, 1),
                "independent_storage_MB": round(independent_bytes / 2**20, 1),
                "storage_saving_x": round(independent_bytes / nested_bytes, 2),
                "probe_blocks_reused": reused_blocks,
                "full_scan_blocks": full_blocks,
            }
        )
    return rows


def test_ablation_nested_storage(conviva_table):
    rows = run_nesting_ablation(conviva_table)

    print_header("Ablation — nested multi-resolution storage vs independently drawn samples")
    print_table(rows)

    for row in rows:
        # Nesting always saves storage, and the saving approaches the
        # geometric-series bound Σ (1/c)^i ≈ 2 for c = 2.
        assert row["storage_saving_x"] > 1.2
        assert row["storage_saving_x"] < 3.0
        # The probe's blocks are a strict subset of the full-resolution scan.
        assert 0 < row["probe_blocks_reused"] <= row["full_scan_blocks"]
