"""Streaming ingest: the staleness-vs-batch-size trade-off.

Not a figure from the paper — this guards the ingest subsystem.  Appends
maintain the sample families incrementally, and each append raises a
family's staleness score; the staleness budget claws it back by escalating
to a rebuild.  The sweep appends the same rows in batches of several sizes
and records how far staleness runs before escalation catches it.
Wall-clock append cost is perfbench's ``ingest.append_ms`` /
``storage.append_batch_ms`` (the ``live_ingest`` workload).
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table

BASE_ROWS = 30_000
APPEND_ROWS = 6_000
BATCH_SIZES = [256, 1024, 4096]
STALENESS_BUDGET = 0.15


def build_db() -> BlinkDB:
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=400, min_cap=20, uniform_sample_fraction=0.08),
        cluster=ClusterConfig(num_nodes=20),
        ingest_staleness_budget=STALENESS_BUDGET,
    )
    db = BlinkDB(config)
    table = generate_sessions_table(num_rows=BASE_ROWS, seed=7, num_cities=60, num_countries=20)
    db.load_table(table, simulated_rows=BASE_ROWS * 1000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


def batch_rows(rows: int, seed: int) -> dict[str, list]:
    source = generate_sessions_table(num_rows=rows, seed=seed, num_cities=60, num_countries=20)
    return {name: list(source.column(name).values()) for name in source.column_names}


def bench_staleness_curve() -> list[dict[str, object]]:
    rows = []
    for batch_size in BATCH_SIZES:
        db = build_db()
        peak = 0.0
        for start in range(0, APPEND_ROWS, batch_size):
            report = db.append("sessions", batch_rows(batch_size, seed=900 + start))
            peak = max(peak, report.staleness)
        stats = db.ingest_stats()["sessions"]
        rows.append(
            {
                "batch_rows": batch_size,
                "peak_staleness": round(peak, 4),
                "escalations": stats["escalations"],
                "final_staleness": stats["staleness"],
            }
        )
    return rows


def test_ingest_staleness_curve():
    print_header(f"Streaming ingest: staleness vs batch size (budget {STALENESS_BUDGET})")
    staleness = bench_staleness_curve()
    print_table(staleness)
    # The budget claws staleness back through escalation: nobody finishes
    # above the budget, and every size escalated at least once.
    assert all(row["final_staleness"] <= STALENESS_BUDGET for row in staleness), staleness
    assert all(row["escalations"] >= 1 for row in staleness), staleness


if __name__ == "__main__":
    test_ingest_staleness_curve()
