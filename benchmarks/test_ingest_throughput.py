"""Streaming-ingest benchmark: append throughput, query p95 under ingest,
and the staleness-vs-batch-size trade-off.

Not a figure from the paper — this guards the ingest subsystem (PR 5).  It
measures:

* **append rows/s** across batch sizes (incremental zone-map extension,
  statistics merge, and reservoir maintenance are all O(batch + sample),
  so bigger batches amortise the per-append fixed cost);
* **query p95 while ingesting vs idle** — concurrent analysts must not see
  ingest-sized latency cliffs (appends hold the write lock for O(batch +
  sample) derived-metadata work plus a raw column memcpy);
* **staleness vs batch size** — how far the family staleness score runs
  before the escalation budget claws it back.

Run directly for the full sweep; ``REPRO_BENCH_QUICK=1`` (the CI smoke job)
shrinks the table, batch counts, and analyst run time.
"""

from __future__ import annotations

import os
import threading
import time

from benchmarks._report import print_header, print_table
from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.obs import percentile_of
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
BASE_ROWS = 30_000 if QUICK else 120_000
APPEND_ROWS = 6_000 if QUICK else 24_000
BATCH_SIZES = [256, 1024, 4096] if QUICK else [256, 1024, 4096, 16384]
IDLE_QUERIES = 30 if QUICK else 120
INGEST_QUERY_SECONDS = 2.0 if QUICK else 8.0

#: The ingest path must sustain at least this many rows per second even at
#: the smallest batch size (laptop-scale guard against O(table) appends).
MIN_ROWS_PER_SECOND = 2_000.0
#: Query p95 while ingesting may be at most this multiple of idle p95 — but
#: the idle p95 of a warmed plan is ~1 ms, so the ratio alone is
#: ill-conditioned; an absolute floor keeps the guard meaningful: what must
#: never happen is an ingest-sized latency *cliff* while appends hold the
#: write lock.
MAX_P95_INFLATION = 20.0
P95_ABSOLUTE_FLOOR_SECONDS = 0.25

QUERY = "SELECT AVG(session_time) FROM sessions WHERE country = 'country_0001' GROUP BY os"


def build_db(staleness_budget: float = 10.0) -> BlinkDB:
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=400, min_cap=20, uniform_sample_fraction=0.08),
        cluster=ClusterConfig(num_nodes=20),
        ingest_staleness_budget=staleness_budget,
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


def bench_append_throughput() -> list[dict[str, object]]:
    rows = []
    for batch_size in BATCH_SIZES:
        db = build_db()
        payload = batch_rows(APPEND_ROWS, seed=101)
        batches = [
            {name: values[start:start + batch_size] for name, values in payload.items()}
            for start in range(0, APPEND_ROWS, batch_size)
        ]
        started = time.perf_counter()
        for batch in batches:
            db.append("sessions", batch)
        elapsed = time.perf_counter() - started
        staleness = db.ingest_stats()["sessions"]["staleness"]
        rows.append(
            {
                "batch_rows": batch_size,
                "batches": len(batches),
                "rows_per_s": round(APPEND_ROWS / elapsed, 0),
                "seconds": round(elapsed, 3),
                "final_staleness": staleness,
            }
        )
    return rows


def bench_query_latency_under_ingest() -> dict[str, object]:
    db = build_db()
    # Idle baseline: same query mix, no ingest.  First call warms plans.
    db.query(QUERY)
    idle_latencies = []
    for _ in range(IDLE_QUERIES):
        started = time.perf_counter()
        db.query(QUERY)
        idle_latencies.append(time.perf_counter() - started)

    stop = threading.Event()
    ingest_latencies: list[float] = []

    def analyst() -> None:
        while not stop.is_set():
            started = time.perf_counter()
            db.query(QUERY)
            ingest_latencies.append(time.perf_counter() - started)

    thread = threading.Thread(target=analyst)
    thread.start()
    appended = 0
    seed = 500
    deadline = time.monotonic() + INGEST_QUERY_SECONDS
    try:
        while time.monotonic() < deadline:
            db.append("sessions", batch_rows(1024, seed=seed))
            appended += 1024
            seed += 1
    finally:
        stop.set()
        thread.join(30)

    idle_p95 = percentile_of(idle_latencies, 0.95)
    ingest_p95 = percentile_of(ingest_latencies, 0.95)
    return {
        "idle_p95_ms": round(idle_p95 * 1e3, 2),
        "ingest_p95_ms": round(ingest_p95 * 1e3, 2),
        "inflation": round(ingest_p95 / idle_p95, 2) if idle_p95 > 0 else 0.0,
        "budget_ms": round(max(MAX_P95_INFLATION * idle_p95, P95_ABSOLUTE_FLOOR_SECONDS) * 1e3, 2),
        "queries_during_ingest": len(ingest_latencies),
        "rows_appended": appended,
    }


def bench_staleness_curve() -> list[dict[str, object]]:
    rows = []
    for batch_size in BATCH_SIZES:
        db = build_db(staleness_budget=0.15)
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


def test_ingest_throughput_benchmark():
    print_header("Streaming ingest: append throughput by batch size")
    throughput = bench_append_throughput()
    print_table(throughput)
    assert all(row["rows_per_s"] >= MIN_ROWS_PER_SECOND for row in throughput), throughput

    print_header("Streaming ingest: query p95 while ingesting vs idle")
    latency = bench_query_latency_under_ingest()
    print_table([latency])
    assert latency["queries_during_ingest"] > 0
    assert latency["ingest_p95_ms"] <= latency["budget_ms"], latency

    print_header("Streaming ingest: staleness vs batch size (budget 0.15)")
    staleness = bench_staleness_curve()
    print_table(staleness)
    # The budget claws staleness back through escalation: nobody finishes
    # above the budget, and every size escalated at least once.
    assert all(row["final_staleness"] <= 0.15 for row in staleness), staleness
    assert all(row["escalations"] >= 1 for row in staleness), staleness


if __name__ == "__main__":
    test_ingest_throughput_benchmark()
