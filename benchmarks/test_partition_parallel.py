"""Partition-parallel execution: simulated speedup, backends, anytime answers.

Not a figure from the paper — this benchmark measures the partition pipeline
this reproduction adds (ROADMAP: "fast as the hardware allows").  Three
sections:

* **Simulated speedup (cluster model)** — one large-table aggregate executed
  through the partition pipeline at several *simulated* per-query worker
  counts (``reference_workers=1`` prices the query's serial scan work, so
  the worker sweep shows how partition fan-out divides it; per-task startup
  overhead and deterministic stragglers are included, which is why the
  scaling is sublinear).  These numbers model the paper's 100-node cluster;
  they say nothing about this host's cores.
* **Backends (this host)** — the same partial-aggregation stage run serial,
  on GIL-bound threads, and on the process backend (spawned workers over
  one shared-memory export, shipping only serialized partial states).
  Answers are asserted bit-identical across all three, and the process
  backend's shipped bytes are bounded by groups × aggregates, never rows.
  Its wall-clock speed on this host is not asserted here.
* **Anytime error vs. deadline** — the same query under progressively
  tighter ``WITHIN`` bounds.  Bounds no resolution can satisfy trigger the
  anytime path: the query stops at its deadline, merges the partitions that
  finished, and reports a partial-coverage estimate with widened error bars
  instead of blocking past the bound.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from benchmarks._report import print_header, print_table
from repro.common.rng import make_rng
from repro.engine.executor import QueryExecutor
from repro.engine.kernels import ScanSink
from repro.runtime.procpool import ProcessPartitionPool
from repro.sql.parser import parse_query
from repro.storage.table import Table

WORKER_COUNTS = (1, 2, 4, 8, 16)
NUM_PARTITIONS = 32

#: Backend section: one partial-aggregation stage over a synthetic table;
#: workers match the host (capped).
BACKEND_ROWS = 200_000
BACKEND_PARTITIONS = 16
BACKEND_WORKERS = max(2, min(8, os.cpu_count() or 1))
BACKEND_SQL = (
    "SELECT COUNT(*), SUM(x), AVG(x), VARIANCE(x), STDDEV(y) "
    "FROM wide WHERE f < 7 GROUP BY g"
)
#: Simulated-clock deadlines for the anytime sweep (seconds).  The tightest
#: are far below what any sample can satisfy on the 17 TB simulated table,
#: so they exercise the partial-coverage path; the loosest is satisfiable.
DEADLINES = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

SPEEDUP_SQL = "SELECT SUM(session_time), AVG(session_time) FROM sessions WHERE dt = 5"
ANYTIME_SQL = "SELECT COUNT(*) FROM sessions WHERE dt = 5"


def run_worker_sweep(db):
    rows = []
    for workers in WORKER_COUNTS:
        result = db.runtime.execute_partitioned(
            SPEEDUP_SQL,
            num_partitions=NUM_PARTITIONS,
            sim_workers=workers,
            reference_workers=1,
        )
        stats = result.metadata["partitions"]
        rows.append(
            {
                "sim_workers": workers,
                "partitions": stats.num_partitions,
                "makespan_s": round(stats.makespan_seconds, 3),
                "sum": round(result.scalar("sum_session_time").value, 1),
            }
        )
    return rows


def _backend_table() -> tuple[Table, np.ndarray]:
    rng = make_rng(101)
    table = Table.from_dict(
        "wide",
        {
            "g": [f"g{i}" for i in rng.integers(0, 8, BACKEND_ROWS)],
            "x": rng.lognormal(2.0, 0.7, BACKEND_ROWS).tolist(),
            "y": rng.normal(50.0, 12.0, BACKEND_ROWS).tolist(),
            "f": rng.integers(0, 10, BACKEND_ROWS).tolist(),
        },
    )
    weights = np.where(rng.random(BACKEND_ROWS) < 0.5, 1.0, rng.uniform(2.0, 20.0, BACKEND_ROWS))
    return table, weights


def _finalize(executor, query, partials, table, weights):
    merged = partials[0]
    for piece in partials[1:]:
        merged = merged.merge(piece)
    return executor.finalize(
        query,
        merged,
        None,
        rows_read=table.num_rows,
        population_read=float(np.sum(weights)),
    )


def run_backend_sweep():
    """Serial vs. threads vs. processes over one shared partial-agg stage."""
    table, weights = _backend_table()
    query = parse_query(BACKEND_SQL)
    executor = QueryExecutor()
    partitions = table.partitions(weights=weights, num_partitions=BACKEND_PARTITIONS)

    def serial():
        return [executor.partial_aggregate_partition(query, p) for p in partitions]

    def threaded():
        with ThreadPoolExecutor(max_workers=BACKEND_WORKERS) as pool:
            return list(
                pool.map(
                    lambda p: executor.partial_aggregate_partition(query, p),
                    partitions,
                )
            )

    pool = ProcessPartitionPool(max_workers=BACKEND_WORKERS)
    shipped_bytes = 0
    try:
        warmed = pool.warm()
        epoch = pool.new_epoch()
        handle = pool.ensure_export(epoch, "wide", table, weights) if warmed else None

        def processes():
            return pool.map_partitions(
                query, partitions, epoch=epoch, key="wide", table=table,
                weights=weights, sink=ScanSink(),
            )[0]

        backends = [("serial", serial), ("threads", threaded)]
        if handle is not None:
            backends.append(("processes", processes))
        answers = {}
        for name, run in backends:
            partials = run()
            assert partials is not None, f"{name} backend declined"
            answers[name] = _finalize(executor, query, partials, table, weights)
        shipped_bytes = pool.stats()["bytes_shipped_last_query"]
        pool.release_epoch(epoch)
    finally:
        pool.close()

    # Bit-identical answers across every backend, always — values AND bars.
    reference = answers["serial"]
    ref_groups = {g.key: g for g in reference}
    rows = []
    for name, result in answers.items():
        for group in result:
            for fn in group.aggregates:
                assert group[fn].value == ref_groups[group.key][fn].value, (name, fn)
                assert (
                    group[fn].interval.half_width
                    == ref_groups[group.key][fn].interval.half_width
                ), (name, fn)
        rows.append(
            {
                "backend": name,
                "workers": 1 if name == "serial" else BACKEND_WORKERS,
                "groups": len(result.groups),
            }
        )
    return rows, shipped_bytes


def run_anytime_sweep(db):
    rows = []
    for deadline in DEADLINES:
        result = db.query(f"{ANYTIME_SQL} WITHIN {deadline:g} SECONDS")
        decision = result.metadata["decision"]
        estimate = result.scalar()
        stats = result.metadata.get("partitions")
        rows.append(
            {
                "deadline_s": deadline,
                "anytime": decision.anytime,
                "coverage": round(decision.coverage_fraction, 3),
                "merged": (
                    f"{stats.merged_partitions}/{stats.num_partitions}"
                    if stats is not None
                    else "-"
                ),
                "latency_s": round(result.simulated_latency_seconds, 3),
                "value": round(estimate.value, 1),
                "error_bar": round(estimate.error_bar, 1),
                "sample": result.sample_name,
            }
        )
    return rows


def test_partition_parallel(conviva_db):
    worker_rows = run_worker_sweep(conviva_db)
    backend_rows, shipped_bytes = run_backend_sweep()
    anytime_rows = run_anytime_sweep(conviva_db)

    print_header(
        f"SIMULATED speedup (cluster model) — {NUM_PARTITIONS} partitions, "
        "serial-work cost basis (reference_workers=1), stragglers + task "
        "overhead included; models the paper's cluster, not this host"
    )
    print_table(worker_rows)
    print_header(
        f"Backends (this host) — {BACKEND_ROWS} rows, {BACKEND_PARTITIONS} "
        f"partitions, {BACKEND_WORKERS} workers, answers bit-identical; "
        f"partial states shipped by the process backend: {shipped_bytes} bytes"
    )
    print_table(backend_rows)
    print_header("Anytime answers — error and coverage vs. WITHIN deadline")
    print_table(anytime_rows)

    by_workers = {row["sim_workers"]: row for row in worker_rows}
    # Every worker count computes the same estimate (merge is exact).
    assert len({row["sum"] for row in worker_rows}) == 1
    # Acceptance: >1.5x simulated speedup at 4 workers vs. the 1-worker path.
    speedup = by_workers[1]["makespan_s"] / by_workers[4]["makespan_s"]
    assert speedup > 1.5, f"4-worker speedup {speedup:.2f}x"
    # Makespan decreases monotonically with workers.
    makespans = [row["makespan_s"] for row in worker_rows]
    assert makespans == sorted(makespans, reverse=True)

    # Bit-identity is asserted inside the backend sweep.
    if any(row["backend"] == "processes" for row in backend_rows):
        # Shipped bytes are O(groups × aggregates) per partial, never O(rows):
        # 8 groups × 5 scalar states per partial, with generous framing slack.
        assert 0 < shipped_bytes < BACKEND_PARTITIONS * 8 * 5 * 512
        assert shipped_bytes < BACKEND_ROWS  # orders of magnitude under row data

    # Acceptance: a tight WITHIN bound returns a partial-coverage estimate
    # instead of blocking past its deadline.
    tightest = anytime_rows[0]
    assert tightest["anytime"]
    assert tightest["coverage"] < 1.0
    for row in anytime_rows:
        assert row["latency_s"] <= row["deadline_s"] * 1.05
    # Coverage grows monotonically as the deadline loosens.
    coverages = [row["coverage"] for row in anytime_rows]
    assert coverages == sorted(coverages)
    # The tightest (least-covered) answer is the least certain one.
    full_rows = [row for row in anytime_rows if not row["anytime"]]
    assert full_rows, "the loosest deadline should be satisfiable"
    assert tightest["error_bar"] > max(row["error_bar"] for row in full_rows)
