"""Fig. 6(c): BlinkDB vs. exact execution on the full data.

The paper runs a simple filtered AVG with a GROUP BY on two Conviva subsets
(2.5 TB, which fits the cluster cache, and 7.5 TB, which does not) and
compares Hive-on-Hadoop, Shark without caching, Shark with caching, and
BlinkDB with a 1% error bound.  BlinkDB wins by 10–100× because it reads a
small sample instead of the full data.  This benchmark reprices the same
comparison with the cluster cost model.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from benchmarks.conftest import build_conviva_db
from repro.baselines.full_scan import BaselineEngine, FullScanBaseline
from repro.common.config import ClusterConfig
from repro.common.units import TB

DATA_SIZES = {"2.5TB": int(2.5 * TB), "7.5TB": int(7.5 * TB)}
QUERY = (
    "SELECT AVG(session_time) FROM sessions WHERE dt = 5 "
    "GROUP BY city ERROR WITHIN 1% AT CONFIDENCE 95%"
)
EXACT_QUERY = "SELECT AVG(session_time) FROM sessions WHERE dt = 5 GROUP BY city"


def run_comparison(table):
    cluster = ClusterConfig(num_nodes=100)
    results = {}
    for label, size_bytes in DATA_SIZES.items():
        simulated_rows = size_bytes // table.row_width_bytes
        baseline = FullScanBaseline(table, cluster, simulated_rows=simulated_rows)
        latencies = {
            "hive_on_hadoop": baseline.execute(EXACT_QUERY, BaselineEngine.HIVE_ON_HADOOP).latency_seconds,
            "shark_no_cache": baseline.execute(EXACT_QUERY, BaselineEngine.SHARK_NO_CACHE).latency_seconds,
            "shark_cached": baseline.execute(EXACT_QUERY, BaselineEngine.SHARK_CACHED).latency_seconds,
        }
        db = build_conviva_db(table, simulated_bytes=size_bytes)
        blinkdb_result = db.query(QUERY)
        latencies["blinkdb_1pct_error"] = blinkdb_result.simulated_latency_seconds
        results[label] = latencies
    return results


def test_fig6c_blinkdb_vs_full_scan(conviva_table):
    results = run_comparison(conviva_table)

    print_header("Fig. 6(c) — query response time: full-data engines vs BlinkDB (seconds)")
    rows = []
    for label, latencies in results.items():
        rows.append({"input": label, **{k: round(v, 2) for k, v in latencies.items()}})
    print_table(rows)

    for label, latencies in results.items():
        hive = latencies["hive_on_hadoop"]
        shark_disk = latencies["shark_no_cache"]
        shark_cached = latencies["shark_cached"]
        blinkdb = latencies["blinkdb_1pct_error"]
        # Qualitative shape of the figure:
        # 1. BlinkDB answers in seconds while full scans take minutes-to-hours.
        assert blinkdb < 20.0
        assert hive / blinkdb > 20.0, f"{label}: expected >20x speedup over Hive"
        assert shark_disk / blinkdb > 5.0
        # 2. Hive (MapReduce overheads) is the slowest engine.
        assert hive > shark_disk > shark_cached

    # 3. Caching helps dramatically for the 2.5 TB input (fits in cluster RAM)
    #    but much less for 7.5 TB (spills to disk) — the paper's key point.
    small = results["2.5TB"]
    large = results["7.5TB"]
    small_speedup = small["shark_no_cache"] / small["shark_cached"]
    large_speedup = large["shark_no_cache"] / large["shark_cached"]
    assert small_speedup > 2.0
    assert large_speedup < small_speedup
