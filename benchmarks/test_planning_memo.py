"""Planning memo: a cold plan aggregates once, a warm plan runs nothing.

Not a figure from the paper — this guards the query-planning layer this
reproduction adds (AST -> LogicalPlan -> PhysicalPlan).  Planning includes
predicate canonicalization, fingerprinting, family selection, and — on a
probe-memo miss — counting the query's matching rows on the smallest
resolution of every family and aggregating the query on the winner's
(§4.1.1).  Those passes are what make a cold plan expensive, so the test
counts them rather than timing the host (wall-clock planning time is
perfbench's ``planner.plan_ms`` / ``planner.probes_per_query``).  Per
template:

* a cold plan (the table's memoized counts and probes dropped first) of a
  template no stratified family covers takes one count per family and
  runs one aggregate probe, on the chosen family only; a covered template
  takes one count and one aggregate probe, on the covering family (for
  sizing);
* a warm plan, and a warm end-to-end query, run neither: every count and
  every probe is a memo hit.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from repro.planner.logical import LogicalPlan

QUERIES = [
    "SELECT COUNT(*) FROM sessions WHERE city = 'city_0003' GROUP BY os",
    "SELECT AVG(session_time) FROM sessions WHERE genre = 'g2' AND os = 'os_1'",
    "SELECT SUM(jointimems) FROM sessions WHERE dt = 11 ERROR WITHIN 10% AT CONFIDENCE 95%",
    "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' WITHIN 5 SECONDS",
]


def run_planning_sweep(db):
    runtime = db.runtime
    selector = runtime.selector

    def passes_run() -> tuple[int, int]:
        stats = selector.probe_cache_stats
        return stats["probe_cache_misses"], stats["probe_cache_count_misses"]

    def ran(after: tuple[int, int], before: tuple[int, int]) -> tuple[int, int]:
        return after[0] - before[0], after[1] - before[1]

    rows = []
    for sql in QUERIES:
        logical = LogicalPlan.of(sql)
        selector.invalidate_table(logical.table)
        before = passes_run()
        selection = runtime.explain(logical).selection
        cold = passes_run()
        runtime.explain(logical)
        warm_plan = passes_run()
        db.query(sql)
        warm_query = passes_run()
        cold_probes, cold_counts = ran(cold, before)
        rows.append(
            {
                "template": logical.describe()[:48],
                "selection": selection.reason,
                "probed_families": len(selection.probes),
                "cold_probes": cold_probes,
                "cold_counts": cold_counts,
                "warm_plan_runs": ran(warm_plan, cold),
                "warm_query_runs": ran(warm_query, warm_plan),
            }
        )
    return rows


def test_warm_plan_runs_no_probes(conviva_db):
    rows = run_planning_sweep(conviva_db)

    print_header(
        "Planning memo — aggregate probes and counts run by a cold plan, and "
        "(probes, counts) run by a warm plan and a warm end-to-end query, per template"
    )
    print_table(rows)

    assert any(row["selection"] == "superset-match" for row in rows)
    assert any(row["probed_families"] >= 2 for row in rows)
    for row in rows:
        assert row["cold_probes"] == 1, row
        assert row["cold_counts"] == max(1, row["probed_families"]), row
        assert row["warm_plan_runs"] == (0, 0), row
        assert row["warm_query_runs"] == (0, 0), row
