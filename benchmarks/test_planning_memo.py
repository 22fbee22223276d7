"""Planning memo: a warm plan runs zero probes.

Not a figure from the paper — this guards the query-planning layer this
reproduction adds (AST -> LogicalPlan -> PhysicalPlan).  Planning includes
predicate canonicalization, fingerprinting, family selection, and — on a
probe-memo miss — executing the query on the smallest resolution of every
family (§4.1.1).  That probing is what makes a cold plan expensive, so the
test counts it rather than timing the host (wall-clock planning time is
perfbench's ``planner.plan_ms`` / ``planner.probes_per_query``).  Per
template:

* a cold plan (the table's memoized probes dropped first) probes the
  smallest resolution of every family when no stratified family covers the
  template's columns, and only the chosen family's (for sizing) when one
  does;
* a warm plan, and a warm end-to-end query, run none: every probe is a
  memo hit.
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

    def probes_run() -> int:
        return selector.probe_cache_stats["probe_cache_misses"]

    rows = []
    for sql in QUERIES:
        logical = LogicalPlan.of(sql)
        selector.invalidate_table(logical.table)
        before = probes_run()
        selection = runtime.explain(logical).selection
        cold = probes_run()
        runtime.explain(logical)
        warm_plan = probes_run()
        db.query(sql)
        warm_query = probes_run()
        rows.append(
            {
                "template": logical.describe()[:48],
                "selection": selection.reason,
                "cold_probes": cold - before,
                "probed_families": len(selection.probes),
                "warm_plan_probes": warm_plan - cold,
                "warm_query_probes": warm_query - warm_plan,
            }
        )
    return rows


def test_warm_plan_runs_no_probes(conviva_db):
    rows = run_planning_sweep(conviva_db)

    print_header(
        "Planning memo — probes run by a cold plan, a warm plan, and a warm "
        "end-to-end query, per template"
    )
    print_table(rows)

    for row in rows:
        assert row["cold_probes"] == max(1, row["probed_families"]), row
        assert row["warm_plan_probes"] == 0, row
        assert row["warm_query_probes"] == 0, row
