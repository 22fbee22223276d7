"""Fig. 8(a): actual vs. requested response time.

The paper runs 20 Conviva queries, each with a response-time bound swept from
2 to 10 seconds, and reports the minimum / average / maximum actual response
time per requested bound, showing that BlinkDB reliably picks a sample whose
scan finishes within the bound.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from repro.workloads.conviva import conviva_query_templates
from repro.workloads.tracegen import generate_trace

TIME_BOUNDS = (2.0, 4.0, 6.0, 8.0, 10.0)
NUM_QUERIES = 20


def covered_templates(db, table_name="sessions"):
    """Templates whose column set is covered by a built stratified family.

    The paper draws its 20 queries from the Conviva trace the samples were
    optimized for; the equivalent here is drawing from the templates the
    sample plan actually covers.
    """
    families = list(db.catalog.stratified_families(table_name))
    covered = [
        template
        for template in conviva_query_templates()
        if any(set(template.columns) <= set(columns) for columns in families)
    ]
    return covered or conviva_query_templates()


def run_time_bound_sweep(db, table):
    base_queries = generate_trace(
        covered_templates(db),
        table,
        num_queries=NUM_QUERIES,
        seed=41,
        measure_columns=("session_time", "jointimems"),
    )
    rows = []
    for bound in TIME_BOUNDS:
        latencies = []
        satisfied_latencies = []
        for sql in base_queries:
            result = db.query(f"{sql} WITHIN {bound:g} SECONDS")
            latencies.append(result.simulated_latency_seconds)
            if result.metadata["decision"].bound_satisfied:
                satisfied_latencies.append(result.simulated_latency_seconds)
        rows.append(
            {
                "requested_s": bound,
                "min_actual_s": round(min(latencies), 2),
                "avg_actual_s": round(sum(latencies) / len(latencies), 2),
                "max_actual_s": round(max(latencies), 2),
                "avg_when_accepted_s": round(
                    sum(satisfied_latencies) / len(satisfied_latencies), 2
                )
                if satisfied_latencies
                else None,
                "accepted": f"{len(satisfied_latencies)}/{len(base_queries)}",
            }
        )
    return rows


def test_fig8a_response_time_bounds(conviva_db, conviva_table):
    rows = run_time_bound_sweep(conviva_db, conviva_table)

    print_header("Fig. 8(a) — actual vs requested response time (20 Conviva queries)")
    print_table(rows)

    # Shape checks: whenever BlinkDB accepts a time bound, the average actual
    # latency of those queries stays within it (small modelling slack); the
    # fraction of accepted queries grows with the bound; and at the loosest
    # bound (almost) every query is accepted — together, the Fig. 8(a) claim.
    for row in rows:
        if row["avg_when_accepted_s"] is not None:
            assert row["avg_when_accepted_s"] <= row["requested_s"] * 1.15
    accepted_counts = [int(row["accepted"].split("/")[0]) for row in rows]
    assert accepted_counts == sorted(accepted_counts)
    assert accepted_counts[-1] >= NUM_QUERIES * 0.8
