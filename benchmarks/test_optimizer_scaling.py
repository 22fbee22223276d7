"""§3.2.2: sample-selection solve time as the candidate set grows.

The paper reports that its GLPK-based MILP solves instances with ~10⁶
variables in about 6 seconds, and that candidate column sets are restricted to
subsets of query templates (capped at 3–4 columns) to keep the search space
manageable.  This benchmark grows the template set of the synthetic Conviva
workload and reports how the candidate count and the branch-and-bound solve
time grow.  Solve times are printed, not asserted (perfbench's
``optimizer.milp_s`` is the wall-clock measurement); small instances must be
solved to optimality.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from benchmarks.conftest import conviva_sampling_config
from repro.optimizer.planner import SampleSelectionPlanner
from repro.workloads.conviva import conviva_extended_templates, conviva_query_templates

TEMPLATE_COUNTS = (3, 5, 9, 12, 15)


def run_scaling(table):
    all_templates = conviva_query_templates() + conviva_extended_templates()[5:]
    planner = SampleSelectionPlanner(table, conviva_sampling_config())
    rows = []
    for count in TEMPLATE_COUNTS:
        templates = all_templates[:count]
        candidates = planner.candidate_column_sets(templates)
        plan = planner.plan(templates, storage_budget_fraction=0.5)
        rows.append(
            {
                "templates": count,
                "candidates": len(candidates),
                "families_selected": len(plan.families),
                "solve_seconds": round(plan.solve_seconds, 3),
                "optimal": plan.optimal,
            }
        )
    return rows


def test_optimizer_scaling(conviva_table):
    rows = run_scaling(conviva_table)

    print_header("§3.2.2 — optimizer candidates and solve time vs workload size")
    print_table(rows)

    candidates = [row["candidates"] for row in rows]
    assert candidates == sorted(candidates)
    # Small instances are solved to optimality by branch and bound.
    assert all(row["optimal"] for row in rows if row["candidates"] <= 40)
