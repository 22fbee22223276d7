"""Fig. 6(b): stratified sample families selected on the TPC-H workload.

Same sweep as Fig. 6(a) but over the simplified TPC-H lineitem table and the
six query templates the paper maps the 22 TPC-H queries onto.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from benchmarks.conftest import tpch_sampling_config
from repro.optimizer.planner import SampleSelectionPlanner

BUDGETS = (0.5, 1.0, 2.0)


def run_budget_sweep(table, templates):
    planner = SampleSelectionPlanner(table, tpch_sampling_config())
    return {
        budget: planner.plan(templates, storage_budget_fraction=budget) for budget in BUDGETS
    }


def test_fig6b_sample_families_tpch(tpch_table, tpch_templates):
    plans = run_budget_sweep(tpch_table, tpch_templates)

    print_header("Fig. 6(b) — sample families selected (TPC-H), by storage budget")
    rows = []
    for budget, plan in plans.items():
        families = " ".join("[" + " ".join(f.columns) + "]" for f in plan.families) or "(uniform only)"
        rows.append(
            {
                "budget_%": int(budget * 100),
                "families": families,
                "actual_storage_%": round(100 * plan.storage_fraction_of(tpch_table.size_bytes), 1),
                "objective": round(plan.objective, 1),
            }
        )
    print_table(rows)

    for budget, plan in plans.items():
        assert plan.storage_fraction_of(tpch_table.size_bytes) <= budget * 1.01
    family_counts = [len(plans[budget].families) for budget in BUDGETS]
    assert family_counts == sorted(family_counts)
    assert plans[0.5].families
    # The paper's selected families are dominated by the skewed key columns
    # (orderkey/suppkey) and the date pair; check at least one of those shows up.
    chosen = {columns for plan in plans.values() for columns in plan.column_sets}
    interesting = {("orderkey", "suppkey"), ("commitdt", "receiptdt"), ("discount", "shipdate")}
    assert chosen & {tuple(sorted(c)) for c in interesting}
