"""Fig. 6(a): stratified sample families selected on the Conviva workload.

The paper sweeps the storage budget over 50%, 100%, and 200% of the original
table size and reports which sample families the optimizer picks and their
cumulative storage cost.  This benchmark reruns that sweep on the synthetic
Conviva workload and prints the same breakdown.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from benchmarks.conftest import conviva_sampling_config
from repro.optimizer.planner import SampleSelectionPlanner

BUDGETS = (0.5, 1.0, 2.0)


def run_budget_sweep(table, templates):
    planner = SampleSelectionPlanner(table, conviva_sampling_config())
    plans = {}
    for budget in BUDGETS:
        plans[budget] = planner.plan(templates, storage_budget_fraction=budget)
    return plans


def test_fig6a_sample_families_conviva(conviva_table, conviva_templates):
    plans = run_budget_sweep(conviva_table, conviva_templates)

    print_header("Fig. 6(a) — sample families selected (Conviva), by storage budget")
    rows = []
    for budget, plan in plans.items():
        families = " ".join("[" + " ".join(f.columns) + "]" for f in plan.families) or "(uniform only)"
        rows.append(
            {
                "budget_%": int(budget * 100),
                "families": families,
                "actual_storage_%": round(100 * plan.storage_fraction_of(conviva_table.size_bytes), 1),
                "objective": round(plan.objective, 1),
                "optimal": plan.optimal,
            }
        )
    print_table(rows)

    # Shape checks mirroring the figure: the budget is respected, larger
    # budgets buy at least as many families, and the 100%+ budgets include at
    # least one multi-column (multi-dimensional) family.
    for budget, plan in plans.items():
        assert plan.storage_fraction_of(conviva_table.size_bytes) <= budget * 1.01
    family_counts = [len(plans[budget].families) for budget in BUDGETS]
    assert family_counts == sorted(family_counts)
    assert any(len(f.columns) >= 2 for f in plans[2.0].families)
    assert plans[0.5].families, "even the 50% budget should afford some stratified family"
