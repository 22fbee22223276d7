"""Ablation: exact branch-and-bound vs greedy sample selection.

The paper solves the sample-selection MILP exactly (GLPK).  A natural
simplification is a greedy marginal-gain-per-byte heuristic; this ablation
measures how much objective value the heuristic gives up on the synthetic
Conviva and TPC-H workloads.  Solve times are printed, not asserted;
perfbench's ``optimizer.milp_s`` is the wall-clock measurement.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from benchmarks.conftest import conviva_sampling_config, tpch_sampling_config
from repro.optimizer.candidates import generate_candidates
from repro.optimizer.milp import SampleSelectionProblem
from repro.optimizer.solver import solve_branch_and_bound, solve_greedy
from repro.workloads.conviva import conviva_extended_templates
from repro.workloads.tpch import tpch_query_templates


def run_solver_ablation(conviva_table, tpch_table):
    cases = [
        ("conviva", conviva_table, conviva_extended_templates(), conviva_sampling_config()),
        ("tpch", tpch_table, tpch_query_templates(), tpch_sampling_config()),
    ]
    rows = []
    for name, table, templates, config in cases:
        candidates = generate_candidates(table, templates, config)
        problem = SampleSelectionProblem.build(
            table=table,
            templates=templates,
            candidates=candidates,
            storage_budget_bytes=int(0.4 * table.size_bytes),
            largest_cap=config.effective_cap(table.num_rows),
        )
        greedy = solve_greedy(problem)
        exact = solve_branch_and_bound(problem, time_limit_seconds=30)
        rows.append(
            {
                "workload": name,
                "candidates": problem.num_candidates,
                "greedy_objective": round(greedy.objective, 1),
                "exact_objective": round(exact.objective, 1),
                "greedy_gap_%": round(
                    100 * (1 - greedy.objective / exact.objective) if exact.objective else 0.0, 2
                ),
                "greedy_seconds": round(greedy.solve_seconds, 3),
                "exact_seconds": round(exact.solve_seconds, 3),
                "exact_nodes": exact.nodes_explored,
                "exact_optimal": exact.optimal,
            }
        )
    return rows


def test_ablation_exact_vs_greedy_solver(conviva_table, tpch_table):
    rows = run_solver_ablation(conviva_table, tpch_table)

    print_header("Ablation — greedy vs exact branch-and-bound sample selection")
    print_table(rows)

    for row in rows:
        assert row["exact_objective"] >= row["greedy_objective"] - 1e-9
        assert 0.0 <= row["greedy_gap_%"] <= 50.0
        # Branch and bound finished its search: the objective is the optimum.
        assert row["exact_optimal"], row
