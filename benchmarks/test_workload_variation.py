"""§3.2.3: re-solving sample selection under the churn constraint.

When the workload (or data) drifts, BlinkDB re-runs the optimizer with an
extra constraint limiting how much sample storage may be created or discarded
to a fraction ``r`` of the existing sample storage.  This benchmark builds an
initial sample set for the Conviva workload, then re-plans for a shifted
workload with r ∈ {0, 0.2, 0.5, 1.0} and reports the storage churn each
setting allows and the objective value it reaches.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from benchmarks.conftest import conviva_sampling_config
from repro.cluster.simulator import ClusterSimulator
from repro.common.config import ClusterConfig
from repro.sampling.builder import SampleBuilder
from repro.sampling.maintenance import ActionKind, SampleMaintenance
from repro.sql.templates import QueryTemplate, normalize_weights
from repro.storage.catalog import Catalog
from repro.workloads.conviva import conviva_query_templates

CHURN_FRACTIONS = (0.0, 0.2, 0.5, 1.0)


def shifted_workload(table_name: str = "sessions"):
    """A drifted workload: the heavy templates move to new column sets."""
    return normalize_weights(
        [
            QueryTemplate(table_name, ("customer", "dt"), 0.4),
            QueryTemplate(table_name, ("genre", "url"), 0.25),
            QueryTemplate(table_name, ("city", "os"), 0.15),
            QueryTemplate(table_name, ("objectid",), 0.2),
        ]
    )


def run_variation(table):
    config = conviva_sampling_config()
    rows = []
    for churn in CHURN_FRACTIONS:
        catalog = Catalog()
        builder = SampleBuilder(catalog, config, simulator=ClusterSimulator(ClusterConfig(num_nodes=10)))
        manager = SampleMaintenance(catalog, builder, config)
        planner_templates = conviva_query_templates()
        initial_plan, _ = manager.replan(table, planner_templates, churn_fraction=1.0)
        builder.build_from_column_sets(table, [f.columns for f in initial_plan.families])
        existing_storage = sum(f.storage_bytes for f in initial_plan.families)

        plan, actions = manager.replan(table, shifted_workload(), churn_fraction=churn)
        churned = sum(
            action.storage_bytes
            for action in actions
            if action.kind in (ActionKind.CREATE, ActionKind.DROP)
        )
        rows.append(
            {
                "r": churn,
                "existing_storage_MB": round(existing_storage / 2**20, 1),
                "churned_storage_MB": round(churned / 2**20, 1),
                "allowed_churn_MB": round(churn * existing_storage / 2**20, 1),
                "created": sum(1 for a in actions if a.kind is ActionKind.CREATE),
                "dropped": sum(1 for a in actions if a.kind is ActionKind.DROP),
                "objective": round(plan.objective, 1),
            }
        )
    return rows


def test_workload_variation_churn_constraint(conviva_table):
    rows = run_variation(conviva_table)

    print_header("§3.2.3 — re-planning under the churn constraint (r)")
    print_table(rows)

    # 1. The churn constraint is respected: created+dropped storage never
    #    exceeds r × existing storage (small slack for rounding).  r = 1
    #    disables the constraint entirely (§3.2.3), so it is excluded.
    for row in rows:
        if row["r"] < 1.0:
            assert row["churned_storage_MB"] <= row["allowed_churn_MB"] * 1.01 + 0.1

    # 2. r = 0 freezes the sample set entirely.
    frozen = rows[0]
    assert frozen["created"] == 0 and frozen["dropped"] == 0

    # 3. Allowing more churn never hurts the objective for the new workload.
    objectives = [row["objective"] for row in rows]
    assert objectives == sorted(objectives)
