"""Fig. 7(b): per-template statistical error under a fixed scan budget (TPC-H).

Same comparison as Fig. 7(a) but over the simplified TPC-H lineitem table and
its six query templates; errors are measured on AVG(extendedprice).
"""

from __future__ import annotations

from benchmarks._fig7_common import compare_strategies
from benchmarks._report import print_header, print_table
from benchmarks.conftest import tpch_sampling_config
from repro.baselines.strategies import build_strategies

ROW_BUDGET = 12_000


def run_error_comparison(table, templates):
    strategies = build_strategies(
        table, templates, tpch_sampling_config(), storage_budget_fraction=0.5
    )
    return compare_strategies(strategies, templates, table, "extendedprice", ROW_BUDGET)


def test_fig7b_error_per_template_tpch(tpch_table, tpch_templates):
    rows = run_error_comparison(tpch_table, tpch_templates)

    print_header(
        "Fig. 7(b) — mean per-group error (%) per query template, fixed scan budget (TPC-H)"
    )
    print_table(
        rows,
        columns=["template", "columns", "multi-dimensional", "single-column", "uniform"],
    )

    multi = [row["multi-dimensional"] for row in rows]
    single = [row["single-column"] for row in rows]
    uniform = [row["uniform"] for row in rows]
    assert sum(multi) <= sum(single) * 1.05
    assert sum(multi) <= sum(uniform) * 1.05
    assert all(0 <= value <= 100 for value in multi)
