"""Property tests for the scan-acceleration layer.

For random tables, predicates, and block granularities:

* the executor (zone maps + compiled kernels + selection vectors) returns
  **bitwise-identical** estimates and error bars to the mask-path reference
  (:class:`_reference.MaskPathExecutor`) on the serial route, and
  identical-to-merge-rounding results through the partition pipeline;
* zone-map classification is **sound**: a SKIP block contains no matching
  row and a TAKE_ALL block contains only matching rows — no false skips.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import ExecutionContext, QueryExecutor
from repro.engine.expressions import evaluate_predicate
from repro.engine.kernels import compile_predicate
from repro.planner.logical import LogicalPlan
from repro.runtime.partitioned import PartitionPipeline
from repro.storage.table import Table
from repro.storage.zonemaps import ZoneDecision

from _reference import MaskPathExecutor

# -- random inputs ------------------------------------------------------------------

_STRINGS = ["s0", "s1", "s2", "s3", "s4", "s5"]

#: Labels for a `Column.from_codes` column — deliberately NOT in sorted
#: order, because such dictionaries carry arbitrary label order and string
#: range predicates must stay correct anyway.
_CODED_LABELS = ["TRUCK", "AIR", "SHIP", "RAIL", "MAIL"]

_ATOMS = [
    "a = {v}".format,
    "a != {v}".format,
    "a < {v}".format,
    "a >= {v}".format,
    "a BETWEEN {v} AND {w}".format,
    "a IN ({v}, {w})".format,
    "x < {v}.5".format,
    "x >= {v}.25".format,
    "g = 's{u}'".format,
    "g != 's{u}'".format,
    "g < 's{u}'".format,
    "g >= 's{u}'".format,
    "g IN ('s{u}', 's9')".format,
    "NOT a < {v}".format,
    "m < 'RAIL'".format,
    "m >= 'MAIL'".format,
    "m BETWEEN 'AIR' AND 'SHIP'".format,
    "m = 'TRUCK'".format,
]


def _render_atom(spec) -> str:
    index, v, w, u = spec
    return _ATOMS[index](v=min(v, w), w=max(v, w), u=u)


atom_strategy = st.tuples(
    st.sampled_from(range(len(_ATOMS))),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=9),
)

case_strategy = st.fixed_dictionaries(
    {
        "rows": st.integers(min_value=1, max_value=240),
        "seed": st.integers(min_value=0, max_value=2**16),
        "sort_by": st.sampled_from([None, "a", "g"]),
        "atoms": st.lists(atom_strategy, min_size=1, max_size=3),
        "connector": st.sampled_from([" AND ", " OR "]),
        "aggregate": st.sampled_from(["COUNT(*)", "SUM(x)", "COUNT(*), AVG(x)"]),
        "group_by": st.booleans(),
        "weighted": st.booleans(),
        "block_rows": st.integers(min_value=1, max_value=64),
        "partitions": st.integers(min_value=1, max_value=8),
    }
)


def _build_case(case):
    rng = np.random.default_rng(case["seed"])
    rows = case["rows"]
    table = Table.from_dict(
        "t",
        {
            "a": rng.integers(0, 21, rows).tolist(),
            "x": np.round(rng.normal(10.0, 4.0, rows), 3).tolist(),
            "g": [_STRINGS[i] for i in rng.integers(0, len(_STRINGS), rows)],
        },
    )
    from repro.storage.column import Column

    table = table.with_column(
        Column.from_codes(
            "m",
            rng.integers(0, len(_CODED_LABELS), rows),
            np.array(_CODED_LABELS, dtype=object),
        )
    )
    if case["sort_by"]:
        table = table.sort_by([case["sort_by"]])
    predicate = case["connector"].join(_render_atom(a) for a in case["atoms"])
    sql = f"SELECT {case['aggregate']} FROM t WHERE {predicate}"
    if case["group_by"]:
        sql += " GROUP BY g"
    plan = LogicalPlan.of(sql)
    weights = (
        np.round(rng.uniform(1.0, 5.0, rows), 3) if case["weighted"] else None
    )
    return table, plan, weights


def _values(result):
    return {
        group.key: {
            name: (aggregate.estimate.value, aggregate.error_bar)
            for name, aggregate in group.aggregates.items()
        }
        for group in result.groups
    }


def _assert_bitwise_equal(naive, accelerated):
    assert naive.keys() == accelerated.keys()
    for key, aggregates in naive.items():
        for name, (value, error_bar) in aggregates.items():
            other_value, other_error = accelerated[key][name]
            assert _same_float(value, other_value), (key, name, value, other_value)
            assert _same_float(error_bar, other_error), (key, name, error_bar, other_error)


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


def _executors(block_rows: int) -> tuple[QueryExecutor, QueryExecutor]:
    naive = MaskPathExecutor()
    accelerated = QueryExecutor(zone_block_rows=block_rows)
    return naive, accelerated


# -- properties ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=case_strategy)
def test_serial_execution_is_bitwise_identical(case):
    table, plan, weights = _build_case(case)
    context = ExecutionContext(weights=weights, exact=weights is None)
    naive, accelerated = _executors(case["block_rows"])
    result_naive = naive.execute(plan, table, context)
    result_accel = accelerated.execute(plan, table, context)
    assert result_naive.rows_read == result_accel.rows_read
    _assert_bitwise_equal(_values(result_naive), _values(result_accel))


@settings(max_examples=40, deadline=None)
@given(case=case_strategy)
def test_partitioned_execution_matches_naive(case):
    table, plan, weights = _build_case(case)
    context = ExecutionContext(weights=weights, exact=weights is None)
    naive, accelerated = _executors(case["block_rows"])
    kwargs = dict(num_partitions=case["partitions"], sim_workers=2)
    result_naive = PartitionPipeline(naive).run(plan, table, context, **kwargs)
    result_accel = PartitionPipeline(accelerated).run(plan, table, context, **kwargs)

    stats_naive = result_naive.metadata["partitions"]
    stats_accel = result_accel.metadata["partitions"]
    assert stats_naive.complete and stats_accel.complete
    assert stats_naive.num_partitions == stats_accel.num_partitions
    # Skipped partitions count as scanned-for-free coverage.
    assert stats_accel.coverage_row_fraction == pytest.approx(1.0)
    assert stats_accel.coverage_population_fraction == pytest.approx(1.0)

    values_naive = _values(result_naive)
    values_accel = _values(result_accel)
    assert values_naive.keys() == values_accel.keys()
    for key, aggregates in values_naive.items():
        for name, (value, error_bar) in aggregates.items():
            other_value, other_error = values_accel[key][name]
            assert other_value == pytest.approx(value, rel=1e-9, abs=1e-12, nan_ok=True)
            assert other_error == pytest.approx(
                error_bar, rel=1e-9, abs=1e-9, nan_ok=True
            )


@settings(max_examples=60, deadline=None)
@given(case=case_strategy)
def test_zone_classification_is_sound(case):
    table, plan, _ = _build_case(case)
    index = table.zone_map_index(case["block_rows"])
    kernel = compile_predicate(plan.where, table, index)
    mask = evaluate_predicate(plan.where, table)
    for block in index.blocks:
        decision = kernel.classify_block(block.zones)
        window = mask[block.row_start:block.row_end]
        if decision is ZoneDecision.SKIP:
            assert not window.any(), "false skip: a matching row was classified away"
        elif decision is ZoneDecision.TAKE_ALL:
            assert window.all(), "false take-all: a non-matching row was included"


@settings(max_examples=30, deadline=None)
@given(case=case_strategy)
def test_selection_vector_equals_mask_everywhere(case):
    table, plan, _ = _build_case(case)
    kernel = compile_predicate(
        plan.where, table, table.zone_map_index(case["block_rows"])
    )
    selection = kernel.select_range(table, 0, table.num_rows)
    expected = np.flatnonzero(evaluate_predicate(plan.where, table))
    assert selection.tolist() == expected.tolist()


@settings(max_examples=20, deadline=None)
@given(case=case_strategy, deadline_fraction=st.floats(min_value=0.1, max_value=1.0))
def test_deadline_cuts_stay_sound_with_skipping(case, deadline_fraction):
    """Anytime cuts on the skip-aware schedule still produce valid coverage."""
    table, plan, weights = _build_case(case)
    context = ExecutionContext(weights=weights, exact=weights is None)
    _, accelerated = _executors(case["block_rows"])
    result = PartitionPipeline(accelerated).run(
        plan,
        table,
        context,
        num_partitions=case["partitions"],
        sim_workers=2,
        scan_latency_seconds=1.0,
        deadline_seconds=deadline_fraction,
    )
    stats = result.metadata["partitions"]
    assert 1 <= stats.merged_partitions <= stats.num_partitions
    assert 0.0 < stats.coverage_row_fraction <= 1.0
    # Fully-skipped partitions complete at t=0 and are always merged.
    for timing in stats.timings:
        if timing.skipped:
            assert timing.merged
            assert timing.completion_seconds == 0.0
            assert timing.lane == -1
