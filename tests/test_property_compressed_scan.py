"""Property tests for compressed execution (per-block encodings).

The contract being proven, for random tables, predicates, encodings, and
block granularities:

* every encoding round-trips **losslessly** — decode, gather, range
  decode, and slice views reproduce the raw array bitwise;
* the kernel scan over an **encoded** table returns bitwise identical
  estimates and error bars to the mask path over the raw table when the
  aggregate stage gathers decoded values (`_reference.GatherPathExecutor`
  against `_reference.MaskPathExecutor`), and the executor with its
  run-weighted fold stays identical-to-float-rounding (≤1e-9 relative),
  serial and partitioned;
* `AggregateState.update_runs` (the closed-form RLE folds) agrees with
  expanding the runs and calling `update`;
* the 22-predicate kernel sweep of `test_engine_kernels.py` produces the
  same selection vectors on encoded and raw storage;
* encoding metadata is **carried forward** by row-preserving column
  copies (slices stay encoded and share the parent encoding; reordering
  copies decode) — mirroring the PR 5 zone-map carry-forward tests;
* incremental appends reuse complete blocks **by identity** (no rewrite
  of prior generations).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.accumulators import make_state
from repro.engine.executor import ExecutionContext, QueryExecutor
from repro.engine.expressions import evaluate_predicate
from repro.engine.kernels import compile_predicate
from repro.planner.logical import LogicalPlan
from repro.runtime.partitioned import PartitionPipeline
from repro.storage.column import Column
from repro.storage.encodings import (
    EncodedColumn,
    encode_array,
    encode_column,
    encode_table,
    table_encoding_stats,
)
from repro.storage.table import Table

from _reference import GatherPathExecutor, MaskPathExecutor

from test_engine_kernels import PREDICATES, ROWS
from test_engine_kernels import table as _kernel_table_fixture  # noqa: F401

# -- random inputs ------------------------------------------------------------------

_STRINGS = ["s0", "s1", "s2", "s3", "s4", "s5"]

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
    "NOT a < {v}".format,
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
        # Sorting by a low-cardinality column manufactures long runs (the
        # RLE-friendly layout samples have after the φ sort); `None` leaves
        # shuffled data that mostly stays FOR/raw.
        "sort_by": st.sampled_from([None, "a", "g"]),
        "run_length": st.sampled_from([1, 1, 7, 64]),
        "with_nans": st.booleans(),
        "atoms": st.lists(atom_strategy, min_size=0, max_size=3),
        "connector": st.sampled_from([" AND ", " OR "]),
        "aggregate": st.sampled_from(
            ["COUNT(*)", "SUM(x)", "AVG(a)", "COUNT(*), AVG(x), STDDEV(x)"]
        ),
        "group_by": st.booleans(),
        "weighted": st.booleans(),
        "block_rows": st.integers(min_value=1, max_value=64),
        "partitions": st.integers(min_value=1, max_value=8),
    }
)


def _build_case(case):
    """(raw table, encoded table, plan, weights) for one random case."""
    rng = np.random.default_rng(case["seed"])
    rows = case["rows"]
    run = case["run_length"]
    # Tiled values make runs once sorted; raw order still has short bursts.
    a = rng.integers(0, 21, rows)
    a = a[np.argsort(a // max(run, 1), kind="stable")] if run > 1 else a
    x = np.round(rng.normal(10.0, 4.0, rows), 3)
    if case["with_nans"]:
        x[rng.random(rows) < 0.15] = np.nan
    table = Table.from_dict(
        "t",
        {
            "a": a.tolist(),
            "x": x.tolist(),
            "g": [_STRINGS[i] for i in rng.integers(0, len(_STRINGS), rows)],
        },
    )
    if case["sort_by"]:
        table = table.sort_by([case["sort_by"]])
    atoms = [_render_atom(atom) for atom in case["atoms"]]
    predicate = case["connector"].join(atoms)
    sql = f"SELECT {case['aggregate']} FROM t"
    if predicate:
        sql += f" WHERE {predicate}"
    if case["group_by"]:
        sql += " GROUP BY g"
    plan = LogicalPlan.of(sql)
    weights = np.round(rng.uniform(1.0, 5.0, rows), 3) if case["weighted"] else None
    table.zone_map_index(case["block_rows"])
    encoded = encode_table(table, case["block_rows"])
    return table, encoded, plan, weights


def _values(result):
    return {
        group.key: {
            name: (aggregate.estimate.value, aggregate.error_bar)
            for name, aggregate in group.aggregates.items()
        }
        for group in result.groups
    }


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


def _assert_bitwise_equal(naive, encoded):
    assert naive.keys() == encoded.keys()
    for key, aggregates in naive.items():
        for name, (value, error_bar) in aggregates.items():
            other_value, other_error = encoded[key][name]
            assert _same_float(value, other_value), (key, name, value, other_value)
            assert _same_float(error_bar, other_error), (key, name, error_bar, other_error)


def _assert_close(naive, encoded, rel=1e-9):
    assert naive.keys() == encoded.keys()
    for key, aggregates in naive.items():
        for name, (value, error_bar) in aggregates.items():
            other_value, other_error = encoded[key][name]
            assert other_value == pytest.approx(value, rel=rel, abs=1e-12, nan_ok=True)
            assert other_error == pytest.approx(error_bar, rel=rel, abs=1e-9, nan_ok=True)


# -- executor equivalence -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=case_strategy)
def test_encoded_gather_path_is_bitwise_identical(case):
    """encoded storage + gathered aggregates ≡ raw mask path, bitwise."""
    table, encoded, plan, weights = _build_case(case)
    context = ExecutionContext(weights=weights, exact=weights is None)
    naive = MaskPathExecutor()
    accelerated = GatherPathExecutor(zone_block_rows=case["block_rows"])
    result_naive = naive.execute(plan, table, context)
    result_encoded = accelerated.execute(plan, encoded, context)
    assert result_naive.rows_read == result_encoded.rows_read
    _assert_bitwise_equal(_values(result_naive), _values(result_encoded))


@settings(max_examples=60, deadline=None)
@given(case=case_strategy)
def test_encoded_run_fold_matches_naive(case):
    """The executor's run-weighted fold stays within 1e-9."""
    table, encoded, plan, weights = _build_case(case)
    context = ExecutionContext(weights=weights, exact=weights is None)
    naive = MaskPathExecutor()
    folded = QueryExecutor(zone_block_rows=case["block_rows"])
    result_naive = naive.execute(plan, table, context)
    result_folded = folded.execute(plan, encoded, context)
    assert result_naive.rows_read == result_folded.rows_read
    _assert_close(_values(result_naive), _values(result_folded))


@settings(max_examples=40, deadline=None)
@given(case=case_strategy)
def test_partitioned_encoded_execution_matches_naive(case):
    """Partition views stay on the encoded path and agree with naive."""
    table, encoded, plan, weights = _build_case(case)
    context = ExecutionContext(weights=weights, exact=weights is None)
    naive = MaskPathExecutor()
    accelerated = QueryExecutor(zone_block_rows=case["block_rows"])
    kwargs = dict(num_partitions=case["partitions"], sim_workers=2)
    result_naive = PartitionPipeline(naive).run(plan, table, context, **kwargs)
    result_encoded = PartitionPipeline(accelerated).run(plan, encoded, context, **kwargs)
    stats = result_encoded.metadata["partitions"]
    assert stats.complete
    _assert_close(_values(result_naive), _values(result_encoded))


@settings(max_examples=30, deadline=None)
@given(case=case_strategy)
def test_encoded_selection_vector_equals_mask_everywhere(case):
    """Kernels over encoded blocks produce the exact raw selection vector."""
    table, encoded, plan, _ = _build_case(case)
    if plan.where is None:
        return
    kernel = compile_predicate(
        plan.where, encoded, encoded.zone_map_index(case["block_rows"])
    )
    selection = kernel.select_range(encoded, 0, encoded.num_rows)
    expected = np.flatnonzero(evaluate_predicate(plan.where, table))
    assert selection.tolist() == expected.tolist()


# -- the 22-predicate sweep of test_engine_kernels, on encoded storage --------------


@pytest.mark.parametrize("fragment", PREDICATES)
@pytest.mark.parametrize("block_rows", [7, 16, 1000])
def test_kernel_sweep_identical_on_encoded_table(_kernel_table_fixture, fragment, block_rows):
    raw = _kernel_table_fixture
    plan = LogicalPlan.of(f"SELECT COUNT(*) FROM t WHERE {fragment}")
    encoded = encode_table(raw, block_rows)
    kernel = compile_predicate(plan.where, encoded, encoded.zone_map_index(block_rows))
    selection = kernel.select_range(encoded, 0, ROWS)
    expected = np.flatnonzero(evaluate_predicate(plan.where, raw))
    assert selection.tolist() == expected.tolist()


# -- run folds ≡ expanded updates ---------------------------------------------------

runs_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "runs": st.integers(min_value=1, max_value=40),
        "function": st.sampled_from(
            ["count", "sum", "avg", "variance", "stddev", "quantile"]
        ),
        "weighted": st.booleans(),
    }
)


@settings(max_examples=80, deadline=None)
@given(case=runs_strategy)
def test_update_runs_equals_expanded_update(case):
    rng = np.random.default_rng(case["seed"])
    runs = case["runs"]
    values = np.round(rng.normal(5.0, 3.0, runs), 3)
    lengths = rng.integers(1, 9, runs)
    weights = (
        np.round(rng.uniform(1.0, 4.0, runs), 3)
        if case["weighted"]
        else np.ones(runs)
    )
    folded = make_state(case["function"], 0.5)
    expanded = make_state(case["function"], 0.5)
    folded.update_runs(None if case["function"] == "count" else values, lengths, weights)
    expanded.update(
        None if case["function"] == "count" else np.repeat(values, lengths),
        np.repeat(weights, lengths),
    )
    rows = int(lengths.sum())
    got = folded.finalize(rows, float(rows))
    want = expanded.finalize(rows, float(rows))
    assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-12, nan_ok=True)
    assert got.variance == pytest.approx(want.variance, rel=1e-9, abs=1e-12, nan_ok=True)
    assert got.sample_rows == want.sample_rows


# -- encoding losslessness ----------------------------------------------------------

array_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "rows": st.integers(min_value=1, max_value=300),
        "block_rows": st.integers(min_value=1, max_value=64),
        "layout": st.sampled_from(["runs", "narrow", "wide", "floats", "nans"]),
    }
)


def _random_array(case) -> np.ndarray:
    rng = np.random.default_rng(case["seed"])
    rows = case["rows"]
    if case["layout"] == "runs":
        return np.repeat(rng.integers(0, 5, (rows + 7) // 8), 8)[:rows].astype(np.int64)
    if case["layout"] == "narrow":
        return rng.integers(1_000_000, 1_000_200, rows)
    if case["layout"] == "wide":
        return rng.integers(-(2**60), 2**60, rows)
    if case["layout"] == "floats":
        return np.round(rng.normal(0.0, 100.0, rows), 6)
    data = np.round(rng.normal(0.0, 100.0, rows), 6)
    data[rng.random(rows) < 0.3] = np.nan
    return data


@settings(max_examples=80, deadline=None)
@given(case=array_strategy)
def test_encode_roundtrip_is_bitwise_lossless(case):
    data = _random_array(case)
    encoding = encode_array(data, case["block_rows"])
    decoded = encoding.decode()
    np.testing.assert_array_equal(decoded, data)
    assert decoded.dtype == data.dtype
    # Range decodes and unordered gathers agree with plain slicing/indexing.
    rng = np.random.default_rng(case["seed"] + 1)
    rows = data.shape[0]
    start, stop = sorted(rng.integers(0, rows + 1, 2).tolist())
    np.testing.assert_array_equal(encoding.decode_range(start, stop), data[start:stop])
    idx = rng.integers(0, rows, min(rows, 17))
    np.testing.assert_array_equal(encoding.gather(idx), data[idx])
    assert encoding.raw_bytes == data.nbytes


# -- metadata carry-forward (mirrors the PR 5 zone-map carry-forward tests) ---------


def _make_encoded_column(rows: int = 96, block_rows: int = 16) -> EncodedColumn:
    data = np.repeat(np.arange(rows // 8), 8).astype(np.int64)
    column = encode_column(Column.from_values("v", data.tolist()), block_rows)
    assert isinstance(column, EncodedColumn)
    return column


class TestEncodingCarryForward:
    """Row-preserving copies keep the encoding; reordering copies decode."""

    def test_slice_rows_shares_the_parent_encoding(self):
        column = _make_encoded_column()
        view = column.slice_rows(10, 60)
        assert isinstance(view, EncodedColumn)
        assert view.encoding is column.encoding  # shared, not re-encoded
        assert view.offset == 10
        np.testing.assert_array_equal(view.data, column.data[10:60])
        # Nested slices compose offsets against the same encoding.
        nested = view.slice_rows(5, 25)
        assert nested.encoding is column.encoding
        np.testing.assert_array_equal(nested.data, column.data[15:35])

    def test_table_partition_views_stay_encoded(self):
        table = Table.from_dict("t", {"v": np.repeat(np.arange(12), 8).tolist()})
        table.zone_map_index(16)
        encoded = encode_table(table, 16)
        view = encoded.slice_rows(20, 70)
        assert isinstance(view.column("v"), EncodedColumn)
        np.testing.assert_array_equal(view.column("v").data, table.column("v").data[20:70])

    def test_take_and_filter_decode_but_keep_dictionary(self):
        labels = ["AIR", "SHIP", "RAIL"]
        column = encode_column(
            Column.from_codes(
                "m", np.repeat(np.arange(3), 32), np.array(labels, dtype=object)
            ),
            16,
        )
        taken = column.take(np.array([95, 0, 40]))
        assert not isinstance(taken, EncodedColumn)  # reordering drops encoding
        assert taken.dictionary is column.dictionary
        assert taken.values().tolist() == ["RAIL", "AIR", "SHIP"]
        mask = np.zeros(96, dtype=bool)
        mask[[3, 64]] = True
        filtered = column.filter(mask)
        assert filtered.values().tolist() == ["AIR", "RAIL"]

    def test_encode_table_carries_zone_index_without_rebuild(self):
        table = Table.from_dict("t", {"v": list(range(100))})
        index = table.zone_map_index(16)
        encoded = encode_table(table, 16)
        assert encoded.has_zone_map_index(16)
        assert encoded.zone_map_index(16) is index  # carried, not rebuilt


class TestIncrementalAppend:
    def test_append_reuses_complete_blocks_by_identity(self):
        column = _make_encoded_column(rows=100, block_rows=16)  # 6 complete + ragged 4
        before = column.encoding.blocks
        appended = column.append_values(list(range(40)))
        assert isinstance(appended, EncodedColumn)
        after = appended.encoding.blocks
        # The 6 complete blocks survive untouched; only the ragged tail re-encodes.
        assert after[:6] == before[:6]
        assert all(a is b for a, b in zip(after[:6], before[:6]))
        np.testing.assert_array_equal(
            appended.data, np.concatenate([column.data, np.arange(40)])
        )

    def test_appended_table_keeps_compression_stats(self):
        table = Table.from_dict("t", {"v": np.repeat(np.arange(8), 32).tolist()})
        table.zone_map_index(32)
        encoded = encode_table(table, 32)
        grown = encoded.append_batch({"v": [7] * 64})
        stats = table_encoding_stats(grown)
        assert stats is not None
        assert stats["raw_bytes"] == grown.column("v").data.nbytes
        assert stats["encoded_bytes"] < stats["raw_bytes"]
