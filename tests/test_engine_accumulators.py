"""Unit tests for the mergeable partial-aggregation states."""

import math

import numpy as np
import pytest

from repro.engine.accumulators import (
    GroupPartial,
    PartialAggregation,
    QuantileState,
    ValueMoments,
    WeightMoments,
    make_state,
)
from repro.engine.executor import ExecutionContext, QueryExecutor
from repro.estimation.estimators import estimate_quantile
from repro.sql.parser import parse_query
from repro.storage.table import Table

from _estimates import reference_estimate


@pytest.fixture()
def data(rng):
    values = rng.normal(100.0, 25.0, 500)
    weights = rng.uniform(1.0, 30.0, 500)
    return values, weights


def _state_of(name, values, weights, chunks=1, quantile=None):
    state = make_state(name, quantile)
    for v, w in zip(np.array_split(values, chunks), np.array_split(weights, chunks)):
        state.update(v, w)
    return state


class TestValueMoments:
    def test_matches_numpy_single_chunk(self, data):
        values, _ = data
        moments = ValueMoments.from_array(values)
        assert moments.mean == pytest.approx(np.mean(values))
        assert moments.sample_variance == pytest.approx(np.var(values, ddof=1))

    def test_chan_merge_matches_whole(self, data):
        values, _ = data
        merged = ValueMoments()
        for chunk in np.array_split(values, 7):
            merged.merge(ValueMoments.from_array(chunk))
        assert merged.n == len(values)
        assert merged.mean == pytest.approx(np.mean(values), rel=1e-12)
        assert merged.sample_variance == pytest.approx(np.var(values, ddof=1), rel=1e-10)

    def test_empty_merge_is_identity(self):
        moments = ValueMoments.from_array(np.array([1.0, 2.0]))
        moments.merge(ValueMoments())
        assert moments.n == 2

    def test_large_mean_small_spread_is_stable(self):
        # The Welford/Chan form must not cancel catastrophically.
        values = 1e9 + np.linspace(0.0, 1.0, 1000)
        merged = ValueMoments()
        for chunk in np.array_split(values, 10):
            merged.merge(ValueMoments.from_array(chunk))
        assert merged.sample_variance == pytest.approx(np.var(values, ddof=1), rel=1e-6)


class TestWeightMoments:
    def test_uniform_detection(self):
        assert WeightMoments.from_array(np.full(10, 4.0)).uniform()
        assert not WeightMoments.from_array(np.array([1.0, 4.0])).uniform()

    def test_scaled_ht_sum(self):
        weights = np.array([1.0, 3.0, 7.0])
        moments = WeightMoments.from_array(weights)
        c = 2.5
        expected = float(np.sum((c * weights) * (c * weights - 1.0)))
        assert moments.sum_w_w_minus_1(c) == pytest.approx(expected)


class TestStatesMatchEstimators:
    @pytest.mark.parametrize("name", ["count", "sum", "avg", "variance", "stddev"])
    @pytest.mark.parametrize("chunks", [1, 4])
    def test_state_matches_whole_array_estimator(self, data, name, chunks):
        values, weights = data
        rows_read = len(values) * 2
        population_read = float(np.sum(weights)) * 2
        state = _state_of(name, values, weights, chunks)
        got = state.finalize(rows_read, population_read=population_read)
        value, variance = reference_estimate(name, values, weights, rows_read, population_read)
        assert got.value == pytest.approx(value, rel=1e-9)
        assert got.variance == pytest.approx(variance, rel=1e-6)
        assert got.sample_rows == len(values)

    def test_quantile_state_matches_estimator(self, data):
        values, weights = data
        state = _state_of("quantile", values, weights, chunks=5, quantile=0.7)
        got = state.finalize(len(values), None)
        expected = estimate_quantile(values, weights, 0.7, len(values))
        assert got.value == pytest.approx(expected.value, rel=1e-9)
        assert got.variance == pytest.approx(expected.variance, rel=1e-6)

    def test_exact_flag_zeroes_variance(self, data):
        values, weights = data
        for name in ("count", "sum", "avg", "variance", "stddev"):
            state = _state_of(name, values, weights)
            assert state.finalize(len(values), None, exact=True).variance == 0.0

    def test_empty_states(self):
        empty_v, empty_w = np.zeros(0), np.zeros(0)
        count = _state_of("count", empty_v, empty_w)
        assert count.finalize(100, 1000.0).value == 0.0
        assert count.finalize(100, 1000.0).variance > 0
        avg = _state_of("avg", empty_v, empty_w)
        assert math.isnan(avg.finalize(100, None).value)
        assert math.isinf(_state_of("sum", empty_v, empty_w).finalize(100, None).variance)

    def test_single_row_avg_unbounded(self):
        state = _state_of("avg", np.array([5.0]), np.array([2.0]))
        assert math.isinf(state.finalize(10, None).variance)


class TestCoverageScaling:
    """The anytime weight rescale: extensive aggregates scale, intensive don't."""

    def test_count_and_sum_scale_linearly(self, data):
        values, weights = data
        c = 4.0
        count = _state_of("count", values, weights)
        assert count.finalize(len(values), None, weight_scale=c).value == pytest.approx(
            c * float(np.sum(weights))
        )
        total = _state_of("sum", values, weights)
        assert total.finalize(len(values), None, weight_scale=c).value == pytest.approx(
            c * float(np.sum(values * weights))
        )

    def test_ratio_estimators_are_scale_invariant(self, data):
        values, weights = data
        for name in ("avg", "variance", "stddev"):
            state = _state_of(name, values, weights)
            base = state.finalize(len(values), None).value
            scaled = state.finalize(len(values), None, weight_scale=3.0).value
            assert scaled == pytest.approx(base, rel=1e-9)
        q = _state_of("quantile", values, weights, quantile=0.5)
        assert q.finalize(len(values), None, weight_scale=3.0).value == pytest.approx(
            q.finalize(len(values), None).value
        )

    def test_scaled_count_matches_scaled_weight_estimator(self, data):
        # Scaling the state must equal feeding pre-scaled weights directly.
        values, weights = data
        c = 2.5
        state = _state_of("count", values, weights)
        got = state.finalize(800, 1e6, weight_scale=c)
        expected = _state_of("count", values, weights * c).finalize(800, 1e6)
        assert got.value == pytest.approx(expected.value, rel=1e-12)
        assert got.variance == pytest.approx(expected.variance, rel=1e-9)


class TestQuantileSketch:
    def test_compression_keeps_quantiles_close(self, rng):
        values = rng.lognormal(3.0, 1.0, 50_000)
        weights = rng.uniform(1.0, 5.0, 50_000)
        state = QuantileState(0.9, sketch_size=1024)
        for v, w in zip(np.array_split(values, 20), np.array_split(weights, 20)):
            state.update(v, w)
        assert state.compressed
        got = state.finalize(len(values), None).value
        expected = estimate_quantile(values, weights, 0.9, len(values)).value
        assert got == pytest.approx(expected, rel=0.02)

    def test_below_threshold_is_exact(self, rng):
        values = rng.normal(0, 1, 500)
        state = QuantileState(0.5)
        state.update(values, np.ones(500))
        assert not state.compressed
        assert state.finalize(500, None).value == pytest.approx(
            estimate_quantile(values, None, 0.5, 500).value
        )

    def test_compression_preserves_true_sample_count_for_variance(self, rng):
        # The error bar must reflect the real matching-row count, not the
        # centroid count the sketch was compressed to.
        n = 50_000
        values = rng.normal(100.0, 10.0, n)
        state = QuantileState(0.5, sketch_size=1024)
        for chunk in np.array_split(values, 25):
            state.update(chunk, np.ones(chunk.shape[0]))
        assert state.compressed
        got = state.finalize(n, None)
        expected = estimate_quantile(values, None, 0.5, n)
        assert got.sample_rows == n
        assert got.variance == pytest.approx(expected.variance, rel=0.25)


class TestFoldInputGuards:
    @pytest.mark.parametrize("name", ["count", "sum", "avg", "variance", "stddev"])
    def test_length_mismatch_is_rejected_not_broadcast(self, name):
        # numpy would broadcast one weight over three values (SUM 12.0).
        with pytest.raises(ValueError, match="3 values for 1 weights"):
            make_state(name).update(np.array([1.0, 2.0, 3.0]), np.array([2.0]))

    @pytest.mark.parametrize("name", ["count", "sum", "avg", "variance", "stddev"])
    def test_negative_weight_is_rejected(self, name):
        values = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-negative"):
            make_state(name).update(values, np.array([2.0, -1.0, 3.0]))

    def test_count_star_checks_weights_too(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_state("count").update(None, np.array([-0.5]))

    def test_zero_and_empty_weights_still_fold(self):
        state = make_state("sum")
        state.update(np.array([], dtype=np.float64), np.array([], dtype=np.float64))
        state.update(np.array([4.0, 5.0]), np.array([0.0, 2.0]))
        assert state.finalize(rows_read=3, population_read=None).value == 10.0


class TestPartialAggregation:
    def test_merge_rejects_mismatched_group_shapes(self):
        a = PartialAggregation(group_columns=("x",))
        b = PartialAggregation(group_columns=("y",))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_accumulates_scan_totals(self):
        a = PartialAggregation(group_columns=(), rows_scanned=10, weight_scanned=20.0)
        b = PartialAggregation(group_columns=(), rows_scanned=5, weight_scanned=7.0)
        a.merge(b)
        assert a.rows_scanned == 15
        assert a.weight_scanned == 27.0
        assert a.partitions == 2

    def test_group_partial_unit_weight(self):
        group = GroupPartial(key=(), states=[])
        assert not group.unit_weight()  # no rows observed
        group.observe_weights(WeightMoments.from_array(np.ones(4)))
        assert group.unit_weight()
        assert not group.unit_weight(scale=2.0)
        group.observe_weights(WeightMoments.from_array(np.array([3.0])))
        assert not group.unit_weight()


class TestExecutorStages:
    def test_partial_then_finalize_equals_execute(self, rng):
        table = Table.from_dict(
            "t",
            {
                "g": [f"g{i % 3}" for i in range(300)],
                "x": rng.normal(10, 2, 300).tolist(),
            },
        )
        weights = rng.uniform(1, 5, 300)
        query = parse_query("SELECT SUM(x), AVG(x) FROM t GROUP BY g")
        executor = QueryExecutor()
        context = ExecutionContext(weights=weights, rows_read=300)

        whole = executor.execute(query, table, context)
        partials = [
            executor.partial_aggregate_partition(query, p)
            for p in table.partitions(weights=weights, num_partitions=4)
        ]
        merged = partials[0]
        for piece in partials[1:]:
            merged = merged.merge(piece)
        staged = executor.finalize(
            query, merged, context, rows_read=300, population_read=float(np.sum(weights))
        )
        for g_whole, g_staged in zip(whole.groups, staged.groups):
            assert g_whole.key == g_staged.key
            for name in g_whole.aggregates:
                assert g_staged[name].value == pytest.approx(g_whole[name].value, rel=1e-9)
                assert g_staged[name].error_bar == pytest.approx(
                    g_whole[name].error_bar, rel=1e-6
                )

    def test_global_group_present_with_zero_matches(self):
        table = Table.from_dict("t", {"x": [1.0, 2.0]})
        query = parse_query("SELECT COUNT(*) FROM t WHERE x > 100")
        executor = QueryExecutor()
        partial = executor.partial_aggregate(query, table)
        result = executor.finalize(query, partial)
        assert result.scalar().value == 0.0

    def test_partial_coverage_never_exact(self):
        table = Table.from_dict("t", {"x": [1.0] * 10})
        query = parse_query("SELECT COUNT(*) FROM t")
        executor = QueryExecutor()
        partial = executor.partial_aggregate(query, table)
        result = executor.finalize(
            query,
            partial,
            ExecutionContext(exact=True),
            rows_read=10,
            population_read=20.0,
            weight_scale=2.0,
        )
        assert not result.is_exact
        assert result.scalar().value == pytest.approx(20.0)
