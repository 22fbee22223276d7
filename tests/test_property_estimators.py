"""Property-based tests (hypothesis) for the statistical estimators.

COUNT/SUM/AVG run through one update of their mergeable state
(:func:`_estimates.one_shot`); quantiles through ``estimate_quantile``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.estimation.estimators import estimate_quantile
from repro.estimation.propagation import combine_sum

from _estimates import one_shot

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_weights = st.floats(min_value=1.0, max_value=1e4, allow_nan=False, allow_infinity=False)


def values_and_weights(min_size=1, max_size=60):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=finite_floats),
            arrays(np.float64, n, elements=positive_weights),
        )
    )


class TestCountProperties:
    @given(values_and_weights())
    @settings(max_examples=60, deadline=None)
    def test_count_equals_weight_sum_and_variance_nonnegative(self, data):
        _, weights = data
        estimate = one_shot("count", None, weights, rows_read=len(weights) * 3)
        assert estimate.value == float(np.sum(weights))
        assert estimate.variance >= 0 or math.isinf(estimate.variance)

    @given(values_and_weights())
    @settings(max_examples=40, deadline=None)
    def test_exact_flag_always_zero_width(self, data):
        _, weights = data
        estimate = one_shot("count", None, weights, rows_read=len(weights), exact=True)
        assert estimate.interval(0.99).half_width == 0.0


class TestAvgSumProperties:
    @given(values_and_weights(min_size=2))
    @settings(max_examples=60, deadline=None)
    def test_avg_within_value_range(self, data):
        values, weights = data
        estimate = one_shot("avg", values, weights, rows_read=len(values) * 2)
        assert values.min() - 1e-9 <= estimate.value <= values.max() + 1e-9

    @given(values_and_weights(min_size=2))
    @settings(max_examples=60, deadline=None)
    def test_sum_matches_weighted_dot_product(self, data):
        values, weights = data
        estimate = one_shot("sum", values, weights, rows_read=len(values) * 2)
        assert estimate.value == float(np.sum(values * weights))

    @given(values_and_weights(min_size=2), st.floats(min_value=0.5, max_value=0.99))
    @settings(max_examples=40, deadline=None)
    def test_interval_widens_with_confidence(self, data, confidence):
        values, weights = data
        estimate = one_shot("avg", values, weights, rows_read=len(values) * 2)
        narrow = estimate.interval(confidence * 0.9)
        wide = estimate.interval(confidence)
        if math.isfinite(narrow.half_width) and math.isfinite(wide.half_width):
            assert wide.half_width >= narrow.half_width - 1e-12

    @given(values_and_weights(min_size=2))
    @settings(max_examples=40, deadline=None)
    def test_uniform_weight_scaling_does_not_change_avg(self, data):
        values, _ = data
        a = one_shot("avg", values, np.full(len(values), 2.0), rows_read=len(values) * 2)
        b = one_shot("avg", values, np.full(len(values), 20.0), rows_read=len(values) * 2)
        assert math.isclose(a.value, b.value, rel_tol=1e-9, abs_tol=1e-9)


class TestQuantileProperties:
    @given(values_and_weights(min_size=4), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_quantile_within_range_and_monotone_in_p(self, data, p):
        values, weights = data
        low = estimate_quantile(values, weights, max(0.01, p - 0.04), rows_read=len(values))
        high = estimate_quantile(values, weights, min(0.99, p + 0.04), rows_read=len(values))
        assert values.min() - 1e-9 <= low.value <= values.max() + 1e-9
        assert high.value >= low.value - 1e-9


class TestPropagationProperties:
    @given(st.lists(values_and_weights(min_size=1, max_size=20), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_combine_sum_is_associative_in_value(self, datasets):
        estimates = [
            one_shot("count", None, weights, rows_read=len(weights) * 2) for _, weights in datasets
        ]
        combined = combine_sum(estimates)
        assert combined.value == sum(e.value for e in estimates)
        assert combined.sample_rows == sum(e.sample_rows for e in estimates)
