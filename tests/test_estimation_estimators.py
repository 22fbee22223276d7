"""Tests for the weighted estimators and uncertainty propagation.

COUNT/SUM/AVG/VARIANCE/STDDEV are estimated through one update of their
mergeable state (:func:`_estimates.one_shot`); quantiles through
:func:`~repro.estimation.estimators.estimate_quantile`.
"""

import math

import numpy as np
import pytest

from repro.engine.accumulators import make_state
from repro.estimation.estimators import Estimate, estimate_quantile
from repro.estimation.propagation import combine_sum

from _estimates import one_shot


@pytest.fixture()
def skewed_values(rng):
    return rng.lognormal(3.0, 1.0, size=2_000)


class TestCount:
    def test_uniform_weights_estimate(self):
        weights = np.full(40, 25.0)  # a 4% sample with 40 matching rows
        estimate = one_shot("count", None, weights, rows_read=1000, population_read=25_000)
        assert estimate.value == pytest.approx(1000.0)
        assert estimate.variance > 0
        assert estimate.sample_rows == 40

    def test_exact_flag_zeroes_variance(self):
        estimate = one_shot("count", None, np.ones(10), rows_read=10, exact=True)
        assert estimate.value == 10
        assert estimate.variance == 0.0
        assert estimate.interval().half_width == 0.0

    def test_zero_matching_rows(self):
        estimate = one_shot("count", None, np.zeros(0), rows_read=100, population_read=1000)
        assert estimate.value == 0.0
        assert estimate.variance > 0

    def test_heterogeneous_weights_use_ht_variance(self):
        weights = np.array([1.0, 1.0, 10.0, 10.0, 10.0])
        estimate = one_shot("count", None, weights, rows_read=100, population_read=500)
        assert estimate.value == pytest.approx(32.0)
        assert estimate.variance > 0


class TestSumAvg:
    def test_sum_scales_by_weights(self):
        values = np.array([2.0, 4.0, 6.0])
        estimate = one_shot("sum", values, np.full(3, 10.0), rows_read=30, population_read=300)
        assert estimate.value == pytest.approx(120.0)

    def test_avg_weighted_mean(self):
        values = np.array([1.0, 3.0])
        weights = np.array([3.0, 1.0])
        estimate = one_shot("avg", values, weights, rows_read=10)
        assert estimate.value == pytest.approx(1.5)

    def test_avg_uniform_weights_variance_matches_table2(self):
        values = np.arange(1, 101, dtype=float)
        estimate = one_shot("avg", values, np.full(100, 5.0), rows_read=500)
        assert estimate.variance == pytest.approx(values.var(ddof=1) / 100, rel=1e-6)

    def test_avg_of_empty_is_nan(self):
        estimate = one_shot("avg", np.zeros(0), None, rows_read=10)
        assert math.isnan(estimate.value)

    def test_single_row_avg_has_unbounded_error(self):
        estimate = one_shot("avg", np.array([5.0]), np.array([2.0]), rows_read=10)
        assert math.isinf(estimate.variance)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            estimate_quantile(np.array([1.0]), np.array([-2.0]), 0.5, rows_read=10)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_quantile(np.array([1.0, 2.0]), np.array([1.0]), 0.5, rows_read=10)


class TestUnbiasedness:
    """Repeated weighted estimates should centre on the true population value."""

    def test_stratified_count_is_unbiased(self, rng):
        # Population: one huge stratum (9000 rows) and one small (1000 rows).
        cap = 200
        estimates = []
        for _ in range(150):
            big_rows = rng.choice(9000, cap, replace=False)
            weights = np.concatenate([np.full(cap, 9000 / cap), np.ones(1000)])
            del big_rows
            estimates.append(one_shot("count", None, weights, rows_read=cap + 1000).value)
        assert np.mean(estimates) == pytest.approx(10_000, rel=1e-9)

    def test_uniform_avg_is_unbiased(self, rng, skewed_values):
        true_mean = skewed_values.mean()
        n = 200
        estimates = []
        for _ in range(200):
            sample = rng.choice(skewed_values, n, replace=False)
            estimates.append(one_shot("avg", sample, np.full(n, 10.0), rows_read=n).value)
        assert np.mean(estimates) == pytest.approx(true_mean, rel=0.05)

    def test_avg_confidence_interval_coverage(self, rng, skewed_values):
        true_mean = skewed_values.mean()
        n = 300
        covered = 0
        trials = 200
        for _ in range(trials):
            sample = rng.choice(skewed_values, n, replace=False)
            interval = one_shot("avg", sample, None, rows_read=n).interval(0.95)
            covered += interval.contains(true_mean)
        assert covered / trials >= 0.85  # should be ~0.95; allow slack for skew


class TestQuantile:
    def test_median_of_uniform_values(self, rng):
        values = rng.random(5_001)
        estimate = estimate_quantile(values, None, 0.5, rows_read=5_001)
        assert estimate.value == pytest.approx(0.5, abs=0.03)
        assert 0 < estimate.variance < 0.01

    def test_quantile_invalid_p(self):
        with pytest.raises(ValueError):
            estimate_quantile(np.array([1.0]), None, 1.5, rows_read=1)

    def test_weighted_quantile_shifts_with_weights(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        heavy_tail = np.array([1.0, 1.0, 1.0, 10.0])
        unweighted = estimate_quantile(values, None, 0.5, rows_read=4).value
        weighted = estimate_quantile(values, heavy_tail, 0.5, rows_read=4).value
        assert weighted > unweighted

    def test_degenerate_distribution_has_zero_variance(self):
        values = np.full(100, 7.0)
        estimate = estimate_quantile(values, None, 0.5, rows_read=100)
        assert estimate.value == 7.0
        assert estimate.variance == 0.0


class TestStddevVariance:
    def test_stddev_estimate(self, rng):
        values = rng.normal(0, 3.0, size=4_000)
        estimate = one_shot("stddev", values, None, rows_read=4_000)
        assert estimate.value == pytest.approx(3.0, rel=0.05)

    def test_variance_estimate(self, rng):
        values = rng.normal(0, 2.0, size=4_000)
        estimate = one_shot("variance", values, None, rows_read=4_000)
        assert estimate.value == pytest.approx(4.0, rel=0.1)

    def test_too_few_rows(self):
        assert math.isnan(one_shot("variance", np.array([1.0]), None, rows_read=1).value)


class TestDispatch:
    def test_estimate_aggregate_dispatch(self):
        values = np.array([1.0, 2.0, 3.0])
        assert one_shot("avg", values, None, 3).value == pytest.approx(2.0)
        assert one_shot("sum", values, None, 3).value == pytest.approx(6.0)
        assert one_shot("count", None, np.ones(3), 3).value == 3.0
        assert one_shot("quantile", values, None, 3).value == pytest.approx(2.0)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            make_state("mode")


class TestPropagation:
    def test_combine_sum_adds_values_and_variances(self):
        a = one_shot("count", None, np.full(10, 2.0), rows_read=20, population_read=40)
        b = one_shot("count", None, np.full(5, 2.0), rows_read=20, population_read=40)
        combined = combine_sum([a, b])
        assert combined.value == pytest.approx(a.value + b.value)
        assert combined.variance == pytest.approx(a.variance + b.variance)

    def test_combine_sum_keeps_an_unbounded_branch_unbounded(self):
        bounded = one_shot("sum", np.arange(1.0, 11.0), np.full(10, 2.0), rows_read=20, population_read=40)
        unbounded = one_shot("sum", np.zeros(0), np.zeros(0), rows_read=20, population_read=40)
        assert math.isinf(unbounded.variance)
        combined = combine_sum([bounded, unbounded])
        assert combined.value == pytest.approx(bounded.value)
        assert math.isinf(combined.variance)
        assert combined.sample_rows == bounded.sample_rows
        assert combined.rows_read == 40

    def test_combine_sum_population_known_only_when_every_branch_knows_it(self):
        a = one_shot("count", None, np.full(10, 2.0), rows_read=20, population_read=40)
        b = one_shot("count", None, np.full(5, 2.0), rows_read=20, population_read=40)
        assert combine_sum([a, b]).population_rows == pytest.approx(
            a.population_rows + b.population_rows
        )
        unknown = Estimate(1.0, 0.5, sample_rows=3, rows_read=3)
        assert combine_sum([a, unknown]).population_rows is None

    def test_combine_sum_requires_estimates(self):
        with pytest.raises(ValueError):
            combine_sum([])

    def test_exact_estimates_stay_exact(self):
        a = one_shot("count", None, np.ones(5), rows_read=5, exact=True)
        b = one_shot("count", None, np.ones(3), rows_read=3, exact=True)
        assert combine_sum([a, b]).exact
