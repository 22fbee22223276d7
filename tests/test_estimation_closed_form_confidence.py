"""Tests for the Table-2 closed forms and confidence-interval helpers."""

import math

import numpy as np
import pytest

from repro.estimation.closed_form import (
    avg_variance,
    count_variance,
    quantile_variance,
    stddev_variance,
    sum_variance,
    variance_of_sample_variance,
)
from repro.engine.result import AggregateValue
from repro.estimation.confidence import confidence_interval, z_score
from repro.estimation.estimators import Estimate


class TestClosedForms:
    def test_avg_variance_is_s2_over_n(self):
        assert avg_variance(4.0, 100) == pytest.approx(0.04)

    def test_avg_variance_infinite_for_empty_sample(self):
        assert math.isinf(avg_variance(4.0, 0))

    def test_count_variance_formula(self):
        # (N^2 / n) * c(1-c)
        assert count_variance(1000, 100, 0.5) == pytest.approx(1000**2 / 100 * 0.25)

    def test_count_variance_zero_at_extreme_selectivity(self):
        assert count_variance(1000, 100, 0.0) == 0.0
        assert count_variance(1000, 100, 1.0) == 0.0

    def test_sum_variance_reduces_to_table2_for_small_mean(self):
        table2 = 1000**2 * (4.0 / 100) * 0.5
        assert sum_variance(1000, 100, 4.0, 0.5, mean_value=0.0) == pytest.approx(table2 * 0.5 / 0.5 * 0.5, rel=1.0)
        # The exact Table-2 expression is recovered when the mean term vanishes.
        assert sum_variance(1000, 100, 4.0, 0.5, mean_value=0.0) == pytest.approx(
            (1000**2 / 100) * 0.5 * 4.0
        )

    def test_sum_variance_grows_with_mean(self):
        low = sum_variance(1000, 100, 4.0, 0.5, mean_value=0.0)
        high = sum_variance(1000, 100, 4.0, 0.5, mean_value=10.0)
        assert high > low

    def test_quantile_variance_formula(self):
        assert quantile_variance(100, 0.5, 2.0) == pytest.approx(0.25 / (100 * 4.0))

    def test_quantile_variance_invalid_p(self):
        with pytest.raises(ValueError):
            quantile_variance(100, 1.5, 1.0)

    def test_all_variances_shrink_as_one_over_n(self):
        for formula in (
            lambda n: avg_variance(4.0, n),
            lambda n: count_variance(1000, n, 0.3),
            lambda n: sum_variance(1000, n, 4.0, 0.3, 2.0),
            lambda n: quantile_variance(n, 0.5, 1.0),
        ):
            assert formula(400) == pytest.approx(formula(100) / 4)

    def test_extension_formulas(self):
        assert stddev_variance(4.0, 101) == pytest.approx(4.0 / 200)
        assert variance_of_sample_variance(4.0, 101) == pytest.approx(2 * 16 / 100)
        assert math.isinf(stddev_variance(4.0, 1))


class TestConfidence:
    def test_z_score_standard_values(self):
        assert z_score(0.95) == pytest.approx(1.96, abs=0.01)
        assert z_score(0.99) == pytest.approx(2.576, abs=0.01)

    def test_z_score_invalid(self):
        with pytest.raises(ValueError):
            z_score(1.0)

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99, 0.999, np.float64(0.95)])
    def test_z_score_is_exactly_the_normal_quantile(self, confidence, empty_z_memo):
        from scipy import stats

        expected = float(stats.norm.ppf(0.5 + confidence / 2.0))
        # The first call computes, the repeat is served by the memo: both
        # must be the very float ``ppf`` returns.
        assert z_score(confidence) == expected
        assert z_score(confidence) == expected
        assert type(z_score(confidence)) is float

    @pytest.fixture
    def empty_z_memo(self):
        """An empty ``z_score`` memo, whatever ran before; emptied again after."""
        z_score.cache_clear()
        yield
        z_score.cache_clear()

    def test_z_score_computes_each_level_once(self, monkeypatch, empty_z_memo):
        import types

        from scipy import stats

        from repro.estimation import confidence as confidence_module

        calls = []

        def ppf(q):
            calls.append(q)
            return stats.norm.ppf(q)

        monkeypatch.setattr(
            confidence_module, "stats", types.SimpleNamespace(norm=types.SimpleNamespace(ppf=ppf))
        )
        level = 0.95
        first = z_score(level)
        assert z_score(level) == first
        assert len(calls) == 1

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, math.nan])
    def test_z_score_invalid_raises_on_every_call(self, confidence, empty_z_memo):
        for _ in range(2):
            with pytest.raises(ValueError):
                z_score(confidence)

    def test_confidence_interval_width(self):
        ci = confidence_interval(100.0, 25.0, 0.95)
        assert ci.half_width == pytest.approx(1.96 * 5, abs=0.05)
        assert ci.low < 100 < ci.high
        assert ci.contains(100)
        assert ci.relative_half_width == pytest.approx(ci.half_width / 100)

    def test_zero_estimate_relative_error(self):
        ci = confidence_interval(0.0, 1.0)
        assert math.isinf(ci.relative_half_width)

    def test_reported_relative_error_is_z_sigma_over_estimate(self):
        # What a query reports, and the probe's error extrapolates, is
        # z·σ / |estimate|, whatever the sign of the estimate.
        for value in (100.0, -100.0):
            reported = AggregateValue("sum", Estimate(value, 25.0, sample_rows=10, rows_read=10))
            assert reported.relative_error == pytest.approx(1.96 * 5 / 100, abs=1e-3)


class TestFormulaAgainstMonteCarlo:
    """The closed forms should match the empirical spread of repeated sampling."""

    def test_avg_variance_matches_simulation(self):
        rng = np.random.default_rng(0)
        population = rng.exponential(10.0, size=50_000)
        n = 500
        means = [rng.choice(population, n, replace=False).mean() for _ in range(300)]
        predicted = avg_variance(population.var(ddof=1), n)
        assert np.var(means) == pytest.approx(predicted, rel=0.35)

    def test_count_variance_matches_simulation(self):
        rng = np.random.default_rng(1)
        population = rng.random(20_000) < 0.2  # 20% selectivity
        n, N = 1000, population.size
        counts = [
            (N / n) * rng.choice(population, n, replace=False).sum() for _ in range(300)
        ]
        predicted = count_variance(N, n, 0.2)
        assert np.var(counts) == pytest.approx(predicted, rel=0.35)
