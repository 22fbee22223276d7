"""Table 2: empirical validation of the closed-form error estimates.

Table 2 gives the estimator and variance formulas BlinkDB uses for AVG, COUNT,
SUM, and QUANTILE.  This benchmark draws many independent uniform samples from
a skewed synthetic population, measures the empirical variance of each
estimator across the draws, and compares it with the closed-form prediction —
the ratio should be close to 1.
"""

from __future__ import annotations

import numpy as np
from benchmarks._report import print_header, print_table
from repro.estimation import closed_form

POPULATION_SIZE = 200_000
SAMPLE_SIZE = 2_000
TRIALS = 400
SELECTIVITY = 0.25


def run_validation():
    rng = np.random.default_rng(7)
    values = rng.lognormal(mean=3.0, sigma=1.0, size=POPULATION_SIZE)
    matches = rng.random(POPULATION_SIZE) < SELECTIVITY

    avg_estimates, count_estimates, sum_estimates, quantile_estimates = [], [], [], []
    for _ in range(TRIALS):
        indices = rng.choice(POPULATION_SIZE, SAMPLE_SIZE, replace=False)
        sample_values = values[indices]
        sample_matches = matches[indices]
        matching = sample_values[sample_matches]
        if matching.size < 2:
            continue
        scale = POPULATION_SIZE / SAMPLE_SIZE
        avg_estimates.append(matching.mean())
        count_estimates.append(scale * sample_matches.sum())
        sum_estimates.append(scale * matching.sum())
        quantile_estimates.append(np.quantile(matching, 0.5))

    matching_population = values[matches]
    n_match = int(SAMPLE_SIZE * SELECTIVITY)
    predicted = {
        "avg": closed_form.avg_variance(matching_population.var(ddof=1), n_match),
        "count": closed_form.count_variance(POPULATION_SIZE, SAMPLE_SIZE, SELECTIVITY),
        "sum": closed_form.sum_variance(
            POPULATION_SIZE,
            SAMPLE_SIZE,
            matching_population.var(ddof=1),
            SELECTIVITY,
            matching_population.mean(),
        ),
        "quantile": closed_form.quantile_variance(
            n_match, 0.5, _density_at_quantile(matching_population, 0.5)
        ),
    }
    empirical = {
        "avg": float(np.var(avg_estimates)),
        "count": float(np.var(count_estimates)),
        "sum": float(np.var(sum_estimates)),
        "quantile": float(np.var(quantile_estimates)),
    }
    rows = []
    for operator in ("avg", "count", "sum", "quantile"):
        rows.append(
            {
                "operator": operator.upper(),
                "empirical_variance": empirical[operator],
                "closed_form_variance": predicted[operator],
                "ratio": round(empirical[operator] / predicted[operator], 3),
            }
        )
    return rows


def _density_at_quantile(values: np.ndarray, p: float) -> float:
    delta = 0.02
    low, high = np.quantile(values, [p - delta, p + delta])
    return 2 * delta / (high - low)


def test_table2_closed_forms_match_empirical_variance():
    rows = run_validation()

    print_header("Table 2 — closed-form estimator variances vs empirical (400 resamples)")
    print_table(rows)

    for row in rows:
        assert 0.4 <= row["ratio"] <= 2.5, row
