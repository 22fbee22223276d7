"""The estimate type, the shared weight tests, and the quantile estimator.

BlinkDB produces unbiased answers from stratified samples by tracking the
*effective sampling rate* of every row and weighting each row by the inverse
of that rate (§4.3, Tables 3–4).  Every aggregate answers with an
:class:`Estimate` — a point value plus an estimated variance from which
confidence intervals and relative errors are derived.

The COUNT/SUM/AVG/VARIANCE/STDDEV estimators live in one place only: the
mergeable states of :mod:`repro.engine.accumulators`, which apply the
Table-2 closed forms of :mod:`repro.estimation.closed_form`.  This module
holds what those states share:

* :func:`weight_is_unit` and :func:`weights_nearly_uniform` — the exactness
  and variance-regime tests, so the serial and partitioned paths decide
  alike;
* :func:`estimate_quantile` — the weighted quantile and its Table-2
  variance, which :class:`~repro.engine.accumulators.QuantileState` applies
  to its sketch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.estimation import closed_form
from repro.estimation.confidence import ConfidenceInterval, confidence_interval

_UNIFORM_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Estimate:
    """A point estimate together with its estimated variance.

    Attributes
    ----------
    value:
        The unbiased point estimate of the aggregate.
    variance:
        Estimated variance of the estimator (``inf`` when it cannot be
        estimated, e.g. zero matching rows).
    sample_rows:
        Number of matching rows in the sample the estimate was computed from
        (``n`` in the paper's formulas).
    rows_read:
        Total rows scanned (matching or not) to produce the estimate.
    population_rows:
        Estimated number of matching rows in the full table (the scaled
        count), when meaningful.
    exact:
        True when the estimate is known to be exact (e.g. the stratum was
        below the cap ``K`` so the sample holds every matching row).
    """

    value: float
    variance: float
    sample_rows: int
    rows_read: int = 0
    population_rows: float | None = None
    exact: bool = False

    def interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Confidence interval at the requested confidence level."""
        if self.exact:
            return ConfidenceInterval(self.value, 0.0, confidence)
        return confidence_interval(self.value, self.variance, confidence)


def _as_arrays(values, weights) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=np.float64)
    if weights is None:
        weights = np.ones(values.shape[0], dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.shape[0] != weights.shape[0]:
        raise ValueError("values and weights must have the same length")
    if np.any(weights <= 0):
        raise ValueError("weights must be strictly positive")
    return values, weights


#: Tolerance of the unit-weight exactness test (np.isclose(x, 1.0) defaults:
#: atol + rtol for a target of 1.0).
_UNIT_WEIGHT_TOLERANCE = 1e-8 + 1e-5


def weight_is_unit(weight: float) -> bool:
    """Whether one (scaled) weight counts as exactly 1.0.

    Shared with the mergeable partial-aggregation states
    (:mod:`repro.engine.accumulators`): the §3.1 "exact stratum" test must
    use one tolerance on both the serial and the partitioned path, or a
    partitioned run could mark a group exact where the serial run does not.
    """
    return abs(weight - 1.0) <= _UNIT_WEIGHT_TOLERANCE


def weights_nearly_uniform(min_weight: float, max_weight: float) -> bool:
    """Whether a weight vector with this min/max counts as uniform.

    Shared with the mergeable partial-aggregation states
    (:mod:`repro.engine.accumulators`): expressing the test through the
    min/max keeps it invariant under merge order, so a partitioned execution
    picks the same variance regime as the whole-table path.
    """
    spread = max_weight - min_weight
    return bool(spread <= _UNIFORM_WEIGHT_TOLERANCE * max(1.0, abs(min_weight)))


def estimate_quantile(
    values: np.ndarray,
    weights: np.ndarray | None,
    p: float,
    rows_read: int,
    exact: bool = False,
    sample_rows: int | None = None,
) -> Estimate:
    """Estimate the ``p``-quantile of the population distribution of ``values``.

    The point estimate is the weighted quantile (linear interpolation on the
    weighted empirical CDF).  The variance follows Table 2:
    ``p(1−p)/(n·f(x_p)²)`` with the density ``f`` at the quantile estimated by
    a central finite difference of nearby sample quantiles.

    ``sample_rows`` overrides the matching-row count ``n`` used for the
    variance when ``values``/``weights`` are a *summary* of more rows than
    they have entries (a compressed quantile sketch): the distribution shape
    comes from the summary, the uncertainty from the true row count.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile p must be in (0, 1)")
    values, weights = _as_arrays(values, weights)
    n = int(values.shape[0]) if sample_rows is None else int(sample_rows)
    if n == 0:
        return Estimate(math.nan, math.inf, 0, rows_read, 0.0)
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    sorted_weights = weights[order]
    cumulative = np.cumsum(sorted_weights)
    total = cumulative[-1]
    # Weighted quantile positions at the centre of each row's weight mass.
    positions = (cumulative - 0.5 * sorted_weights) / total
    value = float(np.interp(p, positions, sorted_values))
    if exact:
        return Estimate(value, 0.0, n, rows_read, float(total), exact=True)
    if n < 4:
        return Estimate(value, math.inf, n, rows_read, float(total))
    # Finite-difference density estimate around the quantile.
    delta = max(0.01, 1.0 / math.sqrt(n))
    low_p = max(1e-6, p - delta)
    high_p = min(1.0 - 1e-6, p + delta)
    low_value = float(np.interp(low_p, positions, sorted_values))
    high_value = float(np.interp(high_p, positions, sorted_values))
    spread = high_value - low_value
    if spread <= 0:
        # Degenerate/duplicated data around the quantile: the quantile is
        # pinned, so the uncertainty is effectively zero.
        return Estimate(value, 0.0, n, rows_read, float(total))
    density = (high_p - low_p) / spread
    variance = closed_form.quantile_variance(n, p, density)
    return Estimate(value, variance, n, rows_read, float(total))
