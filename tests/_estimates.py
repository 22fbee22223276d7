"""Estimates for tests: one state update, and the formulas written out in numpy.

The mergeable states of :mod:`repro.engine.accumulators` are the only
implementation of the COUNT/SUM/AVG/VARIANCE/STDDEV estimators.  Tests that
want a one-shot estimate over a vector go through :func:`one_shot`; tests
that check the states against the formulas compare with
:func:`reference_estimate`, which spells each variance out independently of
the states' merge algebra.
"""

import math

import numpy as np

from repro.engine.accumulators import make_state
from repro.estimation import closed_form
from repro.estimation.estimators import weights_nearly_uniform


def one_shot(name, values, weights, rows_read, population_read=None, exact=False):
    """``make_state(name)`` fed one ``update(values, weights)``, then finalized.

    ``weights=None`` means unit weights; ``values`` may be ``None`` for COUNT.
    """
    if weights is None:
        weights = np.ones(len(values))
    state = make_state(name)
    state.update(values, np.asarray(weights, dtype=np.float64))
    return state.finalize(rows_read, population_read, exact=exact)


def reference_estimate(name, values, weights, rows_read, population_read=None):
    """``(value, variance)`` of one aggregate over at least two matching rows.

    Uniform weights take Table 2's closed forms on ``np.var(ddof=1)``; mixed
    weights take the Horvitz–Thompson sums ``Σw(w−1)·(1−c)`` (COUNT) and
    ``Σx²w(w−1)·(1−c)`` (SUM) and the linearised ``Σ(w(x−μ))²/(Σw)²`` (AVG).
    Assumes ``rows_read`` exceeds the row count, so the selectivity ``c < 1``.
    """
    x = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    uniform = weights_nearly_uniform(float(w.min()), float(w.max()))
    c = n / rows_read
    if population_read is None:
        population_read = float(w.mean()) * rows_read
    total = float(np.sum(w * x))
    if name == "count":
        if uniform:
            return float(w.sum()), closed_form.count_variance(population_read, rows_read, c)
        return float(w.sum()), float(np.sum(w * (w - 1.0))) * (1.0 - c)
    if name == "sum":
        if uniform:
            return total, closed_form.sum_variance(
                population_read, rows_read, float(np.var(x, ddof=1)), c, float(x.mean())
            )
        return total, float(np.sum(x * x * w * (w - 1.0))) * (1.0 - c)
    mean = total / float(w.sum())
    if name == "avg":
        if uniform:
            return mean, closed_form.avg_variance(float(np.var(x, ddof=1)), n)
        return mean, float(np.sum((w * (x - mean)) ** 2)) / float(w.sum()) ** 2
    s2 = float(np.sum(w * (x - mean) ** 2)) / float(w.sum()) * n / (n - 1)
    if name == "variance":
        return s2, closed_form.variance_of_sample_variance(s2, n)
    assert name == "stddev"
    return math.sqrt(s2), closed_form.stddev_variance(s2, n)
