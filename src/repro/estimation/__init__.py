"""Error estimation: closed-form variances, confidence intervals, estimates.

This package holds the statistics behind BlinkDB's error bars:

* :mod:`repro.estimation.closed_form` — the closed-form variance formulas of
  the paper's Table 2 (AVG, COUNT, SUM, QUANTILE).
* :mod:`repro.estimation.confidence` — the normal critical value and the
  confidence interval around an estimate.
* :mod:`repro.estimation.estimators` — the :class:`Estimate` every
  aggregate returns, the weight tests shared by the serial and partitioned
  paths, and the weighted quantile estimator.
* :mod:`repro.estimation.propagation` — ``combine_sum``, which adds the
  answers of a disjunctive query's independent branches.

The COUNT/SUM/AVG/VARIANCE/STDDEV estimators themselves are the mergeable
states of :mod:`repro.engine.accumulators`: they are the one implementation
of those error bars, built from the closed forms above.
"""
