"""Uncertainty propagation: the sum of independent estimates.

The paper's implementation adds an "Uncertainty Propagation module" that
modifies the aggregation operators to return error bars (§5), with closed
forms for combinations of the basic aggregates [30].  The runtime needs one
rule: a disjunctive query rewritten as a union of conjunctive sub-queries
(§4.1.2) adds its branches' COUNT/SUM answers, and the variances of
independent estimates add.  BlinkDB's disjunctive branches are disjoint, so
the independence holds.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.estimation.estimators import Estimate


def combine_sum(estimates: Sequence[Estimate]) -> Estimate:
    """The sum of independent estimates; variances add."""
    if not estimates:
        raise ValueError("combine_sum requires at least one estimate")
    value = sum(e.value for e in estimates)
    if any(not math.isfinite(e.variance) for e in estimates):
        variance = math.inf
    else:
        variance = sum(e.variance for e in estimates)
    sample_rows = sum(e.sample_rows for e in estimates)
    rows_read = sum(e.rows_read for e in estimates)
    population = None
    if all(e.population_rows is not None for e in estimates):
        population = sum(e.population_rows for e in estimates)  # type: ignore[misc]
    exact = all(e.exact for e in estimates)
    return Estimate(value, 0.0 if exact else variance, sample_rows, rows_read, population, exact)
