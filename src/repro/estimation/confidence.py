"""Confidence intervals: the error bar of every approximate answer.

BlinkDB reports every approximate answer with an error bar at a requested
confidence level (default 95%): a normal-approximation interval of
``z · √variance`` around the point estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy import stats


@functools.lru_cache(maxsize=256)
def z_score(confidence: float) -> float:
    """Two-sided normal critical value for a confidence level in (0, 1).

    Memoised per level: every group and aggregate of an answer asks for the
    same few levels, and ``norm.ppf`` costs far more than the interval
    arithmetic around it.  The cached value is the very float ``ppf``
    returns; a failure is never cached, so an invalid level raises on every
    call.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return float(stats.norm.ppf(0.5 + confidence / 2.0))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a point estimate."""

    estimate: float
    half_width: float
    confidence: float

    @property
    def low(self) -> float:
        return self.estimate - self.half_width

    @property
    def high(self) -> float:
        return self.estimate + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half width divided by the absolute estimate (∞ for a zero estimate)."""
        if self.estimate == 0:
            return math.inf if self.half_width > 0 else 0.0
        return abs(self.half_width / self.estimate)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.estimate:,.4g} ± {self.half_width:,.4g} "
            f"({self.confidence:.0%} confidence)"
        )


def confidence_interval(
    estimate: float, variance: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation CI from an estimate and its variance."""
    if variance < 0:
        raise ValueError("variance must be non-negative")
    half_width = z_score(confidence) * math.sqrt(variance) if math.isfinite(variance) else math.inf
    return ConfidenceInterval(estimate=estimate, half_width=half_width, confidence=confidence)
