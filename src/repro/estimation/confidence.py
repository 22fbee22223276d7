"""Confidence intervals and error-bound arithmetic.

BlinkDB reports every approximate answer with an error bar at a requested
confidence level (default 95%), and converts a user's relative-error bound
into a required sample size via the ``1/√n`` scaling of the closed-form
standard deviations (§4.2).
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


def relative_error(estimate: float, variance: float, confidence: float = 0.95) -> float:
    """Relative error (CI half-width over |estimate|) at the given confidence."""
    return confidence_interval(estimate, variance, confidence).relative_half_width


def required_sample_size_for_error(
    current_n: int,
    current_variance: float,
    estimate: float,
    target_error: float,
    confidence: float = 0.95,
    relative: bool = True,
) -> int:
    """Rows needed so the error bound shrinks to ``target_error``.

    Uses the ``variance ∝ 1/n`` behaviour of every Table-2 estimator: if a
    sample of ``n`` rows gives variance ``v``, then ``n' = n · v / v_target``
    rows give variance ``v_target``.  ``target_error`` is interpreted as a
    relative error when ``relative`` is True (the paper's default), otherwise
    as an absolute half-width.
    """
    if current_n <= 0:
        raise ValueError("current_n must be positive")
    if target_error <= 0:
        raise ValueError("target_error must be positive")
    if not math.isfinite(current_variance) or current_variance < 0:
        raise ValueError("current_variance must be finite and non-negative")
    z = z_score(confidence)
    target_half_width = target_error * abs(estimate) if relative else target_error
    if target_half_width <= 0:
        # A zero estimate with a relative bound cannot be tightened by sampling.
        return current_n
    target_variance = (target_half_width / z) ** 2
    if current_variance <= target_variance:
        return current_n
    scale_factor = current_variance / target_variance
    return int(math.ceil(current_n * scale_factor))


def error_at_sample_size(
    current_n: int,
    current_variance: float,
    estimate: float,
    new_n: int,
    confidence: float = 0.95,
) -> float:
    """Predicted relative error after growing/shrinking the sample to ``new_n``."""
    if current_n <= 0 or new_n <= 0:
        raise ValueError("sample sizes must be positive")
    projected_variance = current_variance * current_n / new_n
    return relative_error(estimate, projected_variance, confidence)
