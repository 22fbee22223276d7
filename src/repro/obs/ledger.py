"""The estimated-vs-actual accuracy ledger.

BlinkDB's contract is a *prediction*: the ELP promises a latency and a
relative error before the query runs (paper §4.2), and the returned error
bar promises that the true answer lies inside it with the requested
confidence.  The ledger is where those promises meet reality.  Every
execution records, per query template:

* the **latency-prediction ratio** ``actual / predicted`` — 1.0 means the
  ELP was exact, 2.0 means the query ran twice as long as promised;
* the **predicted vs realized relative error** — how the profile's error
  forecast compared to the error bar actually attached to the answer;
* the **error-bar coverage** outcome, when ground truth is available
  (``db.audit_accuracy`` runs the approximate and exact answers side by
  side): did the confidence interval contain the exact value?

Windows are rolling (512 observations per template by default), so the
ledger tracks the *current* calibration even as data streams in and
samples are rebuilt.  Summaries feed three consumers: the
metrics exposition (``db.metrics()`` / ``db.metrics_text()``), the
``EXPLAIN ANALYZE`` footer (how this template has been tracking), and
tests asserting that realized coverage meets the configured confidence.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING

from repro.obs.registry import percentile_of

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps obs dependency-free
    from repro.planner.logical import LogicalPlan


def template_label_of(logical: "LogicalPlan") -> str:
    """A stable human-readable template key, e.g. ``sessions[city,os]``.

    Groups queries by table plus the columns appearing in WHERE/GROUP BY —
    the same granularity the sample optimizer uses for its query column
    sets — without depending on the service layer's template extractor.
    """
    columns = ",".join(sorted(logical.template_columns()))
    return f"{logical.table}[{columns}]"


class _TemplateWindow:
    """Rolling per-template observations (guarded by the ledger's lock)."""

    __slots__ = (
        "latency_ratios",
        "predicted_errors",
        "realized_errors",
        "coverage_outcomes",
        "observations",
        "audits",
    )

    def __init__(self, window: int) -> None:
        self.latency_ratios: deque[float] = deque(maxlen=window)
        self.predicted_errors: deque[float] = deque(maxlen=window)
        self.realized_errors: deque[float] = deque(maxlen=window)
        self.coverage_outcomes: deque[bool] = deque(maxlen=window)
        self.observations = 0
        self.audits = 0


class AccuracyLedger:
    """Per-template rolling calibration of latency and error-bar promises."""

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._lock = threading.Lock()
        self._templates: dict[str, _TemplateWindow] = {}

    def _window(self, template: str) -> _TemplateWindow:
        entry = self._templates.get(template)
        if entry is None:
            entry = _TemplateWindow(self.window)
            self._templates[template] = entry
        return entry

    # -- recording ----------------------------------------------------------------
    def record(
        self,
        template: str,
        *,
        predicted_latency_s: float | None = None,
        actual_latency_s: float | None = None,
        predicted_relative_error: float | None = None,
        realized_relative_error: float | None = None,
    ) -> None:
        """Record one execution's predictions next to its measurements.

        Any component may be ``None`` (exact queries have no error forecast;
        unprofiled plans have no latency promise) — only the present pairs
        are recorded.
        """
        with self._lock:
            entry = self._window(template)
            entry.observations += 1
            if (
                predicted_latency_s is not None
                and actual_latency_s is not None
                and predicted_latency_s > 0.0
            ):
                entry.latency_ratios.append(actual_latency_s / predicted_latency_s)
            if predicted_relative_error is not None and realized_relative_error is not None:
                entry.predicted_errors.append(float(predicted_relative_error))
                entry.realized_errors.append(float(realized_relative_error))

    def record_coverage(self, template: str, covered: bool) -> None:
        """Record one ground-truth audit: did the error bar contain the truth?"""
        with self._lock:
            entry = self._window(template)
            entry.audits += 1
            entry.coverage_outcomes.append(bool(covered))

    # -- inspection ---------------------------------------------------------------
    def templates(self) -> list[str]:
        with self._lock:
            return sorted(self._templates)

    def coverage(self, template: str) -> float | None:
        """Fraction of audited error bars that contained the exact answer."""
        with self._lock:
            entry = self._templates.get(template)
            if entry is None or not entry.coverage_outcomes:
                return None
            outcomes = list(entry.coverage_outcomes)
        return sum(outcomes) / len(outcomes)

    def summary(self, template: str) -> dict[str, object] | None:
        """Windowed calibration quantiles for one template (None if unseen)."""
        with self._lock:
            entry = self._templates.get(template)
            if entry is None:
                return None
            ratios = list(entry.latency_ratios)
            predicted = list(entry.predicted_errors)
            realized = list(entry.realized_errors)
            outcomes = list(entry.coverage_outcomes)
            observations = entry.observations
            audits = entry.audits
        summary: dict[str, object] = {
            "observations": observations,
            "audits": audits,
        }
        if ratios:
            summary["latency_ratio"] = {
                "count": len(ratios),
                "p50": percentile_of(ratios, 0.50),
                "p90": percentile_of(ratios, 0.90),
                "p99": percentile_of(ratios, 0.99),
                "mean": sum(ratios) / len(ratios),
            }
        if realized:
            summary["relative_error"] = {
                "count": len(realized),
                "predicted_p50": percentile_of(predicted, 0.50),
                "realized_p50": percentile_of(realized, 0.50),
                "realized_p90": percentile_of(realized, 0.90),
            }
        if outcomes:
            summary["coverage"] = sum(outcomes) / len(outcomes)
        return summary

    def describe(self) -> dict[str, object]:
        """Every template's summary, keyed by template label."""
        return {
            template: summary
            for template in self.templates()
            if (summary := self.summary(template)) is not None
        }

    def footnote(self, template: str) -> str | None:
        """One-line track record for the EXPLAIN ANALYZE footer, or ``None``."""
        summary = self.summary(template)
        if summary is None:
            return None
        parts = [f"template {template}: {summary['observations']} runs"]
        ratio = summary.get("latency_ratio")
        if isinstance(ratio, dict):
            parts.append(
                f"latency actual/predicted p50={ratio['p50']:.2f} p90={ratio['p90']:.2f}"
            )
        coverage = summary.get("coverage")
        if coverage is not None:
            parts.append(
                f"error-bar coverage {100.0 * float(coverage):.1f}% over {summary['audits']} audits"
            )
        return "; ".join(parts)
