"""``EXPLAIN ANALYZE``: the plan's promises next to the execution's receipts.

Plain ``EXPLAIN`` renders what the planner *intends* — chosen family and
resolution, the Error-Latency Profile's predictions, the zone-map scan
estimate.  ``EXPLAIN ANALYZE`` executes the statement (with tracing forced
on) and renders each estimate beside what actually happened:

* **scan** — :class:`~repro.planner.physical.ScanEstimate` block/row skip
  predictions vs the blocks and rows the compiled kernels really skipped
  and scanned (per-query :class:`~repro.engine.kernels.ScanSink`);
* **selectivity** — the statistics-based estimate vs the matched-row
  fraction the filter stages observed;
* **latency** — the ELP's predicted latency vs the simulated cluster
  latency the execution realized, plus the measured wall-clock time;
* **error** — the ELP's predicted relative error vs the widest error bar
  actually attached to the answer;
* **partitions** — planned layout vs merged coverage, for pipeline runs;
* **ledger** — this template's rolling calibration track record.

The section is followed by the rendered span tree, so one statement shows
where the time went *and* how trustworthy the predictions were.

This module deliberately imports no runtime or service code (the runtime
imports :mod:`repro.obs`); pipeline statistics arrive duck-typed through
``result.metadata``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.kernels import ScanSink
from repro.engine.result import QueryResult
from repro.obs.ledger import AccuracyLedger
from repro.obs.trace import NULL_TRACE, AnyTrace
from repro.planner.physical import PhysicalPlan, PlanMode, ScanEstimate


@dataclass(frozen=True)
class AnalyzeResult:
    """What an ``EXPLAIN ANALYZE SELECT ...`` statement returns.

    Unlike :class:`~repro.planner.physical.ExplainResult`, the statement
    *was executed*: ``result`` is the answer it produced, ``trace`` the
    span tree of that execution, and ``text`` the side-by-side
    estimated-vs-actual rendering.
    """

    plan: PhysicalPlan
    result: QueryResult
    trace: AnyTrace
    text: str

    def __str__(self) -> str:
        return self.text


def analyze_text(
    plan: PhysicalPlan,
    result: QueryResult,
    *,
    sink: ScanSink | None = None,
    trace: AnyTrace = NULL_TRACE,
    measured_seconds: float | None = None,
    ledger: AccuracyLedger | None = None,
    template: str | None = None,
    scan_estimate: ScanEstimate | None = None,
) -> str:
    """The full ``EXPLAIN ANALYZE`` text: plan, analyze section, trace."""
    lines = [plan.render(), "", "ANALYZE (estimated vs actual)"]
    estimate = scan_estimate if scan_estimate is not None else plan.scan_estimate
    lines.extend(_scan_lines(estimate, sink))
    lines.extend(_latency_lines(plan, result, measured_seconds))
    lines.extend(_error_lines(plan, result))
    lines.extend(_partition_lines(result))
    lines.extend(_backend_lines(result))
    if ledger is not None and template is not None:
        footnote = ledger.footnote(template)
        if footnote is not None:
            lines.append(f"  ledger:      {footnote}")
    if trace.sampled:
        lines.extend(["", "TRACE", trace.render()])
    return "\n".join(lines)


# -- section renderers ---------------------------------------------------------------


def _scan_lines(estimate: ScanEstimate | None, sink: ScanSink | None) -> list[str]:
    actual = sink.counters if sink is not None else None
    if estimate is None and (actual is None or actual.blocks_total == 0):
        lines = ["  scan:        no zone-map scan (join or no WHERE)"]
        if sink is not None:
            selectivity = sink.selectivity
            if selectivity is not None:
                lines.append(
                    f"  selectivity: actual {selectivity:.4f}"
                    f" ({sink.rows_matched:,} rows matched)"
                )
        return lines
    est_blocks = "n/a"
    est_rows = "n/a"
    est_sel = "n/a"
    if estimate is not None:
        est_blocks = f"~{estimate.blocks_skipped}/{estimate.blocks_total}"
        est_rows = f"~{estimate.rows_total - estimate.rows_skipped:,}"
        if estimate.estimated_selectivity is not None:
            est_sel = f"~{estimate.estimated_selectivity:.4f}"
    act_blocks = "n/a"
    act_rows = "n/a"
    if actual is not None and actual.blocks_total > 0:
        act_blocks = f"{actual.blocks_skipped}/{actual.blocks_total}"
        act_rows = f"{actual.rows_scanned:,}"
    lines = [
        f"  scan:        blocks skipped est {est_blocks}  actual {act_blocks};"
        f"  rows scanned est {est_rows}  actual {act_rows}"
    ]
    act_sel = "n/a"
    matched = ""
    if sink is not None and sink.selectivity is not None:
        act_sel = f"{sink.selectivity:.4f}"
        matched = f" ({sink.rows_matched:,} rows matched)"
    lines.append(f"  selectivity: est {est_sel}  actual {act_sel}{matched}")
    encoded = estimate.describe_encoding() if estimate is not None else None
    decode_avoided = (
        actual.rows_decode_avoided if actual is not None else 0
    )
    if encoded is not None or decode_avoided:
        parts = []
        if encoded is not None:
            parts.append(encoded)
        if decode_avoided:
            assert actual is not None
            parts.append(
                f"decode avoided {decode_avoided:,} rows"
                f" ({actual.bytes_encoded:,}B read encoded)"
            )
        lines.append(f"  encoding:    {'; '.join(parts)}")
    return lines


def _latency_lines(
    plan: PhysicalPlan, result: QueryResult, measured_seconds: float | None
) -> list[str]:
    predicted = _predicted(plan)
    predicted_latency = predicted[1]
    actual = result.simulated_latency_seconds
    parts = []
    if predicted_latency is not None:
        parts.append(f"ELP predicted {predicted_latency:.3f}s")
    else:
        parts.append("no ELP latency prediction")
    if actual is not None:
        parts.append(f"simulated actual {actual:.3f}s")
        if predicted_latency:
            parts.append(f"(ratio {actual / predicted_latency:.2f})")
    if measured_seconds is not None:
        parts.append(f"measured wall {1e3 * measured_seconds:.1f}ms")
    return [f"  latency:     {'  '.join(parts)}"]


def _error_lines(plan: PhysicalPlan, result: QueryResult) -> list[str]:
    if plan.mode is PlanMode.EXACT or result.is_exact:
        return ["  error:       exact answer (zero-width error bars)"]
    predicted_error = _predicted(plan)[0]
    realized = result.max_relative_error()
    bars = [
        agg.error_bar
        for group in result.groups
        for agg in group.aggregates.values()
        if not agg.estimate.exact
    ]
    widest = max(bars) if bars else 0.0
    predicted_text = (
        f"ELP predicted ±{_pct(predicted_error)}"
        if predicted_error is not None
        else "no ELP error prediction"
    )
    return [
        f"  error:       {predicted_text}"
        f"  realized ±{_pct(realized)} relative"
        f" (widest bar ±{widest:,.4g}, max over groups)"
    ]


def _partition_lines(result: QueryResult) -> list[str]:
    stats = result.metadata.get("partitions")
    if stats is None:
        return []
    planned = getattr(stats, "num_partitions", None)
    merged = getattr(stats, "merged_partitions", None)
    coverage = getattr(stats, "coverage_population_fraction", None)
    makespan = getattr(stats, "makespan_seconds", None)
    merged_s = getattr(stats, "merged_seconds", None)
    skipped = getattr(stats, "skipped_partitions", 0)
    if planned is None or merged is None:
        return []
    parts = [f"{planned} planned, {merged} merged"]
    if coverage is not None:
        parts.append(f"coverage {100.0 * coverage:.1f}%")
    if skipped:
        parts.append(f"{skipped} zone-skipped")
    if merged_s is not None and makespan is not None:
        parts.append(f"merged at {merged_s:.3f}s of {makespan:.3f}s makespan")
    return [f"  partitions:  {', '.join(parts)}"]


def _backend_lines(result: QueryResult) -> list[str]:
    info = result.metadata.get("backend_info")
    lines: list[str] = []
    if isinstance(info, dict):
        parts = [str(info.get("backend", "unknown"))]
        reason = info.get("fallback_reason")
        if reason is not None:
            parts.append(f"fallback: {reason}")
        for key in ("retries", "hedges", "respawns", "thread_redispatches"):
            value = info.get(key)
            if value:
                parts.append(f"{key} {value}")
        lines.append(f"  backend:     {', '.join(parts)}")
    degraded = result.metadata.get("degraded")
    if isinstance(degraded, dict):
        surrendered = degraded.get("surrendered_partitions", 0)
        fault = degraded.get("fault")
        detail = f" ({fault})" if fault else ""
        lines.append(
            f"  degraded:    {surrendered} partition(s) surrendered to faults;"
            f" answer covers survivors only, error bars widened{detail}"
        )
    return lines


# -- helpers --------------------------------------------------------------------------


def _predicted(plan: PhysicalPlan) -> tuple[float | None, float | None]:
    """(predicted relative error, predicted latency) of the chosen resolution."""
    if plan.profile is None or plan.resolution is None:
        return None, None
    try:
        entry = plan.profile.entry_for(plan.resolution)
    except Exception:
        return None, None
    return entry.predicted_relative_error, entry.predicted_latency_seconds


def _pct(value: float | None) -> str:
    if value is None or value != value or value == math.inf:
        return "unbounded"
    return f"{100.0 * value:.2f}%"
