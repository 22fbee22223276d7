"""Observability: query-lifecycle tracing, unified metrics, accuracy ledger.

The :mod:`repro.obs` package is the system's telemetry layer:

* :mod:`repro.obs.trace` — per-query span trees (admission wait, planning,
  family/resolution selection, partition dispatch, kernel triage, merge,
  estimation) that survive the partition pipeline's thread fan-out, with
  deterministic sampling for hot-path cheapness;
* :mod:`repro.obs.registry` — one labeled metrics namespace over every
  counter surface, exposed as JSON (``db.metrics()``) and Prometheus text
  (``db.metrics_text()``);
* :mod:`repro.obs.ledger` — per-template rolling calibration of the ELP's
  latency/error promises against what executions actually delivered;
* :mod:`repro.obs.analyze` — the ``EXPLAIN ANALYZE`` estimated-vs-actual
  rendering;
* :mod:`repro.obs.observability` — the per-database bundle tying them
  together.

Submodule exports are resolved lazily (PEP 562): the runtime imports
:mod:`repro.obs.trace`, and other submodules import engine/planner types,
so the package initializer must not import anything eagerly.
"""

_EXPORTS = {
    "AnySpan": "repro.obs.trace",
    "AnyTrace": "repro.obs.trace",
    "NULL_SPAN": "repro.obs.trace",
    "NULL_TRACE": "repro.obs.trace",
    "QueryTrace": "repro.obs.trace",
    "Span": "repro.obs.trace",
    "SpanTracer": "repro.obs.trace",
    "LabeledCounter": "repro.obs.registry",
    "LabeledGauge": "repro.obs.registry",
    "LabeledHistogram": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "SummaryWindow": "repro.obs.registry",
    "percentile_of": "repro.obs.registry",
    "AccuracyLedger": "repro.obs.ledger",
    "template_label_of": "repro.obs.ledger",
    "AnalyzeResult": "repro.obs.analyze",
    "analyze_text": "repro.obs.analyze",
    "Observability": "repro.obs.observability",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
