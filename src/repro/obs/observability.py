"""The per-database observability bundle: tracer + registry + ledger.

One :class:`Observability` instance is owned by each
:class:`~repro.core.blinkdb.BlinkDB` facade and survives runtime
invalidations (sample rebuilds discard the runtime, not the telemetry).  It
wires the three tentpole pieces together:

* the :class:`~repro.obs.trace.SpanTracer` that decides which queries get a
  span tree (``config.trace_sample_rate``);
* the :class:`~repro.obs.registry.MetricsRegistry` behind ``db.metrics()``
  and ``db.metrics_text()``;
* the :class:`~repro.obs.ledger.AccuracyLedger` tracking
  estimated-vs-actual calibration per query template.

:meth:`observe_query` is the single sink the runtime reports every
execution through — it bumps the native instruments and feeds the ledger —
and :meth:`register_stats` reads stats surfaces owned elsewhere (runtime
lifetime counters, ingest counters) through pull-collectors.  Query
services need no registration: their counters are native instruments
(:mod:`repro.service.metrics`).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.common.clock import Clock, monotonic
from repro.common.config import BlinkDBConfig
from repro.obs.ledger import AccuracyLedger
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanTracer


class Observability:
    """Tracer, metrics registry, and accuracy ledger for one database."""

    def __init__(
        self,
        config: BlinkDBConfig | None = None,
        *,
        clock: Clock = monotonic,
        namespace: str = "blinkdb",
    ) -> None:
        config = config or BlinkDBConfig()
        self.config = config
        self.clock = clock
        self.tracer = SpanTracer(sample_rate=config.trace_sample_rate, clock=clock)
        self.registry = MetricsRegistry(namespace)
        # Rolling window: 512 observations per template.
        self.ledger = AccuracyLedger(window=512)

        # Native instruments fed by observe_query().
        self._queries = self.registry.counter(
            "queries_total", "Queries executed, by answer mode", ("mode",)
        )
        self._wall = self.registry.histogram(
            "query_wall_seconds", "Measured wall-clock execution time", ("mode",)
        )
        self._simulated = self.registry.histogram(
            "query_simulated_seconds", "Simulated cluster latency of answers", ("mode",)
        )
        self.registry.register_collector(self._collect_tracer)
        self.registry.register_collector(self._collect_ledger)

    # -- the runtime's reporting sink ---------------------------------------------------
    def observe_query(
        self,
        template: str,
        *,
        mode: str,
        predicted_latency_s: float | None = None,
        actual_latency_s: float | None = None,
        predicted_relative_error: float | None = None,
        realized_relative_error: float | None = None,
        measured_seconds: float | None = None,
    ) -> None:
        """Record one finished execution (instruments + accuracy ledger)."""
        self._queries.inc(mode=mode)
        if measured_seconds is not None:
            self._wall.observe(measured_seconds, mode=mode)
        if actual_latency_s is not None:
            self._simulated.observe(actual_latency_s, mode=mode)
        self.ledger.record(
            template,
            predicted_latency_s=predicted_latency_s,
            actual_latency_s=actual_latency_s,
            predicted_relative_error=predicted_relative_error,
            realized_relative_error=realized_relative_error,
        )

    # -- absorbing pre-existing surfaces ------------------------------------------------
    def register_stats(
        self, metric: str, help: str, stats: Callable[[], Mapping[str, float]]
    ) -> None:
        """Mirror a flat ``{name: number}`` stats source as a labeled gauge.

        Used for the runtime's lifetime counters (query/probe/scan) and the
        facade's per-table ingest counters: the owner keeps its counters and
        locking, the registry re-reads them at exposition time.
        """
        gauge = self.registry.gauge(metric, help, ("name",))

        def collect() -> None:
            for name, value in stats().items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    gauge.set(float(value), name=name)

        self.registry.register_collector(collect, key=("stats", metric))

    # -- built-in collectors -------------------------------------------------------------
    def _collect_tracer(self) -> None:
        gauge = self.registry.gauge(
            "traces", "Span tracer sampling counters", ("state",)
        )
        for state, value in self.tracer.stats.items():
            gauge.set(float(value), state=state.removeprefix("traces_"))

    def _collect_ledger(self) -> None:
        observations = self.registry.gauge(
            "accuracy_observations", "Accuracy ledger observations per template", ("template",)
        )
        ratio = self.registry.gauge(
            "accuracy_latency_ratio",
            "Windowed actual/predicted latency ratio quantiles",
            ("template", "quantile"),
        )
        coverage = self.registry.gauge(
            "accuracy_error_bar_coverage",
            "Fraction of audited error bars containing the exact answer",
            ("template",),
        )
        for template in self.ledger.templates():
            summary = self.ledger.summary(template)
            if summary is None:
                continue
            observations.set(float(summary["observations"]), template=template)
            latency = summary.get("latency_ratio")
            if isinstance(latency, dict):
                for quantile in ("p50", "p90", "p99"):
                    ratio.set(float(latency[quantile]), template=template, quantile=quantile)
            covered = summary.get("coverage")
            if covered is not None:
                coverage.set(float(covered), template=template)

    def describe(self) -> dict[str, object]:
        """JSON snapshot: tracer stats, ledger calibration, all instruments."""
        return {
            "tracer": self.tracer.stats,
            "ledger": self.ledger.describe(),
            "metrics": self.registry.describe(),
        }
