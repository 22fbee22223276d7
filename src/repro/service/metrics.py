"""Service-level counters and latency windows, bound into the metrics registry.

Every :class:`~repro.service.server.QueryService` reports through the
facade's :class:`~repro.obs.registry.MetricsRegistry` (``db.obs.registry``)
under the label ``service=<name>``:

* ``service_queries{service, state}`` — the admission/caching life cycle;
* ``service_cache{service, stat}`` — result-cache hits, misses and
  invalidations;
* ``service_latency_seconds{service, stage}`` — windowed summaries of queue
  wait, wall-clock service time, end-to-end latency and the simulated
  cluster latency;
* ``service_template_queries{service, template, stat}`` — queries and cache
  hits per query template.

:class:`ServiceMetrics` resolves each child once, at construction, so the
per-query path updates bound handles without a label lookup.
:meth:`ServiceMetrics.close` removes the service's series again.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.registry import CounterChild, MetricsRegistry


class ServiceMetrics:
    """One service's bound handles into the registry, plus a ``describe()`` view."""

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self.name = name
        self._queries = registry.counter(
            "service_queries", "Service query lifecycle counters", ("service", "state")
        )
        self._cache = registry.counter(
            "service_cache", "Service result-cache statistics", ("service", "stat")
        )
        self._latency = registry.histogram(
            "service_latency_seconds",
            "Service latency summaries (windowed quantiles)",
            ("service", "stage"),
        )
        self._templates = registry.counter(
            "service_template_queries",
            "Service queries and result-cache hits per query template",
            ("service", "template", "stat"),
        )

        def state(label: str) -> CounterChild:
            return self._queries.child(service=name, state=label)

        self.submitted = state("submitted")
        self.admitted = state("admitted")
        self.completed = state("completed")
        self.failed = state("failed")
        self.retries = state("retries")
        self.explained = state("explained")
        self.shed_deadline = state("shed_deadline")
        self.shed_queue_full = state("shed_queue_full")
        self.shed_quota = state("shed_quota")
        self.cancelled = state("cancelled")
        self.cache_hits = self._cache.child(service=name, stat="hits")
        self.cache_misses = self._cache.child(service=name, stat="misses")
        self.cache_invalidations = self._cache.child(service=name, stat="invalidations")
        self.queue_wait = self._latency.child(service=name, stage="queue_wait")
        self.service_time = self._latency.child(service=name, stage="service_time")
        self.total_latency = self._latency.child(service=name, stage="total")
        self.simulated_latency = self._latency.child(service=name, stage="simulated")
        # Template label -> (queries, cache hits) handles, resolved on first use.
        self._template_handles: dict[str, tuple[CounterChild, CounterChild]] = {}

    def close(self) -> None:
        """Remove this service's series from the registry.

        The handles keep their values, so a closed service can still be
        inspected; a later service with the same name starts from zero.
        """
        for instrument in (self._queries, self._cache, self._latency, self._templates):
            instrument.remove(service=self.name)

    def record_template(self, label: str, cache_hit: bool) -> None:
        handles = self._template_handles.get(label)
        if handles is None:
            handles = self._template_handles.setdefault(
                label,
                (
                    self._templates.child(service=self.name, template=label, stat="queries"),
                    self._templates.child(service=self.name, template=label, stat="cache_hits"),
                ),
            )
        handles[0].inc()
        if cache_hit:
            handles[1].inc()

    def template_counts(self) -> dict[str, dict[str, int]]:
        return {
            label: {"queries": queries.value, "cache_hits": hits.value}
            for label, (queries, hits) in sorted(self._template_handles.items())
        }

    def describe(
        self,
        runtime_stats: Mapping[str, int] | None = None,
        ingest: Mapping[str, dict[str, object]] | None = None,
    ) -> dict[str, object]:
        """A JSON-friendly snapshot of every counter and latency window.

        ``runtime_stats`` (the runtime's lifetime counters) supplies the
        probe-memo and zone-mapped scan numbers and ``ingest`` the per-table
        ingest counters; both are owned elsewhere and only read here.
        """
        stats = runtime_stats or {}
        hits, misses = self.cache_hits.value, self.cache_misses.value
        return {
            "queries": {
                "submitted": self.submitted.value,
                "admitted": self.admitted.value,
                "completed": self.completed.value,
                "failed": self.failed.value,
                "retries": self.retries.value,
                "explained": self.explained.value,
                "shed_deadline": self.shed_deadline.value,
                "shed_queue_full": self.shed_queue_full.value,
                "shed_quota": self.shed_quota.value,
                "cancelled": self.cancelled.value,
            },
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_ratio": round(hits / (hits + misses), 4) if hits + misses else 0.0,
                "invalidations": self.cache_invalidations.value,
            },
            "probe_cache": {
                "hits": stats.get("probe_cache_hits", 0),
                "misses": stats.get("probe_cache_misses", 0),
            },
            "scan": {
                "blocks_total": stats.get("blocks_total", 0),
                "blocks_skipped": stats.get("blocks_skipped", 0),
                "bytes_scanned": stats.get("bytes_scanned", 0),
                "bytes_skipped": stats.get("bytes_total", 0) - stats.get("bytes_scanned", 0),
            },
            "ingest": dict(ingest or {}),
            "latency": {
                "queue_wait": self.queue_wait.summary(),
                "service_time": self.service_time.summary(),
                "total": self.total_latency.summary(),
                "simulated": self.simulated_latency.summary(),
            },
            "templates": self.template_counts(),
        }
