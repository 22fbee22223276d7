"""MetricsRegistry and ServiceMetrics tests, including concurrency hammers.

The registry's contract: get-or-create races resolve to one instrument,
conflicting re-registration raises, keyed collectors replace instead of
accumulate, and both exposition formats stay consistent while writer
threads are mid-increment.  The summary window's windowed ``max_s`` is
pinned here too: a lifetime spike older than the window must not keep
dominating the windowed summary.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.registry import (
    LabeledCounter,
    LabeledGauge,
    LabeledHistogram,
    MetricsRegistry,
    SummaryWindow,
    percentile_of,
)
from repro.service.metrics import ServiceMetrics


class TestInstruments:
    def test_counter_inc_and_value_per_label_set(self):
        counter = LabeledCounter("queries_total", labelnames=("mode",))
        counter.inc(mode="approximate")
        counter.inc(2, mode="approximate")
        counter.inc(mode="exact")
        assert counter.value(mode="approximate") == 3
        assert counter.value(mode="exact") == 1

    def test_counter_rejects_negative_increment(self):
        counter = LabeledCounter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_must_match_labelnames(self):
        gauge = LabeledGauge("g", labelnames=("table",))
        with pytest.raises(ValueError):
            gauge.set(1.0, wrong="x")
        with pytest.raises(ValueError):
            gauge.set(1.0)

    def test_gauge_set_overwrites(self):
        gauge = LabeledGauge("depth")
        gauge.set(4.0)
        gauge.set(2.0)
        assert gauge.value() == 2.0

    def test_histogram_summary_shape(self):
        histogram = LabeledHistogram("latency", labelnames=("stage",))
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value, stage="execute")
        ((key, summary),) = histogram.summaries()
        assert dict(key) == {"stage": "execute"}
        assert summary["count"] == 3
        assert summary["max_s"] == pytest.approx(0.3)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", labelnames=("table",))
        second = registry.counter("hits", labelnames=("table",))
        assert first is second

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("hits")

    def test_labelnames_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits", labelnames=("table",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("hits", labelnames=("mode",))

    def test_describe_includes_series_and_values(self):
        registry = MetricsRegistry()
        registry.counter("hits", "cache hits", ("table",)).inc(table="sessions")
        registry.gauge("depth").set(3.0)
        described = registry.describe()
        assert described["hits"]["series"] == [
            {"labels": {"table": "sessions"}, "value": 1.0}
        ]
        assert described["depth"]["value"] == 3.0

    def test_prometheus_text_format(self):
        registry = MetricsRegistry(namespace="blinkdb")
        registry.counter("queries_total", "Total queries", ("mode",)).inc(mode="exact")
        text = registry.render_text()
        assert "# HELP blinkdb_queries_total Total queries" in text
        assert "# TYPE blinkdb_queries_total counter" in text
        assert 'blinkdb_queries_total{mode="exact"} 1' in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("g", labelnames=("name",)).set(1.0, name='quo"te\nline')
        text = registry.render_text()
        assert r'name="quo\"te\nline"' in text

    def test_labeled_instrument_with_no_children_renders_no_samples(self):
        registry = MetricsRegistry(namespace="ns")
        registry.gauge("empty_labeled", "x", ("table",))
        registry.gauge("empty_unlabeled", "y")
        text = registry.render_text()
        assert "ns_empty_labeled{" not in text
        assert "\nns_empty_labeled " not in text  # no bogus unlabeled sample
        assert "ns_empty_unlabeled 0.0" in text

    def test_histogram_renders_summary_quantiles(self):
        registry = MetricsRegistry(namespace="ns")
        registry.histogram("lat", labelnames=("stage",)).observe(0.25, stage="run")
        text = registry.render_text()
        assert '# TYPE ns_lat summary' in text
        assert 'ns_lat{stage="run",quantile="0.5"} 0.25' in text
        assert 'ns_lat_count{stage="run"} 1' in text

    def test_collector_key_replaces_previous_registration(self):
        registry = MetricsRegistry()
        calls = []
        registry.register_collector(lambda: calls.append("old"), key="source")
        registry.register_collector(lambda: calls.append("new"), key="source")
        registry.collect()
        assert calls == ["new"]

    def test_collector_errors_do_not_break_exposition(self):
        registry = MetricsRegistry()

        def broken() -> None:
            raise RuntimeError("source went away")

        registry.register_collector(broken, key="dead")
        registry.gauge("alive").set(1.0)
        assert registry.describe()["alive"]["value"] == 1.0
        assert "alive" in registry.render_text()


class TestWindowedMax:
    def test_summary_window_max_is_windowed(self):
        window = SummaryWindow(window=4)
        window.observe(100.0)  # the one lifetime spike
        for _ in range(4):
            window.observe(0.5)  # pushes the spike out of the window
        summary = window.summary()
        assert summary["max_s"] == pytest.approx(0.5)
        assert summary["max_lifetime_s"] == pytest.approx(100.0)
        assert summary["count"] == 5  # count stays lifetime

    def test_empty_summary_is_all_zero(self):
        summary = SummaryWindow().summary()
        assert summary["max_s"] == 0.0
        assert summary["max_lifetime_s"] == 0.0
        assert summary["p99_s"] == 0.0


class TestPercentile:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile_of(values, 0.0) == 1.0
        assert percentile_of(values, 0.5) == 3.0
        assert percentile_of(values, 1.0) == 5.0
        assert percentile_of([], 0.5) == 0.0

    def test_fraction_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile_of([1.0], 1.5)


class TestChildren:
    def test_counter_child_is_the_labeled_series(self):
        counter = LabeledCounter("c", labelnames=("service",))
        child = counter.child(service="a")
        assert counter.child(service="a") is child
        child.inc()
        child.inc(2)
        assert counter.value(service="a") == 3
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_remove_drops_matching_series_only(self):
        counter = LabeledCounter("c", labelnames=("service", "state"))
        counter.inc(service="a", state="x")
        counter.inc(service="a", state="y")
        counter.inc(service="b", state="x")
        counter.remove(service="a")
        assert [dict(key) for key, _ in counter.samples()] == [
            {"service": "b", "state": "x"}
        ]
        assert counter.value(service="a", state="x") == 0


class TestConcurrency:
    def test_registry_parallel_observe_and_describe(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", labelnames=("kind",))
        histogram = registry.histogram("lat", labelnames=("kind",), window=64)
        registry.register_collector(
            lambda: registry.gauge("pulled").set(1.0), key="pull"
        )
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer(kind: str) -> None:
            try:
                for i in range(500):
                    counter.inc(kind=kind)
                    histogram.observe(i / 1000.0, kind=kind)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    registry.describe()
                    registry.render_text()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writers = [
            threading.Thread(target=writer, args=(kind,))
            for kind in ("a", "b", "c", "d")
        ]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        for kind in ("a", "b", "c", "d"):
            assert counter.value(kind=kind) == 500

    def test_registry_parallel_get_or_create_is_single_instrument(self):
        registry = MetricsRegistry()
        found: list[object] = []
        barrier = threading.Barrier(8)

        def create() -> None:
            barrier.wait()
            found.append(registry.counter("racy", labelnames=("x",)))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(instrument) for instrument in found}) == 1

    def test_service_metrics_parallel_observe_and_describe(self):
        metrics = ServiceMetrics(MetricsRegistry(), "svc")
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer() -> None:
            try:
                for i in range(400):
                    metrics.submitted.inc()
                    metrics.completed.inc()
                    metrics.queue_wait.observe(i / 1000.0)
                    metrics.service_time.observe(i / 2000.0)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    metrics.describe()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        assert metrics.submitted.value == 1600
        assert metrics.queue_wait.count == 1600
