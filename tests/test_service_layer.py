"""Unit tests for the query service layer: scheduler, cache, metrics, sessions."""

from __future__ import annotations

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.common.errors import QueryRejectedError
from repro.core.blinkdb import BlinkDB
from repro.engine.result import QueryResult
from repro.service.cache import ResultCache, cache_key, template_label
from repro.obs.registry import MetricsRegistry, SummaryWindow
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import Admission, DeadlineScheduler
from repro.service.session import SessionDefaults
from repro.sql.parser import parse_query, parse_statement
from repro.workloads.conviva import conviva_query_templates


# -- scheduler ------------------------------------------------------------------------


class TestDeadlineScheduler:
    def test_earliest_deadline_pops_first(self):
        scheduler = DeadlineScheduler(num_workers=1)
        scheduler.try_admit("loose", predicted_seconds=0.1, time_bound_seconds=50.0)
        scheduler.try_admit("tight", predicted_seconds=0.1, time_bound_seconds=1.0)
        scheduler.try_admit("medium", predicted_seconds=0.1, time_bound_seconds=10.0)
        order = [scheduler.pop(timeout=1).payload for _ in range(3)]
        assert order == ["tight", "medium", "loose"]

    def test_unbounded_queries_drain_after_bounded_ones(self):
        scheduler = DeadlineScheduler(num_workers=1)
        scheduler.try_admit("unbounded-1", predicted_seconds=0.1)
        scheduler.try_admit("bounded", predicted_seconds=0.1, time_bound_seconds=5.0)
        scheduler.try_admit("unbounded-2", predicted_seconds=0.1)
        order = [scheduler.pop(timeout=1).payload for _ in range(3)]
        # Bounded first; unbounded keep FIFO order among themselves.
        assert order == ["bounded", "unbounded-1", "unbounded-2"]

    def test_sheds_when_predicted_completion_misses_deadline(self):
        scheduler = DeadlineScheduler(num_workers=1)
        # 10 simulated seconds of backlog ahead of the new arrival.
        for _ in range(5):
            admission, _ = scheduler.try_admit("bulk", predicted_seconds=2.0)
            assert admission is Admission.ADMITTED
        admission, item = scheduler.try_admit(
            "tight", predicted_seconds=1.0, time_bound_seconds=3.0
        )
        assert admission is Admission.SHED_DEADLINE
        assert item is None
        # A generous deadline is still admitted over the same backlog.
        admission, _ = scheduler.try_admit(
            "loose", predicted_seconds=1.0, time_bound_seconds=60.0
        )
        assert admission is Admission.ADMITTED

    def test_more_workers_admit_more_deadline_work(self):
        # The same backlog sheds on 1 worker but admits on 4.
        for workers, expected in ((1, Admission.SHED_DEADLINE), (4, Admission.ADMITTED)):
            scheduler = DeadlineScheduler(num_workers=workers)
            for _ in range(4):
                scheduler.try_admit("bulk", predicted_seconds=2.0)
            admission, _ = scheduler.try_admit(
                "bounded", predicted_seconds=1.0, time_bound_seconds=4.0
            )
            assert admission is expected

    def test_sheds_when_queue_is_full(self):
        scheduler = DeadlineScheduler(num_workers=1, max_queue_depth=2)
        assert scheduler.try_admit("a", 0.1)[0] is Admission.ADMITTED
        assert scheduler.try_admit("b", 0.1)[0] is Admission.ADMITTED
        assert scheduler.try_admit("c", 0.1)[0] is Admission.SHED_QUEUE_FULL

    def test_backlog_and_virtual_clock_track_dispatch(self):
        scheduler = DeadlineScheduler(num_workers=2)
        scheduler.try_admit("a", predicted_seconds=4.0)
        scheduler.try_admit("b", predicted_seconds=2.0)
        assert scheduler.predicted_backlog_seconds() == pytest.approx(6.0)
        scheduler.pop(timeout=1)
        # Each dispatched item advances the virtual clock by predicted/workers.
        assert scheduler.predicted_backlog_seconds() == pytest.approx(2.0)
        assert scheduler.virtual_now() == pytest.approx(2.0)

    def test_in_flight_work_counts_against_admission(self):
        scheduler = DeadlineScheduler(num_workers=1)
        scheduler.try_admit("long", predicted_seconds=100.0)
        item = scheduler.pop(timeout=1)
        # Queue is empty but the popped item is still running: a 1-second
        # deadline is hopeless behind 100s of in-flight work.
        assert scheduler.depth() == 0
        assert scheduler.in_flight_seconds() == pytest.approx(100.0)
        admission, _ = scheduler.try_admit("tight", 0.5, time_bound_seconds=1.0)
        assert admission is Admission.SHED_DEADLINE
        scheduler.task_done(item)
        assert scheduler.in_flight_seconds() == 0.0
        admission, _ = scheduler.try_admit("tight", 0.5, time_bound_seconds=1.0)
        assert admission is Admission.ADMITTED

    def test_pop_drains_then_returns_none_after_close(self):
        scheduler = DeadlineScheduler(num_workers=1)
        scheduler.try_admit("a", 0.1)
        scheduler.close()
        assert scheduler.pop(timeout=1).payload == "a"
        assert scheduler.pop(timeout=0.05) is None

    def test_pop_timeout_on_empty_queue(self):
        scheduler = DeadlineScheduler(num_workers=1)
        assert scheduler.pop(timeout=0.02) is None


# -- cache ----------------------------------------------------------------------------


def _result(sample: str = "s", rows: int = 1) -> QueryResult:
    return QueryResult(group_by=(), groups=(), rows_read=rows, sample_name=sample)


class TestCacheKey:
    def test_whitespace_and_keyword_case_do_not_matter(self):
        a = parse_query("SELECT COUNT(*) FROM t WHERE a = 1 GROUP BY b")
        b = parse_query("select   COUNT(*)  from t  where a = 1  group by b")
        assert cache_key(a) == cache_key(b)

    def test_commutative_predicates_share_a_key(self):
        a = parse_query("SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2")
        b = parse_query("SELECT COUNT(*) FROM t WHERE b = 2 AND a = 1")
        assert cache_key(a) == cache_key(b)

    def test_different_constants_get_different_keys(self):
        a = parse_query("SELECT COUNT(*) FROM t WHERE a = 1")
        b = parse_query("SELECT COUNT(*) FROM t WHERE a = 2")
        assert cache_key(a) != cache_key(b)

    def test_bounds_distinguish_keys(self):
        plain = parse_query("SELECT COUNT(*) FROM t WHERE a = 1")
        error = parse_query("SELECT COUNT(*) FROM t WHERE a = 1 ERROR WITHIN 10% AT CONFIDENCE 95%")
        time_b = parse_query("SELECT COUNT(*) FROM t WHERE a = 1 WITHIN 5 SECONDS")
        keys = {cache_key(plain), cache_key(error), cache_key(time_b)}
        assert len(keys) == 3

    def test_template_label_uses_phi_columns(self):
        query = parse_query("SELECT COUNT(*) FROM sessions WHERE city = 'x' GROUP BY os")
        assert template_label(query) == "sessions[city,os]"


class TestResultCache:
    def test_put_get_roundtrip_and_hit_counting(self):
        cache = ResultCache()
        cache.put("k", _result(), table="t")
        assert cache.get("k").sample_name == "s"
        assert cache.stats.hits == 1
        assert cache.get("missing") is None
        assert cache.stats.misses == 1

    def test_invalidate_drops_everything_and_bumps_generation(self):
        cache = ResultCache()
        cache.put("k", _result(), table="t")
        generation = cache.generation
        assert cache.invalidate("rebuild") == 1
        assert cache.generation == generation + 1
        assert cache.get("k") is None

    def test_put_refuses_results_from_an_old_generation(self):
        cache = ResultCache()
        old_generation = cache.generation
        cache.invalidate("rebuild")
        assert cache.put("k", _result(), table="t", generation=old_generation) is False
        assert cache.get("k") is None
        assert cache.put("k", _result(), table="t", generation=cache.generation) is True

    def test_invalidate_table_is_scoped(self):
        cache = ResultCache()
        cache.put("k1", _result(), table="a")
        cache.put("k2", _result(), table="b")
        dropped = cache.invalidate_table("a")
        assert dropped == 1
        # Other tables' answers keep serving; the invalidated table is gone
        # and its in-flight inserts are fenced by the per-table generation.
        assert cache.get("k2") is not None
        assert cache.get("k1") is None
        stale_generation = cache.generation_for("a") - 1
        assert cache.put("k1", _result(), table="a", generation=stale_generation) is False

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", _result(), table="t")
        cache.put("b", _result(), table="t")
        assert cache.get("a") is not None  # refresh a; b becomes LRU
        cache.put("c", _result(), table="t")
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.stats.evictions == 1


# -- metrics --------------------------------------------------------------------------


class TestMetrics:
    def test_histogram_percentiles_are_exact_over_window(self):
        window = SummaryWindow()
        for value in range(1, 101):
            window.observe(value / 100.0)
        summary = window.summary()
        assert summary["p50_s"] == pytest.approx(0.50, abs=0.02)
        assert summary["p95_s"] == pytest.approx(0.95, abs=0.02)
        assert window.count == 100
        assert summary["max_s"] == pytest.approx(1.0)
        assert summary["count"] == 100

    def test_service_metrics_describe_shape(self):
        metrics = ServiceMetrics(MetricsRegistry(), "svc")
        metrics.submitted.inc()
        metrics.cache_hits.inc()
        metrics.record_template("t[a]", cache_hit=True)
        snapshot = metrics.describe(
            {"probe_cache_hits": 3, "blocks_total": 10, "bytes_total": 50, "bytes_scanned": 20},
            {"sessions": {"rows_appended": 7}},
        )
        assert set(snapshot) == {
            "queries", "cache", "probe_cache", "scan", "ingest", "latency", "templates"
        }
        assert snapshot["queries"]["submitted"] == 1
        assert snapshot["cache"]["hits"] == 1
        assert snapshot["cache"]["hit_ratio"] == 1.0
        assert snapshot["probe_cache"] == {"hits": 3, "misses": 0}
        assert snapshot["scan"]["bytes_skipped"] == 30
        assert snapshot["ingest"] == {"sessions": {"rows_appended": 7}}
        assert set(snapshot["latency"]) == {"queue_wait", "service_time", "total", "simulated"}
        assert snapshot["templates"]["t[a]"] == {"queries": 1, "cache_hits": 1}

    def test_service_metrics_are_registry_series(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry, "svc")
        metrics.completed.inc()
        metrics.total_latency.observe(0.25)
        assert registry.get("service_queries").value(service="svc", state="completed") == 1
        latency = registry.get("service_latency_seconds").child(service="svc", stage="total")
        assert latency is metrics.total_latency
        metrics.close()
        assert registry.get("service_queries").samples() == []
        assert registry.get("service_latency_seconds").summaries() == []
        assert metrics.completed.value == 1  # a closed service stays inspectable


# -- session defaults -----------------------------------------------------------------


class TestSessionDefaults:
    def test_error_default_applied_to_unbounded_query(self):
        defaults = SessionDefaults(error_percent=10.0, confidence=0.9)
        query = defaults.apply(parse_query("SELECT COUNT(*) FROM t GROUP BY a"))
        assert query.error_bound is not None
        assert query.error_bound.error == pytest.approx(0.10)
        assert query.error_bound.confidence == pytest.approx(0.9)

    def test_time_default_applied(self):
        defaults = SessionDefaults(time_bound_seconds=5.0)
        query = defaults.apply(parse_query("SELECT COUNT(*) FROM t GROUP BY a"))
        assert query.time_bound is not None
        assert query.time_bound.seconds == 5.0

    def test_explicit_bound_wins_over_defaults(self):
        defaults = SessionDefaults(time_bound_seconds=5.0)
        query = defaults.apply(parse_query("SELECT COUNT(*) FROM t WITHIN 2 SECONDS"))
        assert query.time_bound.seconds == 2.0

    def test_conflicting_defaults_rejected(self):
        with pytest.raises(ValueError):
            SessionDefaults(error_percent=10.0, time_bound_seconds=5.0)


# -- service over a real BlinkDB instance ---------------------------------------------


@pytest.fixture(scope="module")
def service_db(sessions_table):
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=80, min_cap=10, uniform_sample_fraction=0.1),
        cluster=ClusterConfig(num_nodes=20),
    )
    db = BlinkDB(config)
    db.load_table(sessions_table, simulated_rows=20_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


REPEATED_SQL = "SELECT COUNT(*) FROM sessions WHERE city = 'city_0003' GROUP BY os"


class TestServiceMetricsLifecycle:
    def test_closed_service_leaves_nothing_behind(self, service_db):
        """No live object, no registry series, and no counts for a reused name."""
        import gc
        import weakref

        service = service_db.serve(num_workers=1, name="short-lived", cache=False)
        service.execute(REPEATED_SQL)
        service.close()
        ref = weakref.ref(service)
        del service
        gc.collect()
        assert ref() is None
        for name, metric in service_db.metrics().items():
            for series in metric.get("series", []):
                assert series["labels"].get("service") != "short-lived", name

        with service_db.serve(num_workers=1, name="short-lived", cache=False) as reused:
            snapshot = reused.describe()["metrics"]
            assert all(value == 0 for value in snapshot["queries"].values())
            assert snapshot["cache"] == {
                "hits": 0, "misses": 0, "hit_ratio": 0.0, "invalidations": 0
            }
            assert all(stage["count"] == 0 for stage in snapshot["latency"].values())
            assert snapshot["templates"] == {}


class TestQueryService:
    def test_sessions_bound_the_shared_parse_their_own_way(self, service_db):
        """One memoised AST, two sessions' defaults: own bounds, own cache keys."""
        with service_db.serve(num_workers=1, autostart=False) as service:
            loose = service.connect(name="loose", error_percent=20.0)
            tight = service.connect(name="tight", time_bound_seconds=5.0)
            loose_ticket = loose.submit(REPEATED_SQL)
            tight_ticket = tight.submit(REPEATED_SQL)
            assert loose_ticket.query.error_bound.error == pytest.approx(0.20)
            assert loose_ticket.query.time_bound is None
            assert tight_ticket.query.time_bound.seconds == 5.0
            assert tight_ticket.query.error_bound is None
            assert cache_key(loose_ticket.query) != cache_key(tight_ticket.query)
            # apply_defaults built new queries; the memoised one is untouched.
            shared = parse_statement(REPEATED_SQL)
            assert shared.error_bound is None and shared.time_bound is None
            assert loose_ticket.query is not shared and tight_ticket.query is not shared

    def test_repeated_template_served_from_cache(self, service_db):
        with service_db.serve(num_workers=2) as service:
            session = service.connect(name="analyst")
            first = session.execute(REPEATED_SQL)
            second = session.execute(REPEATED_SQL)
            assert second is first  # the very same cached result object
            assert service.metrics.cache_hits.value == 1
            assert service.metrics.cache_misses.value == 1
            tickets = session.history()
            assert tickets[0].cache_hit is False
            assert tickets[1].cache_hit is True

    def test_build_samples_invalidates_cache(self, service_db):
        with service_db.serve(num_workers=2) as service:
            session = service.connect()
            session.execute(REPEATED_SQL)
            misses_before = service.metrics.cache_misses.value
            service_db.build_samples(storage_budget_fraction=0.5)
            assert service.metrics.cache_invalidations.value >= 1
            session.execute(REPEATED_SQL)
            # Served by re-execution, not from the (now stale) cache.
            assert service.metrics.cache_misses.value == misses_before + 1

    def test_replan_samples_invalidates_cache(self, service_db):
        with service_db.serve(num_workers=2) as service:
            session = service.connect()
            session.execute(REPEATED_SQL)
            misses_before = service.metrics.cache_misses.value
            service_db.replan_samples("sessions")
            assert service.metrics.cache_invalidations.value >= 1
            session.execute(REPEATED_SQL)
            assert service.metrics.cache_misses.value == misses_before + 1

    def test_deadline_shedding_under_backlog(self, service_db):
        service = service_db.serve(
            num_workers=1,
            autostart=False,
            cache=False,
            default_predicted_seconds=2.0,
            deadline_slack=0.0,
        )
        try:
            for _ in range(5):
                ticket = service.submit("SELECT COUNT(*) FROM sessions GROUP BY os")
                assert ticket.metrics.admission == "admitted"
            shed = service.submit(f"{REPEATED_SQL} WITHIN 1 SECONDS")
            assert shed.done()
            assert shed.status == "shed"
            with pytest.raises(QueryRejectedError):
                shed.result(timeout=0)
            assert service.metrics.shed_deadline.value == 1
            service.start()
        finally:
            service.close()
        assert service.metrics.completed.value == 5

    def test_ticket_metrics_and_describe(self, service_db):
        with service_db.serve(num_workers=2) as service:
            session = service.connect(name="bob", time_bound_seconds=30.0)
            ticket = session.submit(REPEATED_SQL)
            result = ticket.result(timeout=30)
            assert result.sample_name is not None
            metrics = ticket.metrics
            assert metrics.queue_wait_seconds is not None and metrics.queue_wait_seconds >= 0
            assert metrics.service_seconds is not None and metrics.service_seconds >= 0
            assert metrics.sample_name == result.sample_name
            assert metrics.simulated_latency_seconds is not None
            assert metrics.predicted_latency_seconds is not None
            snapshot = service.describe()
            assert snapshot["metrics"]["queries"]["completed"] >= 1
            assert "scheduler" in snapshot and "cache" in snapshot
            assert session.describe()["queries"] == 1

    def test_connect_on_facade_uses_default_service(self, service_db):
        session = service_db.connect(name="facade-session", error_percent=20.0)
        try:
            result = session.execute(REPEATED_SQL)
            assert len(result) > 0
            assert session.defaults.error_percent == 20.0
        finally:
            session.service.close()
