"""Unit tests for the fault-injection harness.

Covers the :mod:`repro.faults` package itself — plan parsing, deterministic
seeded decisions, the installation plumbing, and the circuit breaker state
machine — plus the injection points: the ingest write path (with the
controller's retry/re-queue policy), the service layer's retry loop and
slow-worker point, and the process pool's chunk-dispatch points (the only
tests here that need POSIX shared memory).
"""

from __future__ import annotations

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.common.errors import ExecutionError, QueryRejectedError
from repro.core.blinkdb import BlinkDB
from repro.faults import (
    KNOWN_POINTS,
    CircuitBreaker,
    FaultInjectedError,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.faults import injector as injector_mod
from repro.ingest.controller import IngestController
from repro.service.server import QueryService
from repro.storage import shm
from repro.storage.table import Table
from repro.workloads.conviva import conviva_query_templates


# -- plan parsing -------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_full_syntax(self):
        plan = FaultPlan.parse(
            "procpool.worker_crash:nth=2; shm.attach_fail:p=0.3;"
            " service.slow_worker:latency=0.05,once; ingest.batch_fail:limit=4",
            seed=7,
        )
        assert plan.seed == 7
        crash, attach, slow, batch = plan.rules
        assert crash == FaultRule("procpool.worker_crash", nth=2)
        assert attach == FaultRule("shm.attach_fail", probability=0.3)
        assert slow == FaultRule("service.slow_worker", latency_seconds=0.05, limit=1)
        assert batch == FaultRule("ingest.batch_fail", limit=4)
        assert plan.points == {
            "procpool.worker_crash",
            "shm.attach_fail",
            "service.slow_worker",
            "ingest.batch_fail",
        }
        assert plan.rules_for("shm.attach_fail") == ((1, attach),)

    def test_empty_clauses_are_skipped(self):
        assert FaultPlan.parse("; ;shm.alloc_fail; ").rules == (
            FaultRule("shm.alloc_fail"),
        )

    def test_typoed_point_fails_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan.parse("procpool.worker_crsh:nth=1")

    def test_bad_options_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.parse("shm.attach_fail:frequency=2")
        with pytest.raises(ValueError, match="bad fault option"):
            FaultPlan.parse("shm.attach_fail:always")

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="not both"):
            FaultRule("shm.attach_fail", nth=2, probability=0.5)
        with pytest.raises(ValueError, match="probability"):
            FaultRule("shm.attach_fail", probability=1.5)
        with pytest.raises(ValueError, match="limit"):
            FaultRule("shm.attach_fail", limit=0)
        with pytest.raises(ValueError, match="latency"):
            FaultRule("shm.attach_fail", latency_seconds=-1.0)
        with pytest.raises(ValueError, match="nth"):
            FaultRule("shm.attach_fail", nth=-1)

    def test_known_points_cover_every_layer(self):
        assert KNOWN_POINTS == {
            "procpool.worker_crash",
            "procpool.worker_hang",
            "shm.attach_fail",
            "shm.alloc_fail",
            "ingest.batch_fail",
            "service.slow_worker",
            "net.request_drop",
            "net.slow_response",
        }


# -- injector decisions -------------------------------------------------------------


class TestFaultInjector:
    def test_nth_fires_on_exactly_the_nth_arrival(self):
        injector = FaultInjector(FaultPlan.parse("ingest.batch_fail:nth=3"))
        fired = [injector.check("ingest.batch_fail") is not None for _ in range(6)]
        assert fired == [False, False, True, False, False, False]

    def test_once_is_one_shot(self):
        injector = FaultInjector(FaultPlan.parse("ingest.batch_fail:once"))
        fired = [injector.check("ingest.batch_fail") is not None for _ in range(4)]
        assert fired == [True, False, False, False]

    def test_limit_bounds_total_fires(self):
        injector = FaultInjector(FaultPlan.parse("ingest.batch_fail:limit=2"))
        fired = [injector.check("ingest.batch_fail") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_probability_is_deterministic_per_seed(self):
        spec = "ingest.batch_fail:p=0.5"

        def pattern(seed: int) -> list[bool]:
            injector = FaultInjector(FaultPlan.parse(spec, seed=seed))
            return [
                injector.check("ingest.batch_fail") is not None for _ in range(200)
            ]

        first, again = pattern(11), pattern(11)
        assert first == again, "same seed must replay the same fault schedule"
        assert 50 < sum(first) < 150, "p=0.5 should fire roughly half the time"
        assert pattern(12) != first, "a different seed draws a different schedule"

    def test_unconditional_rule_fires_every_arrival(self):
        injector = FaultInjector(FaultPlan.parse("shm.alloc_fail"))
        assert all(injector.check("shm.alloc_fail") is not None for _ in range(5))
        assert injector.check("shm.attach_fail") is None

    def test_first_matching_rule_wins_and_latency_rides_the_decision(self):
        plan = FaultPlan.parse(
            "service.slow_worker:nth=1,latency=0.25; service.slow_worker:latency=9.0"
        )
        injector = FaultInjector(plan)
        first = injector.check("service.slow_worker")
        second = injector.check("service.slow_worker")
        assert first is not None and first.rule_index == 0
        assert first.latency_seconds == 0.25
        assert second is not None and second.rule_index == 1
        assert second.latency_seconds == 9.0

    def test_decision_error_is_a_picklable_execution_error(self):
        import pickle

        injector = FaultInjector(FaultPlan.parse("shm.alloc_fail:once"))
        decision = injector.check("shm.alloc_fail")
        error = decision.error("exporting 't'")
        assert isinstance(error, FaultInjectedError)
        assert isinstance(error, ExecutionError)
        assert "shm.alloc_fail" in str(error) and "exporting 't'" in str(error)
        revived = pickle.loads(pickle.dumps(error))
        assert str(revived) == str(error)

    def test_stats_expose_arrivals_and_fires(self):
        injector = FaultInjector(FaultPlan.parse("ingest.batch_fail:nth=2"))
        for _ in range(3):
            injector.check("ingest.batch_fail")
        assert injector.stats() == {
            "ingest.batch_fail.arrivals": 3,
            "ingest.batch_fail.fires": 1,
        }


class TestInstallation:
    def test_install_active_uninstall(self):
        assert injector_mod.active() is None
        injector = injector_mod.install(FaultPlan.parse("shm.alloc_fail"))
        try:
            assert injector_mod.active() is injector
        finally:
            injector_mod.uninstall()
        assert injector_mod.active() is None

    def test_installed_restores_the_previous_injector(self):
        outer = injector_mod.install(FaultPlan.parse("shm.alloc_fail"))
        try:
            with injector_mod.installed(FaultPlan.parse("ingest.batch_fail")) as inner:
                assert injector_mod.active() is inner
            assert injector_mod.active() is outer
        finally:
            injector_mod.uninstall()

    def test_config_installs_a_plan_at_construction(self):
        try:
            db = BlinkDB(
                BlinkDBConfig(fault_plan="ingest.batch_fail:nth=99", fault_seed=5)
            )
            injector = injector_mod.active()
            assert injector is not None
            assert injector.plan.seed == 5
            assert injector.plan.points == {"ingest.batch_fail"}
            db.close()
        finally:
            injector_mod.uninstall()


# -- circuit breaker ----------------------------------------------------------------


class _ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = _ManualClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=10.0, clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_half_open_probe_success_closes(self):
        clock = _ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        assert breaker.allow(), "cooldown elapsed: exactly one probe is admitted"
        assert not breaker.allow(), "the probe slot is taken"
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.half_opens == 1

    def test_half_open_probe_failure_reopens_and_restarts_cooldown(self):
        clock = _ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow(), "the failed probe restarted the cooldown"
        clock.advance(0.1)
        assert breaker.allow()

    def test_stale_probe_is_reclaimed_after_a_full_cooldown(self):
        # An admitted probe query can decline the backend before exercising
        # it (stale handle, single partition) and never report back; the
        # breaker must not stay wedged open forever.
        clock = _ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()  # probe taken, never reported
        clock.advance(5.0)
        assert breaker.allow(), "stale probe slot is reclaimed"
        assert breaker.half_opens == 2

    def test_state_property_does_not_consume_the_probe(self):
        clock = _ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        for _ in range(3):
            assert breaker.state == "half-open"
        assert breaker.half_opens == 0

    def test_stats_are_flat_and_numeric(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        stats = breaker.stats()
        assert stats == {
            "breaker_state": 0,
            "breaker_trips": 0,
            "breaker_half_opens": 0,
            "breaker_consecutive_failures": 1,
        }
        assert all(isinstance(v, int) for v in stats.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown_seconds=-1.0)


# -- configuration ------------------------------------------------------------------


class TestFaultConfigValidation:
    @pytest.mark.parametrize(
        ("field", "bad"),
        [
            ("procpool_task_timeout_seconds", 0.0),
            ("procpool_retry_attempts", -1),
            ("procpool_retry_backoff_seconds", -0.1),
            ("procpool_breaker_threshold", 0),
            ("procpool_breaker_cooldown_seconds", -1.0),
            ("service_retries", -1),
            ("service_retry_backoff_seconds", -0.1),
            ("ingest_flush_retries", -1),
        ],
    )
    def test_robustness_knobs_are_checked(self, field, bad):
        with pytest.raises(ValueError, match=field):
            BlinkDBConfig(**{field: bad})
        BlinkDBConfig()  # defaults are valid

    def test_task_timeout_none_disables_detection(self):
        config = BlinkDBConfig(procpool_task_timeout_seconds=None)
        assert config.procpool_task_timeout_seconds is None

    def test_bad_fault_plan_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            BlinkDB(BlinkDBConfig(fault_plan="nonsense.point"))


# -- the ingest write path ----------------------------------------------------------


def _tiny_db(**config_kwargs) -> BlinkDB:
    db = BlinkDB(BlinkDBConfig(**config_kwargs))
    table = Table.from_dict(
        "t",
        {
            "g": ["a", "b", "a", "b", "a", "b", "a", "b"],
            "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        },
    )
    db.load_table(table)
    return db


_ROWS = [{"g": "a", "x": 9.0}, {"g": "b", "x": 10.0}]


class TestIngestFaults:
    def test_batch_fail_publishes_nothing_and_is_retry_safe(self):
        db = _tiny_db()
        try:
            generation = db.catalog.generation("t")
            rows_before = db.catalog.table("t").num_rows
            with injector_mod.installed(FaultPlan.parse("ingest.batch_fail:once")):
                with pytest.raises(FaultInjectedError, match="ingest.batch_fail"):
                    db.append("t", _ROWS)
                assert db.catalog.generation("t") == generation
                assert db.catalog.table("t").num_rows == rows_before
                # The fault was one-shot: the identical batch lands cleanly.
                report = db.append("t", _ROWS)
            assert report.batch_rows == 2
            assert db.catalog.table("t").num_rows == rows_before + 2
            assert db.catalog.generation("t") > generation
        finally:
            db.close()

    def test_controller_flush_retry_heals_a_transient_failure(self):
        db = _tiny_db(ingest_flush_retries=2)
        try:
            controller = db.ingest_controller("t", batch_rows=2, background=False)
            with injector_mod.installed(FaultPlan.parse("ingest.batch_fail:nth=1")):
                controller.submit(_ROWS)
                controller.flush()
            assert controller.retries_total == 1
            assert controller.pending_rows == 0
            assert db.catalog.table("t").num_rows == 10
            controller.close()
        finally:
            db.close()

    def test_controller_requeues_rows_when_every_retry_fails(self):
        db = _tiny_db()
        try:
            # batch_rows above the submission size: submit() never flushes
            # inline, so the failure surfaces from the explicit flush().
            controller = IngestController(
                db, "t", batch_rows=4, background=False,
                flush_retries=1, retry_backoff_seconds=0.0,
            )
            with injector_mod.installed(FaultPlan.parse("ingest.batch_fail")):
                controller.submit(_ROWS)
                with pytest.raises(FaultInjectedError):
                    controller.flush()
            # Nothing lost: the drained rows are back at the front.
            assert controller.pending_rows == 2
            assert db.catalog.table("t").num_rows == 8
            controller.flush()  # injector gone: the same rows land
            assert db.catalog.table("t").num_rows == 10
        finally:
            db.close()


# -- the service layer --------------------------------------------------------------


def _service(db: BlinkDB, **kwargs) -> QueryService:
    kwargs.setdefault("num_workers", 1)
    kwargs.setdefault("cache", False)
    kwargs.setdefault("retry_backoff_seconds", 0.0)
    return QueryService(db, **kwargs)


_SQL = "SELECT AVG(x) FROM t"


class TestServiceFaults:
    def test_slow_worker_injects_latency_but_not_failure(self, monkeypatch):
        db = _tiny_db()
        try:
            # The tiny db has no samples; serve the query from the exact
            # path (the slow_worker point fires in the worker loop, before
            # execution, so the injection is exercised either way).
            monkeypatch.setattr(
                db.runtime,
                "execute",
                lambda query, **kwargs: db.runtime.execute_exact(query),
            )
            with injector_mod.installed(
                FaultPlan.parse("service.slow_worker:latency=0.05,once")
            ) as injector:
                with _service(db) as service:
                    result = service.execute(_SQL, timeout=30.0)
                assert result.groups
                assert injector.stats()["service.slow_worker.fires"] == 1
        finally:
            db.close()

    def test_transient_execution_failure_is_retried(self, monkeypatch):
        db = _tiny_db()
        try:
            calls = {"n": 0}

            def flaky(query, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient worker fault")
                return db.runtime.execute_exact(query)

            monkeypatch.setattr(db.runtime, "execute", flaky)
            with _service(db, retries=1) as service:
                result = service.execute(_SQL, timeout=30.0)
                assert result.groups
                assert service.metrics.retries.value == 1
                assert service.metrics.failed.value == 0
        finally:
            db.close()

    def test_exhausted_retries_fail_the_ticket(self, monkeypatch):
        db = _tiny_db()
        try:
            def always_broken(query, **kwargs):
                raise RuntimeError("persistent fault")

            monkeypatch.setattr(db.runtime, "execute", always_broken)
            with _service(db, retries=2) as service:
                ticket = service.submit(_SQL)
                with pytest.raises(RuntimeError, match="persistent fault"):
                    ticket.result(timeout=30.0)
                assert ticket.status == "failed"
                assert service.metrics.retries.value == 2
                assert service.metrics.failed.value == 1
        finally:
            db.close()

    def test_admission_rejections_are_never_retried(self, monkeypatch):
        db = _tiny_db()
        try:
            def rejected(query, **kwargs):
                raise QueryRejectedError("no resolution fits", reason="deadline")

            monkeypatch.setattr(db.runtime, "execute", rejected)
            with _service(db, retries=5) as service:
                ticket = service.submit(_SQL)
                with pytest.raises(QueryRejectedError):
                    ticket.result(timeout=30.0)
                assert ticket.status == "shed"
                assert service.metrics.retries.value == 0
        finally:
            db.close()

    def test_service_retries_default_from_config(self):
        db = _tiny_db(service_retries=3, service_retry_backoff_seconds=0.0)
        try:
            with _service(db) as service:
                assert service.retries == 3
                assert service.retry_backoff_seconds == 0.0
        finally:
            db.close()


# -- the process pool's dispatch points ---------------------------------------------

#: A rule at every procpool dispatch point that can never fire (``nth`` is far
#: beyond any arrival here): every chunk pays the arrival-counting path, and
#: no query may notice.
_INERT_PLAN = (
    "procpool.worker_crash:nth=1000000000;"
    " procpool.worker_hang:nth=1000000000;"
    " shm.attach_fail:nth=1000000000"
)
_DISPATCH_POINTS = ("procpool.worker_crash", "procpool.worker_hang", "shm.attach_fail")
_PARTITIONED_SQL = "SELECT COUNT(*), AVG(session_time) FROM sessions GROUP BY city"


def _bits(result):
    return [
        (group.key, name, agg.estimate.value, agg.estimate.variance, agg.interval.half_width)
        for group in result.groups
        for name, agg in sorted(group.aggregates.items())
    ]


class TestProcpoolFaults:
    @pytest.mark.skipif(
        not shm.shared_memory_available(), reason="POSIX shared memory unavailable"
    )
    def test_inert_plan_is_consulted_at_every_dispatch_point(self, sessions_table):
        db = BlinkDB(
            BlinkDBConfig(
                sampling=SamplingConfig(
                    largest_cap=300, min_cap=25, uniform_sample_fraction=0.1
                ),
                cluster=ClusterConfig(num_nodes=8),
                execution_backend="processes",
                procpool_workers=2,
            )
        )
        try:
            db.load_table(sessions_table, simulated_rows=100_000_000)
            db.register_workload(templates=conviva_query_templates())
            db.build_samples(storage_budget_fraction=0.5)

            def run():
                return db.runtime.execute_partitioned(
                    _PARTITIONED_SQL, num_partitions=8, sim_workers=4
                )

            plain = run()
            with injector_mod.installed(FaultPlan.parse(_INERT_PLAN)) as injector:
                inert = run()
            stats = injector.stats()
            for point in _DISPATCH_POINTS:
                assert stats[f"{point}.arrivals"] > 0, stats
                assert stats.get(f"{point}.fires", 0) == 0, stats
            assert plain.groups
            assert _bits(inert) == _bits(plain)
        finally:
            db.close()


# -- metrics surface ----------------------------------------------------------------


class TestFaultMetrics:
    def test_injector_counters_land_in_db_metrics(self):
        db = _tiny_db()
        try:
            with injector_mod.installed(FaultPlan.parse("ingest.batch_fail:once")):
                with pytest.raises(FaultInjectedError):
                    db.append("t", _ROWS)
                gauges = db.metrics()["faults"]
                series = {s["labels"]["name"]: s["value"] for s in gauges["series"]}
            assert series["ingest.batch_fail.arrivals"] == 1
            assert series["ingest.batch_fail.fires"] == 1
        finally:
            db.close()

    def test_service_retries_land_in_db_metrics(self, monkeypatch):
        db = _tiny_db()
        try:
            calls = {"n": 0}

            def flaky(query, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient")
                return db.runtime.execute_exact(query)

            monkeypatch.setattr(db.runtime, "execute", flaky)
            with _service(db, retries=1, name="svc") as service:
                service.execute(_SQL, timeout=30.0)
                gauges = db.metrics()["faults"]
                series = {s["labels"]["name"]: s["value"] for s in gauges["series"]}
                assert series["service.svc.retries"] == 1
        finally:
            db.close()
