"""Concurrency tests: parallel queries match serial answers; rebuilds fence caches."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.service.loadgen import mixed_bound_trace, run_closed_loop
from repro.workloads.conviva import conviva_query_templates
from repro.workloads.tracegen import generate_trace


@pytest.fixture(scope="module")
def concurrent_db(sessions_table):
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=80, min_cap=10, uniform_sample_fraction=0.1),
        cluster=ClusterConfig(num_nodes=20),
    )
    db = BlinkDB(config)
    db.load_table(sessions_table, simulated_rows=20_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


@pytest.fixture(scope="module")
def trace(sessions_table):
    return generate_trace(
        conviva_query_templates(),
        sessions_table,
        num_queries=16,
        seed=29,
        measure_columns=("session_time", "jointimems"),
    )


def _answers(result):
    """Flatten a QueryResult into comparable (key, name, value, error) rows."""
    return [
        (group.key, name, aggregate.value, aggregate.error_bar)
        for group in result.groups
        for name, aggregate in sorted(group.aggregates.items())
    ]


class TestConcurrentQueries:
    def test_threaded_query_matches_serial(self, concurrent_db, trace):
        serial = [_answers(concurrent_db.query(sql)) for sql in trace]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda sql: _answers(concurrent_db.query(sql)), trace))
        assert threaded == serial

    def test_service_answers_match_direct_queries(self, concurrent_db, trace):
        direct = [_answers(concurrent_db.query(sql)) for sql in trace]
        with concurrent_db.serve(num_workers=4, cache=False) as service:
            tickets = [service.submit(sql) for sql in trace]
            served = [_answers(ticket.result(timeout=60)) for ticket in tickets]
        assert served == direct

    def test_runtime_stats_count_concurrent_executions(self, concurrent_db, trace):
        runtime = concurrent_db.runtime
        before = runtime.stats["queries_executed"]
        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(concurrent_db.query, trace))
        assert runtime.stats["queries_executed"] == before + len(trace)

    def test_closed_loop_load_completes_everything(self, concurrent_db, sessions_table):
        queries = mixed_bound_trace(
            conviva_query_templates(),
            sessions_table,
            num_queries=24,
            seed=5,
            time_bounds=(20.0, 40.0),
        )
        with concurrent_db.serve(num_workers=4, max_queue_depth=None) as service:
            report = run_closed_loop(
                lambda i: service.connect(name=f"analyst-{i}").execute,
                queries,
                num_clients=6,
                timeout=120,
            )
            metrics = service.metrics
            shed = (
                metrics.shed_deadline.value
                + metrics.shed_queue_full.value
                + metrics.shed_quota.value
            )
            # Admission accounting is exact: every statement the clients sent
            # was served from the cache, admitted, or shed.
            assert metrics.submitted.value == 24
            assert metrics.cache_hits.value + metrics.admitted.value + shed == 24
        assert report.submitted == 24
        assert report.completed + report.shed + report.failed == 24
        assert report.failed == 0
        assert report.completed > 0
        assert report.shed == shed
        # One row per statement: client i issued queries[i::6], in order.
        for index in range(6):
            client_rows = [row for row in report.rows if row.client == index]
            assert [row.sql for row in client_rows] == queries[index::6]
        assert all(
            (row.result is not None) == (row.outcome == "completed") for row in report.rows
        )

    def test_rebuild_between_queries_is_not_served_stale(self, concurrent_db):
        sql = "SELECT AVG(session_time) FROM sessions WHERE country = 'country_0003' GROUP BY dt"
        with concurrent_db.serve(num_workers=2) as service:
            session = service.connect()
            session.execute(sql)
            session.execute(sql)
            assert service.metrics.cache_hits.value == 1
            generation_before = service.cache.generation
            concurrent_db.build_samples(storage_budget_fraction=0.5)
            assert service.cache.generation > generation_before
            assert len(service.cache) == 0
            fresh = session.execute(sql)
            # The post-rebuild answer was recomputed (a miss), and it matches
            # a direct query against the rebuilt samples.
            assert service.metrics.cache_misses.value == 2
            assert _answers(fresh) == _answers(concurrent_db.query(sql))

    def test_concurrent_queries_during_rebuild_stay_consistent(self, concurrent_db, trace):
        """Queries racing a sample rebuild neither crash nor deadlock."""
        errors: list[BaseException] = []

        def worker(sql: str) -> None:
            try:
                concurrent_db.query(sql)
            except BaseException as error:  # noqa: BLE001 - recorded for the assert
                errors.append(error)

        with ThreadPoolExecutor(max_workers=8) as pool:
            for sql in trace:
                pool.submit(worker, sql)
            concurrent_db.build_samples(storage_budget_fraction=0.5)
        assert not errors
