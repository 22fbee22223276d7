"""Chaos tests: seeded fault plans against real worker processes.

Every scenario drives the *real* machinery — spawned workers that actually
``os._exit``, idle workers killed with SIGKILL, tasks that sleep past their
deadline — and asserts the PR 9 contract: answers are bit-identical to the
serial path or *explicitly* degraded (``metadata["degraded"]``, widened
bars), ``/dev/shm`` never leaks, nothing deadlocks, and the pool is healthy
again afterwards.

Fault schedules are seeded (:class:`~repro.faults.plan.FaultPlan`), so every
run of this suite replays the identical campaign.
"""

from __future__ import annotations

import functools
import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.common.clock import monotonic
from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.engine.executor import QueryExecutor
from repro.engine.kernels import ScanSink
from repro.faults import FaultPlan
from repro.faults import injector as injector_mod
from repro.faults.breaker import CircuitBreaker
from repro.runtime.procpool import ProcessPartitionPool
from repro.sql.parser import parse_query
from repro.storage import shm
from repro.storage.table import Table

pytestmark = pytest.mark.skipif(
    not shm.shared_memory_available(), reason="POSIX shared memory unavailable"
)


def _random_table(seed: int, rows: int = 6_000, name: str = "t"):
    from repro.common.rng import make_rng

    rng = make_rng(seed)
    table = Table.from_dict(
        name,
        {
            "g": [f"g{i}" for i in rng.integers(0, 6, rows)],
            "x": rng.lognormal(2.0, 0.7, rows).tolist(),
            "f": rng.integers(0, 10, rows).tolist(),
        },
    )
    weights = np.where(rng.random(rows) < 0.4, 1.0, rng.uniform(2.0, 30.0, rows))
    return table, weights


POOL_SQL = (
    "SELECT COUNT(*), SUM(x), AVG(x), VARIANCE(x) FROM t WHERE f < 7 GROUP BY g"
)


def _finalize(executor, query, partials, table, weights):
    partials = [p for p in partials if p is not None]
    merged = partials[0]
    for piece in partials[1:]:
        merged = merged.merge(piece)
    return executor.finalize(
        query,
        merged,
        None,
        rows_read=table.num_rows,
        population_read=float(np.sum(weights)),
    )


def _assert_bit_identical(left, right):
    left = {g.key: g for g in left}
    right = {g.key: g for g in right}
    assert set(left) == set(right)
    for key, g in left.items():
        for fn in g.aggregates:
            assert g[fn].value == right[key][fn].value, (key, fn)
            assert (
                g[fn].interval.half_width == right[key][fn].interval.half_width
            ), (key, fn)


def _healing_pool(**kwargs) -> ProcessPartitionPool:
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("retry_backoff_seconds", 0.01)
    return ProcessPartitionPool(**kwargs)


# -- pool-level healing --------------------------------------------------------------


class TestPoolHealing:
    def _run(self, pool, plan_spec, seed=0, partitions=6, timeout=None):
        table, weights = _random_table(43)
        query = parse_query(POOL_SQL)
        executor = QueryExecutor()
        parts = table.partitions(weights=weights, num_partitions=partitions)
        epoch = pool.new_epoch()
        try:
            assert pool.ensure_export(epoch, "chaos", table, weights) is not None
            call = functools.partial(
                pool.map_partitions, query, parts, epoch=epoch, key="chaos",
                table=table, weights=weights, sink=ScanSink(), executor=executor,
                deadline=None if timeout is None else monotonic() + timeout,
            )
            if plan_spec is None:
                shipped, info = call()
            else:
                with injector_mod.installed(FaultPlan.parse(plan_spec, seed=seed)):
                    shipped, info = call()
        finally:
            pool.release_epoch(epoch)
        serial = [executor.partial_aggregate_partition(query, p) for p in parts]
        expected = _finalize(executor, query, serial, table, weights)
        return shipped, expected, info, (executor, query, table, weights)

    def test_worker_crash_is_respawned_and_retried(self, exported_segments):
        pool = _healing_pool(retry_attempts=2, task_timeout_seconds=10.0)
        try:
            assert pool.warm()
            shipped, expected, info, ctx = self._run(
                pool, "procpool.worker_crash:once"
            )
            assert shipped is not None and all(p is not None for p in shipped)
            executor, query, table, weights = ctx
            _assert_bit_identical(
                _finalize(executor, query, shipped, table, weights), expected
            )
            assert info["respawns"] >= 1
            assert info["retries"] >= 1
            assert "fault" in info
            # The pool healed: a clean query runs with zero healing activity.
            shipped, expected, info, ctx = self._run(pool, None)
            assert shipped is not None
            assert info["retries"] == 0 and info["respawns"] == 0
        finally:
            pool.close()
        exported_segments.assert_unlinked()

    def test_sigkilled_idle_worker_heals(self):
        pool = _healing_pool(retry_attempts=2, task_timeout_seconds=10.0)
        try:
            assert pool.warm()
            pids = pool.worker_pids()
            assert pids
            os.kill(pids[0], signal.SIGKILL)
            time.sleep(0.1)
            shipped, expected, info, ctx = self._run(pool, None)
            assert shipped is not None and all(p is not None for p in shipped)
            executor, query, table, weights = ctx
            _assert_bit_identical(
                _finalize(executor, query, shipped, table, weights), expected
            )
            # Whether the dead worker surfaced at submit or at gather, the
            # pool was respawned and the workers, not the calling thread,
            # computed every chunk.
            assert info["respawns"] >= 1
            assert info["thread_redispatches"] == 0
            assert pool.available
        finally:
            pool.close()

    def test_sigkilled_worker_heals_inside_map_calls(self):
        from repro.runtime.procpool import stratum_permutations_task
        from repro.sampling.stratified import stratum_permutations

        table, _ = _random_table(59, rows=2_000)
        column_sets = [("g",), ("g", "f"), ("f",)]
        pool = _healing_pool(retry_attempts=2)
        epoch = pool.new_epoch()
        try:
            assert pool.warm()
            handle = pool.ensure_export(epoch, "perm", table)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.1)
            results = pool.map_calls(
                stratum_permutations_task, [(handle, cols) for cols in column_sets]
            )
            # The broken round respawned the pool and the next round finished
            # every call: no inline fallback was needed.
            assert results is not None
            assert pool.stats()["respawns"] >= 1
            for columns, shipped in zip(column_sets, results):
                inline = stratum_permutations(table, columns)
                assert len(inline) == len(shipped)
                for a, b in zip(inline, shipped):
                    np.testing.assert_array_equal(a, b)
        finally:
            pool.release_epoch(epoch)
            pool.close()

    def test_hung_worker_is_hedged_to_the_thread_path(self):
        pool = _healing_pool(retry_attempts=1, task_timeout_seconds=0.3)
        try:
            assert pool.warm()
            shipped, expected, info, ctx = self._run(
                pool, "procpool.worker_hang:once,latency=5.0"
            )
            assert shipped is not None and all(p is not None for p in shipped)
            executor, query, table, weights = ctx
            _assert_bit_identical(
                _finalize(executor, query, shipped, table, weights), expected
            )
            assert info["hedges"] >= 1
            assert info["thread_redispatches"] >= 1
        finally:
            pool.close()

    def test_exhausted_retries_surrender_partitions_not_answers(self):
        pool = _healing_pool(retry_attempts=0, thread_redispatch=False)
        try:
            assert pool.warm()
            shipped, expected, info, ctx = self._run(
                pool, "shm.attach_fail:nth=1"
            )
            # One chunk's partitions come back as explicit None holes; the
            # other chunk's results are still bitwise-correct partials.
            assert shipped is not None
            assert info["surrendered"] > 0
            assert 0 < sum(1 for p in shipped if p is None) < len(shipped)
            assert "fault" in info
        finally:
            pool.close()

    def test_call_timeout_bounds_a_hung_pool(self):
        pool = _healing_pool(
            retry_attempts=0, task_timeout_seconds=None, thread_redispatch=False
        )
        try:
            assert pool.warm()
            shipped, _, info, _ = self._run(
                pool, "procpool.worker_hang:latency=30.0", timeout=0.5
            )
            # Every chunk hung and nothing could be computed: the 0.5s call
            # deadline, not the 30s the workers sleep, ended the wait, and
            # every partition was surrendered to a wholesale fallback.
            assert shipped is None
            stats = pool.stats()
            assert stats["surrendered"] == 6
            assert "deadline exceeded" in info["fallback_reason"]
            assert stats["fallbacks.worker_hang:_task_deadline_exceeded"] == 1
        finally:
            pool.close()

    def test_breaker_trips_to_threads_and_recovers_via_half_open(self):
        pool = _healing_pool(
            retry_attempts=0,
            thread_redispatch=False,
            breaker_threshold=2,
            breaker_cooldown_seconds=0.2,
        )
        try:
            assert pool.warm()
            with injector_mod.installed(FaultPlan.parse("shm.attach_fail")):
                for _ in range(2):
                    shipped, *_ = self._run(pool, None)
                    assert shipped is None  # every chunk failed
            assert pool.breaker.state == "open"
            shipped, _, info, _ = self._run(pool, None)
            assert shipped is None, "open breaker refuses process admission"
            assert info == {"fallback_reason": "breaker_open"}
            assert pool.stats()["fallbacks.breaker_open"] >= 1
            time.sleep(0.25)
            # Cooldown elapsed: the next query is admitted as the one probe,
            # and its success closes the breaker.
            shipped, expected, info, ctx = self._run(pool, None)
            assert shipped is not None
            assert pool.breaker.state == "closed"
            stats = pool.stats()
            assert stats["breaker_trips"] == 1
            assert stats["breaker_half_opens"] >= 1
        finally:
            pool.close()

    def test_single_partition_query_leaves_the_half_open_slot(self):
        # A one-partition query declines before admission, so after the
        # cooldown it must not take the half-open probe slot: the next
        # multi-partition query is the probe, runs on the workers and closes
        # the breaker (instead of seeing it open for another cooldown).
        now = [0.0]
        pool = _healing_pool(retry_attempts=0, thread_redispatch=False)
        pool.breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=lambda: now[0]
        )
        try:
            assert pool.warm()
            with injector_mod.installed(FaultPlan.parse("shm.attach_fail")):
                shipped, *_ = self._run(pool, None, partitions=4)
            assert shipped is None  # every chunk failed
            assert pool.breaker.state == "open"
            now[0] += 31.0
            shipped, _, info, _ = self._run(pool, None, partitions=1)
            assert shipped is None
            assert info == {"fallback_reason": "single_partition"}
            assert pool.breaker.state == "half-open"
            shipped, expected, info, ctx = self._run(pool, None, partitions=4)
            assert info["backend"] == "processes"
            assert shipped is not None and all(p is not None for p in shipped)
            executor, query, table, weights = ctx
            _assert_bit_identical(
                _finalize(executor, query, shipped, table, weights), expected
            )
            assert pool.breaker.state == "closed"
            stats = pool.stats()
            assert stats["breaker_half_opens"] == 1
            assert "fallbacks.breaker_open" not in stats
        finally:
            pool.close()


# -- facade-level chaos --------------------------------------------------------------


def _build_db(backend: str, **overrides):
    from repro.core.blinkdb import BlinkDB
    from repro.workloads.conviva import conviva_query_templates, generate_sessions_table

    table = generate_sessions_table(num_rows=8_000, seed=11, num_cities=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        config = BlinkDBConfig(
            sampling=SamplingConfig(
                largest_cap=300, min_cap=25, uniform_sample_fraction=0.1
            ),
            cluster=ClusterConfig(num_nodes=8),
            execution_backend=backend,
            procpool_workers=2 if backend == "processes" else 0,
            procpool_retry_backoff_seconds=0.01,
            **overrides,
        )
        db = BlinkDB(config)
    db.load_table(table, simulated_rows=100_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


FACADE_SQL = "SELECT COUNT(*), AVG(session_time) FROM sessions GROUP BY city"


class TestFacadeChaos:
    def test_degraded_answer_is_explicit_and_has_wider_bars(self):
        with _build_db("processes", procpool_retry_attempts=0) as db:
            clean = db.runtime.execute_partitioned(
                FACADE_SQL, num_partitions=6, sim_workers=3
            )
            pool = db._partition_procpool()
            assert pool is not None
            pool.thread_redispatch = False  # force surrender, not redispatch
            with injector_mod.installed(FaultPlan.parse("shm.attach_fail:nth=1")):
                degraded = db.runtime.execute_partitioned(
                    FACADE_SQL, num_partitions=6, sim_workers=3
                )
            info = degraded.metadata["degraded"]
            assert info["surrendered_partitions"] > 0
            assert "fault" in info and info["fault"]
            assert degraded.metadata["backend_info"]["backend"] == "processes"
            # Survivor-only coverage: the merge dropped the surrendered
            # partitions and says so.
            stats = degraded.metadata["partitions"]
            assert stats.merged_partitions == (
                stats.num_partitions - info["surrendered_partitions"]
            )
            assert stats.coverage_population_fraction < 1.0
            assert clean.metadata["partitions"].coverage_population_fraction == 1.0
            # Bars widen with the lost coverage.  Per-group monotonicity is
            # not guaranteed (a survivor subset can have lower variance for
            # one group), so assert the aggregate picture: the worst-case
            # error grew and the overwhelming majority of bars widened.
            assert degraded.max_relative_error() > clean.max_relative_error()
            clean_groups = {g.key: g for g in clean.groups}
            bars = [
                (g[fn].interval.half_width, clean_groups[g.key][fn].interval.half_width)
                for g in degraded.groups
                for fn in g.aggregates
            ]
            wider = sum(1 for d, c in bars if d > c)
            assert wider > 0.75 * len(bars)

    def test_every_partition_surrendered_raises_not_lies(self):
        with _build_db("processes", procpool_retry_attempts=0) as db:
            pool = db._partition_procpool()
            pool.thread_redispatch = False
            with injector_mod.installed(FaultPlan.parse("shm.attach_fail")):
                # All chunks fail and nothing can be computed on the process
                # path; map_partitions returns None, so the pipeline falls
                # back to threads wholesale and still answers correctly.
                result = db.runtime.execute_partitioned(
                    FACADE_SQL, num_partitions=6, sim_workers=3
                )
            assert result.metadata["backend_info"]["backend"] in ("threads", "inline")
            assert "fallback_reason" in result.metadata["backend_info"]

    def test_sigkilled_workers_leak_nothing_on_close(self, exported_segments):
        db = _build_db("processes")
        try:
            result = db.runtime.execute_partitioned(
                FACADE_SQL, num_partitions=4, sim_workers=2
            )
            assert result.metadata["backend_info"]["backend"] == "processes"
            pool = db._partition_procpool()
            pids = pool.worker_pids()
            assert pids
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.1)
        finally:
            db.close()
            db.close()  # idempotent
        # SIGKILLed workers must not leak segments.
        exported_segments.assert_unlinked()

    def test_breaker_fallback_reason_reaches_metadata_and_metrics(self):
        with _build_db(
            "processes",
            procpool_retry_attempts=0,
            procpool_breaker_threshold=2,
            procpool_breaker_cooldown_seconds=30.0,
        ) as db:
            pool = db._partition_procpool()
            pool.thread_redispatch = False
            with injector_mod.installed(FaultPlan.parse("shm.attach_fail")):
                for _ in range(2):
                    db.runtime.execute_partitioned(
                        FACADE_SQL, num_partitions=6, sim_workers=3
                    )
            assert pool.breaker.state == "open"
            # Injector gone, but the breaker remembers: the next query is
            # refused admission and runs on threads, with the reason visible.
            result = db.runtime.execute_partitioned(
                FACADE_SQL, num_partitions=6, sim_workers=3
            )
            info = result.metadata["backend_info"]
            assert info["backend"] in ("threads", "inline")
            assert info["fallback_reason"] == "breaker_open"
            gauges = db.metrics()["procpool"]
            series = {s["labels"]["name"]: s["value"] for s in gauges["series"]}
            assert series["breaker_trips"] == 1
            assert series["breaker_state"] == 2  # open
            assert series["fallbacks.breaker_open"] >= 1

    def test_single_partition_declines_to_identical_thread_answer(self):
        with _build_db("processes") as db_p, _build_db("threads") as db_t:
            processes = db_p.runtime.execute_partitioned(
                FACADE_SQL, num_partitions=1, sim_workers=1
            )
            threads = db_t.runtime.execute_partitioned(
                FACADE_SQL, num_partitions=1, sim_workers=1
            )
            _assert_bit_identical(processes.groups, threads.groups)
            info = processes.metadata["backend_info"]
            assert info["backend"] in ("threads", "inline")
            assert info["fallback_reason"] == "single_partition"


# -- randomized seeded campaigns -----------------------------------------------------

CHAOS_PLAN = (
    "procpool.worker_crash:p=0.3;"
    " shm.attach_fail:p=0.2;"
    " service.slow_worker:p=0.2,latency=0.01"
)

CHAOS_QUERIES = [
    "SELECT COUNT(*), AVG(session_time) FROM sessions GROUP BY city",
    "SELECT SUM(session_time) FROM sessions WHERE city = 'city_0003' GROUP BY os",
    "SELECT COUNT(*), VARIANCE(session_time) FROM sessions GROUP BY os",
]


class TestChaosCampaigns:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_seeded_campaign_is_bit_identical_or_explicitly_degraded(
        self, seed, exported_segments
    ):
        with _build_db("processes") as chaos_db, _build_db("threads") as twin_db:
            expected = {
                sql: twin_db.runtime.execute_partitioned(
                    sql, num_partitions=6, sim_workers=3
                )
                for sql in CHAOS_QUERIES
            }
            with injector_mod.installed(FaultPlan.parse(CHAOS_PLAN, seed=seed)):
                for sql in CHAOS_QUERIES:
                    result = chaos_db.runtime.execute_partitioned(
                        sql, num_partitions=6, sim_workers=3
                    )
                    if "degraded" in result.metadata:
                        assert (
                            result.metadata["degraded"]["surrendered_partitions"] > 0
                        )
                        continue
                    _assert_bit_identical(result.groups, expected[sql].groups)
            # Campaign over: the pool must be healthy again (no lingering
            # faults, no deadlock) and answer bit-identically.
            after = chaos_db.runtime.execute_partitioned(
                CHAOS_QUERIES[0], num_partitions=6, sim_workers=3
            )
            _assert_bit_identical(after.groups, expected[CHAOS_QUERIES[0]].groups)
            pool = chaos_db._partition_procpool()
            assert pool is not None and pool.available
        # The chaos campaign must not leak /dev/shm.
        exported_segments.assert_unlinked()


# -- wire-level chaos ----------------------------------------------------------------

WIRE_CHAOS_PLAN = (
    "net.request_drop:p=0.3;"
    " net.slow_response:p=0.3,latency=0.02;"
    " service.slow_worker:p=0.2,latency=0.01"
)


class TestWireChaos:
    @pytest.mark.parametrize("seed", [7, 31])
    def test_lossy_wire_campaign_still_answers_bit_identically(self, seed):
        """Dropped sockets and slowed responses never corrupt an answer.

        The retrying client re-submits idempotent queries through a fault
        plan that severs ~30% of requests mid-flight and delays another
        ~30%; every answer that does come back must be bit-identical to the
        clean in-process result — a transport fault may cost latency or a
        retry, never correctness.
        """
        from repro.net.client import Client, TransportError

        with _build_db("threads") as db:
            expected = {sql: db.query(sql) for sql in CHAOS_QUERIES}
            server = db.serve_network(num_workers=2)
            answered = 0
            transport_failures = 0
            with injector_mod.installed(FaultPlan.parse(WIRE_CHAOS_PLAN, seed=seed)):
                with Client(
                    server.host,
                    server.port,
                    retries=8,
                    retry_backoff_seconds=0.01,
                    retry_backoff_cap_seconds=0.05,
                ) as client:
                    for _ in range(3):
                        for sql in CHAOS_QUERIES:
                            try:
                                wire = client.query(sql, timeout=30)
                            except TransportError:
                                # Statistically possible (8 straight drops)
                                # but it must stay an *explicit* failure.
                                transport_failures += 1
                                continue
                            answered += 1
                            _assert_bit_identical(
                                wire.groups, expected[sql].groups
                            )
                    retries_seen = client.stats["retries"] + client.stats[
                        "transport_errors"
                    ]
            assert answered > 0, "campaign must land at least one answer"
            assert retries_seen > 0, (
                "a p=0.3 drop plan over 9 queries should exercise the retry path"
            )
            # Faults cleared: the wire is healthy again, no residual latency
            # injection, and the server still answers bit-identically.
            with Client(server.host, server.port, retries=0) as client:
                after = client.query(CHAOS_QUERIES[0], timeout=30)
            _assert_bit_identical(after.groups, expected[CHAOS_QUERIES[0]].groups)
