"""Integration tests for the process-parallel backend.

Covers the three layers of the tentpole end to end on this machine:

* :mod:`repro.storage.shm` — exporting a table into shared memory and
  attaching it back (plain and per-block-encoded columns, dictionary
  columns, weights, zone-map metadata), with no ``/dev/shm`` leaks.
* :class:`~repro.runtime.procpool.ProcessPartitionPool` — real spawned
  workers aggregating shared partitions and shipping back partial states
  that finalize bit-identically to the serial path; epoch-fenced segment
  lifecycle; graceful decline paths (joins, stale handles).
* The facade — ``execution_backend="processes"`` produces the same answers
  as threads through ``BlinkDB``, ``close()`` is idempotent, the context
  manager tears everything down, and configuration knobs validate.

The pool is spawn-based, so worker startup costs a second or two; the
module shares one pool across tests to pay it once.
"""

import os
import warnings

import numpy as np
import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.common.rng import make_rng
from repro.engine.executor import QueryExecutor
from repro.engine.kernels import ScanSink
from repro.runtime.procpool import ProcessPartitionPool, stratum_permutations_task
from repro.sql.parser import parse_query
from repro.storage import shm
from repro.storage.encodings import encode_table
from repro.storage.table import Table

pytestmark = pytest.mark.skipif(
    not shm.shared_memory_available(), reason="POSIX shared memory unavailable"
)


def _random_table(seed: int, rows: int = 6_000, name: str = "t") -> tuple[Table, np.ndarray]:
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


@pytest.fixture(scope="module")
def pool():
    pool = ProcessPartitionPool(max_workers=2)
    assert pool.warm()
    yield pool
    pool.close()


# -- shared-memory export/attach ----------------------------------------------------


class TestShmRoundTrip:
    @pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
    def test_export_attach_round_trip(self, encoded, exported_segments):
        table, weights = _random_table(29)
        if encoded:
            table = encode_table(table, block_rows=512)
        export = shm.export_table(table, weights)
        attached = shm.attach_table(export.handle)
        try:
            assert attached.table.name == table.name
            assert attached.table.num_rows == table.num_rows
            for name in ("g", "x", "f"):
                np.testing.assert_array_equal(
                    attached.table.column(name).values(), table.column(name).values()
                )
            np.testing.assert_array_equal(attached.weights, weights)
        finally:
            attached.close()
            export.close()
        exported_segments.assert_unlinked()

    def test_attach_close_never_unlinks(self):
        table, _ = _random_table(31, rows=500)
        export = shm.export_table(table)
        attached = shm.attach_table(export.handle)
        attached.close()
        # The parent owns the unlink: a second attach must still work.
        again = shm.attach_table(export.handle)
        assert again.table.num_rows == table.num_rows
        again.close()
        export.close()

    def test_export_close_is_idempotent(self, exported_segments):
        table, _ = _random_table(37, rows=200)
        export = shm.export_table(table)
        export.close()
        export.close()
        exported_segments.assert_unlinked()


# -- the worker pool ----------------------------------------------------------------

POOL_SQL = (
    "SELECT COUNT(*), SUM(x), AVG(x), VARIANCE(x), QUANTILE(x, 0.5) "
    "FROM t WHERE f < 7 GROUP BY g"
)


def _finalize(executor, query, partials, table, weights):
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


class TestProcessPartitionPool:
    @pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
    def test_worker_partials_bitwise_match_serial(self, pool, encoded):
        table, weights = _random_table(43)
        if encoded:
            table = encode_table(table, block_rows=512)
        query = parse_query(POOL_SQL)
        executor = QueryExecutor()
        partitions = table.partitions(weights=weights, num_partitions=6)
        epoch = pool.new_epoch()
        try:
            shipped, info = pool.map_partitions(
                query, partitions, epoch=epoch, key="test", table=table,
                weights=weights, sink=ScanSink(), executor=executor,
            )
            assert shipped is not None and len(shipped) == len(partitions)
            assert info["backend"] == "processes"
        finally:
            pool.release_epoch(epoch)
        serial = [executor.partial_aggregate_partition(query, p) for p in partitions]
        for g_serial, g_shipped in zip(
            _finalize(executor, query, serial, table, weights),
            _finalize(executor, query, shipped, table, weights),
        ):
            assert g_serial.key == g_shipped.key
            for fn in g_serial.aggregates:
                assert g_serial[fn].value == g_shipped[fn].value, fn
                assert (
                    g_serial[fn].interval.half_width
                    == g_shipped[fn].interval.half_width
                ), fn

    def test_counters_and_shipped_bytes_are_compact(self, pool):
        table, weights = _random_table(47)
        # Scalar states only: each partial is a handful of fixed-size moment
        # sets per group, so the wire size is O(groups × aggregates) exactly
        # (the quantile sketch adds a capped but larger term, tested above).
        query = parse_query(
            "SELECT COUNT(*), SUM(x), AVG(x), VARIANCE(x) FROM t WHERE f < 7 GROUP BY g"
        )
        partitions = table.partitions(weights=weights, num_partitions=4)
        epoch = pool.new_epoch()
        before = pool.stats()
        try:
            shipped, _ = pool.map_partitions(
                query, partitions, epoch=epoch, key="compact", table=table,
                weights=weights, sink=ScanSink(),
            )
            assert shipped is not None
        finally:
            pool.release_epoch(epoch)
        after = pool.stats()
        assert after["queries"] == before["queries"] + 1
        assert after["partials_shipped"] == before["partials_shipped"] + 4
        shipped_bytes = after["bytes_shipped_last_query"]
        # 4 partials × 6 groups × 4 aggregates, with a generous per-state
        # budget — and nowhere near the 144 KB of row data behind them.
        assert 0 < shipped_bytes < 4 * 6 * 4 * 512
        assert shipped_bytes < table.num_rows * 3 * 8 // 4

    def test_ensure_export_is_idempotent_and_epoch_fenced(self, pool, exported_segments):
        table, weights = _random_table(53, rows=400)
        epoch = pool.new_epoch()
        h1 = pool.ensure_export(epoch, "k", table, weights)
        h2 = pool.ensure_export(epoch, "k", table, weights)
        assert h1 is not None and h1.segment == h2.segment
        assert pool.stats()["segments_active"] >= 1
        pool.release_epoch(epoch)
        pool.release_epoch(epoch)  # idempotent
        assert exported_segments.names == [h1.segment]
        exported_segments.assert_unlinked()

    def test_map_calls_matches_inline(self, pool):
        from repro.sampling.stratified import stratum_permutations

        table, _ = _random_table(59, rows=2_000)
        epoch = pool.new_epoch()
        try:
            handle = pool.ensure_export(epoch, "perm", table)
            results = pool.map_calls(
                stratum_permutations_task, [(handle, ("g",)), (handle, ("g", "f"))]
            )
            assert results is not None
        finally:
            pool.release_epoch(epoch)
        for columns, shipped in zip([("g",), ("g", "f")], results):
            inline = stratum_permutations(table, columns)
            assert len(inline) == len(shipped)
            for a, b in zip(inline, shipped):
                np.testing.assert_array_equal(a, b)

    def test_map_partitions_declines_joins_and_stale_handles(self, pool):
        table, weights = _random_table(61, rows=1_000)
        query = parse_query(POOL_SQL)
        partitions = table.partitions(weights=weights, num_partitions=2)
        epoch = pool.new_epoch()
        export = {"epoch": epoch, "key": "decline", "table": table, "weights": weights}
        try:

            class _Joined:
                joins = ({"table": "dim"},)

            before = pool.stats()
            assert pool.map_partitions(_Joined(), partitions, **export) == (
                None,
                {"fallback_reason": "joins"},
            )
            assert pool.map_partitions(query, partitions[:1], **export) == (
                None,
                {"fallback_reason": "single_partition"},
            )
            grown, grown_weights = _random_table(61, rows=1_500)
            stale = grown.partitions(weights=grown_weights, num_partitions=2)
            assert pool.map_partitions(query, stale, **export) == (
                None,
                {"fallback_reason": "stale_handle"},
            )
            shipped, info = pool.map_partitions(query, partitions, **export)
            assert shipped is not None and info["backend"] == "processes"
            after = pool.stats()
            for slug in ("joins", "stale_handle"):
                key = f"fallbacks.{slug}"
                assert after[key] == before.get(key, 0) + 1, slug
            assert "fallbacks.single_partition" not in after
        finally:
            pool.release_epoch(epoch)

    def test_closed_pool_degrades_not_raises(self):
        closed = ProcessPartitionPool(max_workers=1)
        closed.close()
        closed.close()  # idempotent
        assert not closed.available
        assert closed.fallback_reason == "pool closed"
        table, weights = _random_table(67, rows=300)
        assert closed.ensure_export(closed.new_epoch(), "x", table) is None
        assert closed.map_calls(stratum_permutations_task, [(None, ("g",))]) is None
        assert not closed.warm()


# -- configuration ------------------------------------------------------------------


class TestConfigValidation:
    def test_execution_backend_is_checked(self):
        with pytest.raises(ValueError, match="execution_backend"):
            BlinkDBConfig(execution_backend="gpu")
        for ok in ("threads", "processes"):
            assert BlinkDBConfig(execution_backend=ok).execution_backend == ok

    def test_worker_counts_are_checked(self):
        with pytest.raises(ValueError, match="partition_workers"):
            BlinkDBConfig(partition_workers=0)
        with pytest.raises(ValueError, match="procpool_workers"):
            BlinkDBConfig(procpool_workers=-1)

    def test_oversubscription_warns(self):
        cpu = os.cpu_count() or 1
        with pytest.warns(UserWarning, match="procpool_workers"):
            BlinkDBConfig(procpool_workers=cpu + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BlinkDBConfig(procpool_workers=cpu)


# -- the facade ---------------------------------------------------------------------


def _build_db(backend: str, **overrides):
    from repro.core.blinkdb import BlinkDB
    from repro.workloads.conviva import conviva_query_templates, generate_sessions_table

    table = generate_sessions_table(num_rows=8_000, seed=11, num_cities=12)
    with warnings.catch_warnings():
        # procpool_workers may exceed this host's core count — deliberate here.
        warnings.simplefilter("ignore", UserWarning)
        config = BlinkDBConfig(
            sampling=SamplingConfig(
                largest_cap=300, min_cap=25, uniform_sample_fraction=0.1
            ),
            cluster=ClusterConfig(num_nodes=8),
            execution_backend=backend,
            procpool_workers=2 if backend == "processes" else 0,
            **overrides,
        )
        db = BlinkDB(config)
    db.load_table(table, simulated_rows=100_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


class TestFacadeProcessBackend:
    def test_backends_agree_and_close_cleanly(self, exported_segments):
        sql = "SELECT COUNT(*), AVG(session_time) FROM sessions GROUP BY city"
        results = {}
        dbs = {}
        try:
            for backend in ("threads", "processes"):
                db = dbs[backend] = _build_db(backend)
                results[backend] = db.runtime.execute_partitioned(
                    sql, num_partitions=6, sim_workers=3
                )
            threads = {g.key: g for g in results["threads"]}
            processes = {g.key: g for g in results["processes"]}
            assert set(threads) == set(processes)
            for key, g in threads.items():
                for fn in g.aggregates:
                    assert g[fn].value == processes[key][fn].value, (key, fn)
                    assert (
                        g[fn].interval.half_width
                        == processes[key][fn].interval.half_width
                    ), (key, fn)
            stats = dbs["processes"]._procpool.stats()
            assert stats["queries"] >= 1
            gauges = dbs["processes"].metrics()["procpool"]
            series = {s["labels"]["name"]: s["value"] for s in gauges["series"]}
            assert series["queries"] >= 1
        finally:
            for db in dbs.values():
                db.close()
                db.close()  # idempotent
        exported_segments.assert_unlinked()

    def test_context_manager_tears_down(self, exported_segments):
        with _build_db("processes") as db:
            result = db.query("SELECT AVG(session_time) FROM sessions WITHIN 2 SECONDS")
            assert result is not None
            # A partitioned query exports a segment for close() to unlink.
            partitioned = db.runtime.execute_partitioned(
                ROUTE_SQL, num_partitions=4, sim_workers=2
            )
            assert partitioned.metadata["backend_info"]["backend"] == "processes"
        assert db._closed
        exported_segments.assert_unlinked()


# -- backend routes at the facade -----------------------------------------------------

ROUTE_SQL = "SELECT COUNT(*), AVG(session_time) FROM sessions GROUP BY city"


def _route_info(db, sql: str = ROUTE_SQL, num_partitions: int = 6) -> dict:
    """``backend_info`` of one partitioned facade query, segment names masked."""
    import re

    result = db.runtime.execute_partitioned(
        sql, num_partitions=num_partitions, sim_workers=3
    )
    info = dict(result.metadata["backend_info"])
    for key, value in info.items():
        if isinstance(value, str):
            info[key] = re.sub(r"'psm_\w+'", "'<segment>'", value)
    return info


class TestBackendRoutes:
    """Every route a partitioned query can take, pinned by its ``backend_info``."""

    def test_each_route_reports_its_backend_info(self, monkeypatch):
        from repro.faults import FaultPlan
        from repro.faults import injector as injector_mod

        db = _build_db(
            "processes",
            procpool_retry_attempts=0,
            procpool_retry_backoff_seconds=0.01,
            procpool_breaker_threshold=2,
            procpool_breaker_cooldown_seconds=60.0,
        )
        with db:
            cities = sorted({str(c) for c in db.catalog.table("sessions").column("city").values()})
            db.load_dimension_table(
                Table.from_dict(
                    "regions",
                    {"city": cities, "region": [f"r{i % 3}" for i in range(len(cities))]},
                )
            )
            pool = db._partition_procpool()
            pool.thread_redispatch = False
            routes = {}
            routes["joins"] = _route_info(
                db, "SELECT COUNT(*) FROM sessions JOIN regions ON city = city GROUP BY region"
            )
            with monkeypatch.context() as patch:

                def refuse(*args, **kwargs):
                    raise OSError("no space left on device")

                patch.setattr(shm, "export_table", refuse)
                routes["export_failed"] = _route_info(db)
            routes["single_partition"] = _route_info(db, num_partitions=1)
            routes["processes"] = _route_info(db)
            with injector_mod.installed(FaultPlan.parse("shm.attach_fail")):
                routes["every_chunk_failed"] = _route_info(db)
                routes["every_chunk_failed_again"] = _route_info(db)
            routes["breaker_open"] = _route_info(db)
            stats = pool.stats()

        attach_fault = (
            "FaultInjectedError: injected fault at shm.attach_fail "
            "(worker attach of '<segment>')"
        )
        assert routes == {
            "joins": {"backend": "threads", "fallback_reason": "joins"},
            "export_failed": {
                "backend": "threads",
                "fallback_reason": "export_failed: OSError",
            },
            "single_partition": {"backend": "inline", "fallback_reason": "single_partition"},
            "processes": {
                "backend": "processes",
                "retries": 0,
                "hedges": 0,
                "respawns": 0,
                "thread_redispatches": 0,
                "surrendered": 0,
            },
            "every_chunk_failed": {"backend": "threads", "fallback_reason": attach_fault},
            "every_chunk_failed_again": {
                "backend": "threads",
                "fallback_reason": attach_fault,
            },
            "breaker_open": {"backend": "threads", "fallback_reason": "breaker_open"},
        }
        # The pool's own gauges agree: one fallback counted per decline that
        # reached the pool, and the breaker tripped by the two faulted queries.
        assert {k: v for k, v in stats.items() if not k.startswith("bytes_")} == {
            "workers": 2,
            "started": 1,
            "available": 1,
            "queries": 3,
            "tasks": 6,
            "partials_shipped": 6,
            "segments_exported": 1,
            "segments_active": 1,
            "retries": 0,
            "respawns": 0,
            "hedges": 0,
            "surrendered": 12,
            "thread_redispatches": 0,
            "fallbacks.joins": 1,
            "fallbacks.export_failed:_oserror": 1,
            "fallbacks.faultinjectederror:_injected_fault_at_shm.attach_fail_(worker_at": 2,
            "fallbacks.breaker_open": 1,
            "breaker_state": 2,
            "breaker_trips": 1,
            "breaker_half_opens": 0,
            "breaker_consecutive_failures": 2,
        }
