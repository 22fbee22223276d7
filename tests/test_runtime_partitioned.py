"""Tests for the partition-parallel pipeline and the runtime's anytime path."""

from dataclasses import replace

import numpy as np
import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.common.errors import ConstraintUnsatisfiableError
from repro.core.blinkdb import BlinkDB
from repro.engine.executor import ExecutionContext, QueryExecutor
from repro.runtime.partitioned import PartitionPipeline
from repro.sql.parser import parse_query
from repro.storage.table import Table
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table


@pytest.fixture(scope="module")
def pipeline_inputs():
    rng = np.random.default_rng(17)
    rows = 8_000
    table = Table.from_dict(
        "t",
        {
            "g": [f"g{i}" for i in rng.integers(0, 4, rows)],
            "x": rng.normal(30.0, 6.0, rows).tolist(),
        },
    )
    weights = rng.uniform(1.0, 10.0, rows)
    context = ExecutionContext(weights=weights, rows_read=rows)
    return table, weights, context


@pytest.fixture(scope="module")
def anytime_db():
    table = generate_sessions_table(num_rows=30_000, seed=7, num_cities=40)
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=400, min_cap=25, uniform_sample_fraction=0.08),
        cluster=ClusterConfig(num_nodes=20),
    )
    db = BlinkDB(config)
    db.load_table(table, simulated_rows=2_000_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


class TestPartitionPipeline:
    def test_full_merge_matches_plain_execution(self, pipeline_inputs):
        table, weights, context = pipeline_inputs
        executor = QueryExecutor()
        pipeline = PartitionPipeline(executor)
        query = parse_query("SELECT COUNT(*), AVG(x) FROM t GROUP BY g")
        plain = executor.execute(query, table, context)
        piped = pipeline.run(
            query, table, context, num_partitions=8, sim_workers=4,
            scan_latency_seconds=10.0, task_overhead_seconds=0.3,
        )
        stats = piped.metadata["partitions"]
        assert stats.complete and stats.merged_partitions == 8
        for g_plain, g_piped in zip(plain, piped):
            for name in g_plain.aggregates:
                assert g_piped[name].value == pytest.approx(g_plain[name].value, rel=1e-9)
                assert g_piped[name].error_bar == pytest.approx(
                    g_plain[name].error_bar, rel=1e-6
                )

    def test_more_sim_workers_shrink_makespan(self, pipeline_inputs):
        table, _, context = pipeline_inputs
        pipeline = PartitionPipeline(QueryExecutor())
        query = parse_query("SELECT SUM(x) FROM t")
        makespans = {}
        for workers in (1, 2, 4):
            result = pipeline.run(
                query, table, context, num_partitions=16, sim_workers=workers,
                reference_workers=1, scan_latency_seconds=8.0,
                task_overhead_seconds=0.05,
            )
            makespans[workers] = result.metadata["partitions"].makespan_seconds
        assert makespans[2] < makespans[1]
        assert makespans[4] < makespans[2]
        assert makespans[1] / makespans[4] > 1.5

    def test_straggler_jitter_makes_slowest_wave_dominate(self, pipeline_inputs):
        table, _, context = pipeline_inputs
        pipeline = PartitionPipeline(QueryExecutor(), straggler_spread=0.5, seed=3)
        query = parse_query("SELECT SUM(x) FROM t")
        result = pipeline.run(
            query, table, context, num_partitions=8, sim_workers=8,
            reference_workers=8, scan_latency_seconds=10.0,
            task_overhead_seconds=0.2,
        )
        stats = result.metadata["partitions"]
        costs = [t.cost_seconds for t in stats.timings]
        assert stats.makespan_seconds == pytest.approx(max(costs))
        assert max(costs) > min(costs)  # jitter applied

    def test_deadline_cuts_coverage_and_widens_bars(self, pipeline_inputs):
        table, _, context = pipeline_inputs
        pipeline = PartitionPipeline(QueryExecutor())
        query = parse_query("SELECT COUNT(*) FROM t WHERE g = 'g1'")
        full = pipeline.run(
            query, table, context, num_partitions=8, sim_workers=2,
            reference_workers=2, scan_latency_seconds=8.0, task_overhead_seconds=0.1,
        )
        cut = pipeline.run(
            query, table, context, num_partitions=8, sim_workers=2,
            reference_workers=2, scan_latency_seconds=8.0, task_overhead_seconds=0.1,
            deadline_seconds=4.0,
        )
        stats = cut.metadata["partitions"]
        assert 0 < stats.merged_partitions < 8
        assert stats.coverage_population_fraction < 1.0
        assert cut.simulated_latency_seconds <= 4.0
        # Unbiased despite the cut, wider uncertainty.
        assert cut.scalar().value == pytest.approx(full.scalar().value, rel=0.15)
        assert cut.scalar().error_bar > full.scalar().error_bar

    def test_impossible_deadline_still_merges_one_partition(self, pipeline_inputs):
        table, _, context = pipeline_inputs
        pipeline = PartitionPipeline(QueryExecutor())
        query = parse_query("SELECT COUNT(*) FROM t")
        result = pipeline.run(
            query, table, context, num_partitions=8, sim_workers=4,
            scan_latency_seconds=8.0, task_overhead_seconds=0.5,
            deadline_seconds=1e-6,
        )
        stats = result.metadata["partitions"]
        assert stats.merged_partitions == 1
        assert result.scalar().value > 0

    def test_deadline_cut_with_skipping_is_not_biased_low(self):
        # Regression: on a sorted table, zone maps skip every partition
        # except the one holding all matches.  A deadline that drops the
        # evaluated partitions must not report a near-zero answer with
        # narrow bars off the (provably match-free) skipped coverage —
        # at least one *evaluated* partition is always merged, and the
        # coverage correction renormalizes over the scannable region only.
        rows = 20_000
        table = Table.from_dict("t", {"x": sorted(range(rows))})
        true_count = sum(1 for v in range(rows) if v > rows - 250)
        query = parse_query(f"SELECT COUNT(*) FROM t WHERE x > {rows - 250}")
        pipeline = PartitionPipeline(
            QueryExecutor(scan_acceleration=True, zone_block_rows=256)
        )
        result = pipeline.run(
            query, table, ExecutionContext(exact=True),
            num_partitions=16, sim_workers=2,
            scan_latency_seconds=8.0, task_overhead_seconds=0.1,
            deadline_seconds=1.0,
        )
        stats = result.metadata["partitions"]
        assert stats.skipped_partitions > 0
        assert any(not t.skipped and t.merged for t in stats.timings)
        # Every match lives in evaluated partitions; the coverage-scaled
        # estimate must be in the right ballpark, not collapsed to ~0.
        assert result.scalar().value >= 0.5 * true_count
        assert stats.rows_skipped == sum(
            t.rows for t in stats.timings if t.skipped
        )

    def test_progress_snapshots_monotone(self, pipeline_inputs):
        table, _, context = pipeline_inputs
        pipeline = PartitionPipeline(QueryExecutor())
        query = parse_query("SELECT AVG(x) FROM t")
        snapshots = []
        result = pipeline.run(
            query, table, context, num_partitions=6, sim_workers=2,
            scan_latency_seconds=5.0, progress=snapshots.append,
        )
        assert len(snapshots) == 6
        fractions = [s.fraction_merged for s in snapshots]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        seconds = [s.simulated_seconds for s in snapshots]
        assert seconds == sorted(seconds)
        assert snapshots[-1].result.scalar().value == result.scalar().value


class TestRuntimeAnytime:
    def test_unsatisfiable_time_bound_returns_partial_coverage(self, anytime_db):
        result = anytime_db.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' WITHIN 0.05 SECONDS"
        )
        decision = result.metadata["decision"]
        assert decision.anytime
        assert not decision.bound_satisfied
        assert 0.0 < decision.coverage_fraction < 1.0
        assert decision.partitions > 1
        stats = result.metadata["partitions"]
        assert stats.merged_partitions < stats.num_partitions

    def test_anytime_bars_wider_than_full_answer(self, anytime_db):
        # A broad predicate, so the partitions merged before the deadline
        # contain matching rows (a clustered rare predicate could see none).
        sql = "SELECT COUNT(*) FROM sessions WHERE dt = 5"
        tight = anytime_db.query(sql + " WITHIN 0.05 SECONDS")
        loose = anytime_db.query(sql + " WITHIN 60 SECONDS")
        assert tight.metadata["decision"].anytime
        assert not loose.metadata["decision"].anytime
        assert tight.scalar().error_bar > loose.scalar().error_bar

    def test_satisfiable_bound_keeps_legacy_path(self, anytime_db):
        result = anytime_db.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' WITHIN 60 SECONDS"
        )
        decision = result.metadata["decision"]
        assert decision.bound_satisfied
        assert not decision.anytime
        assert decision.partitions == 1
        assert "partitions" not in result.metadata

    def test_anytime_disabled_restores_old_behaviour(self):
        table = generate_sessions_table(num_rows=10_000, seed=7, num_cities=20)
        config = BlinkDBConfig(
            sampling=SamplingConfig(largest_cap=200, min_cap=25,
                                    uniform_sample_fraction=0.08),
            cluster=ClusterConfig(num_nodes=10),
            anytime_enabled=False,
        )
        db = BlinkDB(config)
        db.load_table(table, simulated_rows=1_000_000_000)
        db.register_workload(templates=conviva_query_templates())
        db.build_samples(storage_budget_fraction=0.5)
        result = db.query("SELECT COUNT(*) FROM sessions WITHIN 0.05 SECONDS")
        decision = result.metadata["decision"]
        assert not decision.anytime
        assert decision.coverage_fraction == 1.0

    def test_close_shuts_down_partition_pool(self, anytime_db):
        runtime = anytime_db.runtime
        pool = runtime._partition_pool()
        assert pool is not None
        runtime.close()
        assert runtime._pool is None
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)  # the old pool really is shut down
        # Lazily recreated on next use; close is idempotent.
        assert runtime._partition_pool() is not None
        runtime.close()
        runtime.close()

    def test_rebuild_closes_previous_runtime_pool(self, anytime_db):
        runtime = anytime_db.runtime
        pool = runtime._partition_pool()
        anytime_db.build_samples("sessions", storage_budget_fraction=0.5)
        assert anytime_db.runtime is not runtime
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_runtime_stats_count_anytime(self, anytime_db):
        before = anytime_db.runtime.stats["anytime_queries_executed"]
        anytime_db.query("SELECT COUNT(*) FROM sessions WITHIN 0.01 SECONDS")
        assert anytime_db.runtime.stats["anytime_queries_executed"] == before + 1

    def test_execute_partitioned_equivalent_estimates(self, anytime_db):
        sql = "SELECT AVG(session_time) FROM sessions WHERE dt = 5"
        plain = anytime_db.query(sql)
        piped = anytime_db.runtime.execute_partitioned(
            sql, num_partitions=8, sim_workers=4
        )
        assert piped.scalar().value == pytest.approx(plain.scalar().value, rel=1e-9)
        assert piped.metadata["decision"].partitions == 8

    def test_execute_partitioned_shares_the_execute_path(self, anytime_db, monkeypatch):
        # A deadline-cut partitioned run is counted, predicted, traced and
        # bound-checked exactly like the same query answered by execute().
        sql = "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' WITHIN 0.05 SECONDS"
        runtime = anytime_db.runtime
        before = runtime.stats
        trace = runtime.obs.tracer.begin(force=True, table="sessions")
        piped = runtime.execute_partitioned(sql, deadline_seconds=0.05, trace=trace)
        decision = piped.metadata["decision"]
        assert decision.anytime and decision.coverage_fraction < 1.0
        after = runtime.stats
        assert after["anytime_queries_executed"] == before["anytime_queries_executed"] + 1
        assert after["queries_executed"] == before["queries_executed"] + 1

        plain = runtime.execute(sql).metadata["decision"]
        assert decision.predicted_latency_seconds is not None
        assert decision.predicted_latency_seconds == plain.predicted_latency_seconds
        assert decision.predicted_relative_error == plain.predicted_relative_error

        names = {span.name for span in trace.spans()}
        assert {"select-family", "size-resolution", "scan-estimate"} <= names

        monkeypatch.setattr(runtime, "config", replace(runtime.config, strict_bounds=True))
        with pytest.raises(ConstraintUnsatisfiableError):
            runtime.execute_partitioned(sql, deadline_seconds=0.05)

    def test_execute_partitioned_worker_sweep_speedup(self, anytime_db):
        sql = "SELECT SUM(session_time) FROM sessions WHERE dt = 5"
        makespans = {}
        for workers in (1, 4):
            result = anytime_db.runtime.execute_partitioned(
                sql, num_partitions=16, sim_workers=workers, reference_workers=1
            )
            makespans[workers] = result.metadata["partitions"].makespan_seconds
        assert makespans[1] / makespans[4] > 1.5
