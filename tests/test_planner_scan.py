"""Tests for skip-aware planning: the statistics estimator, scan estimates,
and the guarantee that planning never evaluates predicates over base data."""

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.engine.expressions import measure_selectivity
from repro.planner import estimate_selectivity
from repro.planner.physical import ScanEstimate
from repro.sql.parser import parse_query
from repro.storage.statistics import compute_statistics
from repro.storage.table import Table
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table


@pytest.fixture(scope="module")
def scan_db():
    table = generate_sessions_table(num_rows=20_000, seed=11, num_cities=20)
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=300, min_cap=25, uniform_sample_fraction=0.08),
        cluster=ClusterConfig(num_nodes=10),
        zone_block_rows=256,
    )
    db = BlinkDB(config)
    db.load_table(table, simulated_rows=1_000_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


@pytest.fixture()
def stats_table() -> Table:
    return Table.from_dict(
        "t",
        {
            "a": list(range(1000)),
            "g": [f"g{i % 10}" for i in range(1000)],
        },
    )


def where(fragment: str):
    return parse_query(f"SELECT COUNT(*) FROM t WHERE {fragment}").where


class TestEstimateSelectivity:
    def test_equality_uses_distinct_count(self, stats_table):
        stats = compute_statistics(stats_table)
        assert estimate_selectivity(where("g = 'g3'"), stats) == pytest.approx(0.1)

    def test_range_uses_interval_fraction(self, stats_table):
        stats = compute_statistics(stats_table)
        assert estimate_selectivity(where("a < 250"), stats) == pytest.approx(0.25, abs=0.01)
        assert estimate_selectivity(where("a BETWEEN 100 AND 300"), stats) == pytest.approx(
            0.2, abs=0.01
        )

    def test_out_of_range_equality_is_zero(self, stats_table):
        stats = compute_statistics(stats_table)
        assert estimate_selectivity(where("a = 5000"), stats) == 0.0

    def test_compound_independence(self, stats_table):
        stats = compute_statistics(stats_table)
        single = estimate_selectivity(where("a < 500"), stats)
        conj = estimate_selectivity(where("a < 500 AND g = 'g3'"), stats)
        assert conj == pytest.approx(single * 0.1)
        disj = estimate_selectivity(where("a < 500 OR g = 'g3'"), stats)
        assert disj == pytest.approx(1 - (1 - single) * 0.9)

    def test_not_complements(self, stats_table):
        stats = compute_statistics(stats_table)
        sel = estimate_selectivity(where("a < 250"), stats)
        assert estimate_selectivity(where("NOT a < 250"), stats) == pytest.approx(1 - sel)

    def test_none_statistics_fall_back_to_priors(self, stats_table):
        assert 0.0 <= estimate_selectivity(where("a < 250"), None) <= 1.0

    def test_accepts_zone_index(self, stats_table):
        index = stats_table.zone_map_index(128)
        assert 0.0 < estimate_selectivity(where("a < 250"), index) < 0.5

    def test_tracks_measured_selectivity_on_uniform_data(self, stats_table):
        stats = compute_statistics(stats_table)
        for fragment in ["a < 250", "a BETWEEN 100 AND 300", "g = 'g3'"]:
            estimated = estimate_selectivity(where(fragment), stats)
            measured = measure_selectivity(where(fragment), stats_table)
            assert estimated == pytest.approx(measured, abs=0.05)

    def test_no_bound_predicate_is_one(self, stats_table):
        stats = compute_statistics(stats_table)
        assert estimate_selectivity(None, stats) == 1.0


class TestScanEstimateOnPlans:
    def test_plan_carries_scan_estimate(self, scan_db):
        plan = scan_db.runtime.explain(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_03'"
        )
        estimate = plan.scan_estimate
        assert isinstance(estimate, ScanEstimate)
        assert estimate.blocks_total > 0
        assert 0.0 <= estimate.skip_fraction <= 1.0
        assert estimate.estimated_selectivity is not None

    def test_stratified_sample_blocks_are_skippable(self, scan_db):
        # Stratified samples are stored sorted by city, so an equality on a
        # single city must make most blocks provably non-matching.
        plan = scan_db.runtime.explain(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_03'"
        )
        if plan.scan_estimate.blocks_total >= 4:
            assert plan.scan_estimate.blocks_skipped > 0

    def test_explain_text_shows_scan_estimate(self, scan_db):
        text = scan_db.runtime.explain(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_03'"
        ).render()
        assert "scan-estimate:" in text
        assert "zone-blocks=" in text

    def test_no_where_no_estimate(self, scan_db):
        plan = scan_db.runtime.explain("SELECT COUNT(*) FROM sessions")
        assert plan.scan_estimate is None


class TestPlanningNeverScansBaseTable:
    def test_planning_does_not_access_base_table_columns(self, scan_db):
        """Acceptance: costing a plan must not evaluate predicates over the
        base table — its column data must not be touched at all."""
        base = scan_db.catalog.table("sessions")
        accessed: list[str] = []
        original = base.column

        def instrumented(name):
            accessed.append(name)
            return original(name)

        base.column = instrumented  # instance attribute shadows the method
        try:
            runtime = scan_db.runtime
            for sql in [
                "SELECT COUNT(*) FROM sessions WHERE city = 'city_03'",
                "SELECT AVG(session_time) FROM sessions WHERE city = 'city_03' "
                "AND country = 'country_04' ERROR WITHIN 10% AT CONFIDENCE 95%",
                "SELECT SUM(session_time) FROM sessions WHERE city = 'city_01' "
                "OR dma = 3",
                "SELECT COUNT(*) FROM sessions WHERE session_time > 1000 WITHIN 0.5 SECONDS",
            ]:
                runtime.explain(sql)
        finally:
            del base.column
        assert accessed == []

    def test_measure_selectivity_remains_exact(self, scan_db):
        base = scan_db.catalog.table("sessions")
        predicate = where("session_time >= 0")
        assert measure_selectivity(predicate, base) == 1.0


class TestRuntimeScanCounters:
    def test_stats_expose_scan_counters(self, scan_db):
        runtime = scan_db.runtime
        before = runtime.stats
        assert {"blocks_total", "blocks_skipped", "bytes_scanned"} <= before.keys()
        scan_db.query("SELECT COUNT(*) FROM sessions WHERE city = 'city_03'")
        after = runtime.stats
        assert after["blocks_total"] > before["blocks_total"]
        assert after["bytes_scanned"] >= before["bytes_scanned"]

    def test_service_mirrors_scan_gauges(self, scan_db):
        service = scan_db.serve(num_workers=1)
        try:
            client = service.connect()
            client.execute("SELECT COUNT(*) FROM sessions WHERE city = 'city_05'")
            description = service.describe()
            scan = description["metrics"]["scan"]
            assert scan["blocks_total"] > 0
            assert scan["bytes_scanned"] >= 0
        finally:
            service.close()
