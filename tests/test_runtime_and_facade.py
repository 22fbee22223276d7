"""Integration-level tests for the BlinkDB runtime and the public facade."""

import math

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.common.errors import CatalogError, ConstraintUnsatisfiableError, PlanningError
from repro.core.blinkdb import BlinkDB
from repro.workloads.conviva import conviva_query_templates
from repro.workloads.tpch import tpch_query_templates


@pytest.fixture(scope="module")
def join_db(lineitem_table, orders_table):
    """lineitem samples with orders loaded as a dimension table (read-only)."""
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=100, min_cap=10, uniform_sample_fraction=0.1),
        cluster=ClusterConfig(num_nodes=4),
    )
    db = BlinkDB(config)
    db.load_table(lineitem_table)
    db.load_dimension_table(orders_table)
    db.register_workload(templates=tpch_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


class TestRuntimeDecisions:
    def test_error_bound_query_uses_stratified_sample(self, blinkdb_conviva):
        result = blinkdb_conviva.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' "
            "GROUP BY os ERROR WITHIN 20% AT CONFIDENCE 95%"
        )
        decision = result.metadata["decision"]
        assert decision.family_key == ("city", "os")
        assert decision.family_reason == "superset-match"
        assert result.sample_name.startswith("sessions/strat(city,os)")

    def test_error_bound_is_respected_when_satisfiable(self, blinkdb_conviva):
        result = blinkdb_conviva.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0000' "
            "ERROR WITHIN 30% AT CONFIDENCE 95%"
        )
        decision = result.metadata["decision"]
        if decision.bound_satisfied:
            assert result.max_relative_error() <= 0.30 * 1.5  # some slack for extrapolation

    def test_time_bound_query_attaches_latency(self, blinkdb_conviva):
        result = blinkdb_conviva.query(
            "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0001' "
            "GROUP BY os WITHIN 5 SECONDS"
        )
        assert result.simulated_latency_seconds is not None
        decision = result.metadata["decision"]
        if decision.bound_satisfied:
            assert result.simulated_latency_seconds <= 5.0 * 1.2

    def test_tighter_error_bound_reads_more_rows(self, blinkdb_conviva):
        loose = blinkdb_conviva.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' "
            "ERROR WITHIN 40% AT CONFIDENCE 95%"
        )
        tight = blinkdb_conviva.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' "
            "ERROR WITHIN 5% AT CONFIDENCE 95%"
        )
        assert tight.rows_read >= loose.rows_read

    def test_longer_time_bound_reads_no_fewer_rows(self, blinkdb_conviva):
        short = blinkdb_conviva.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' WITHIN 1 SECONDS"
        )
        long = blinkdb_conviva.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' WITHIN 60 SECONDS"
        )
        assert long.rows_read >= short.rows_read

    def test_unbounded_query_uses_largest_resolution(self, blinkdb_conviva):
        result = blinkdb_conviva.query(
            "SELECT COUNT(*) FROM sessions WHERE country = 'country_0002'"
        )
        decision = result.metadata["decision"]
        family = blinkdb_conviva.catalog.stratified_family("sessions", decision.family_key)
        if family is not None:
            assert decision.resolution_rows == family.largest.num_rows

    def test_approximate_answer_close_to_exact(self, blinkdb_conviva):
        sql = "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0000' GROUP BY os"
        approx = blinkdb_conviva.query(sql + " ERROR WITHIN 10% AT CONFIDENCE 95%")
        exact = blinkdb_conviva.query_exact(sql)
        for group in approx:
            if not exact.has_group(group.key):
                continue
            exact_value = exact.group(group.key)["avg_session_time"].value
            estimate = group["avg_session_time"]
            # within 4 half-widths of the truth (generous but catches bias bugs)
            tolerance = max(4 * estimate.error_bar, 0.3 * exact_value)
            assert abs(estimate.value - exact_value) <= tolerance

    def test_rare_group_preserved_by_stratified_sample(self, blinkdb_conviva):
        sql = "SELECT COUNT(*) FROM sessions GROUP BY country"
        exact = blinkdb_conviva.query_exact(sql)
        approx = blinkdb_conviva.query(sql)
        missing = [g.key for g in exact if not approx.has_group(g.key)]
        assert not missing  # stratified sample on country keeps every group

    def test_sampled_latency_is_below_full_scan_latency(self, blinkdb_conviva):
        sql = (
            "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0001' "
            "GROUP BY os WITHIN 5 SECONDS"
        )
        approx = blinkdb_conviva.query(sql)
        exact = blinkdb_conviva.query_exact(
            "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0001' GROUP BY os"
        )
        assert approx.simulated_latency_seconds < exact.simulated_latency_seconds

    def test_disjunctive_count_combines_branches(self, blinkdb_conviva):
        sql = "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' OR country = 'country_0003'"
        approx = blinkdb_conviva.query(sql)
        exact = blinkdb_conviva.query_exact(sql)
        decision = approx.metadata["decision"]
        assert decision.family_reason == "disjunctive-union"
        assert decision.branches == 2
        estimate = approx.scalar()
        tolerance = max(4 * estimate.error_bar, 0.25 * exact.scalar().value)
        assert abs(estimate.value - exact.scalar().value) <= tolerance

    def test_strict_bounds_raise_when_unsatisfiable(self, sessions_table):
        config = BlinkDBConfig(
            sampling=SamplingConfig(largest_cap=50, min_cap=10, uniform_sample_fraction=0.05),
            cluster=ClusterConfig(num_nodes=4),
            strict_bounds=True,
        )
        db = BlinkDB(config)
        db.load_table(sessions_table)
        db.register_workload(templates=conviva_query_templates())
        db.build_samples(storage_budget_fraction=0.3)
        with pytest.raises(ConstraintUnsatisfiableError):
            db.query(
                "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0004' "
                "GROUP BY os ERROR WITHIN 0.01% AT CONFIDENCE 99%"
            )

    def test_report_error_confidence_used(self, blinkdb_conviva):
        result = blinkdb_conviva.query(
            "SELECT COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE FROM sessions "
            "WHERE city = 'city_0002' WITHIN 5 SECONDS"
        )
        assert result.scalar("count_star").error_bar >= 0


class TestFacade:
    def test_load_table_rejects_empty_and_bad_scale(self, sessions_table):
        db = BlinkDB()
        with pytest.raises(ValueError):
            db.load_table(sessions_table, simulated_rows=10)

    def test_register_workload_requires_exactly_one_source(self, sessions_table):
        db = BlinkDB()
        db.load_table(sessions_table)
        with pytest.raises(ValueError):
            db.register_workload()
        with pytest.raises(ValueError):
            db.register_workload(queries=["SELECT COUNT(*) FROM sessions"], templates=[])

    def test_register_workload_from_query_trace(self, sessions_table):
        db = BlinkDB()
        db.load_table(sessions_table)
        templates = db.register_workload(
            queries=[
                "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' GROUP BY os",
                "SELECT COUNT(*) FROM sessions WHERE city = 'city_0002' GROUP BY os",
                "SELECT AVG(session_time) FROM sessions WHERE country = 'country_0001'",
            ]
        )
        assert len(templates) == 2
        assert db.templates_for("sessions")

    def test_build_samples_requires_workload(self, sessions_table):
        db = BlinkDB()
        db.load_table(sessions_table)
        with pytest.raises((PlanningError, CatalogError)):
            db.build_samples("sessions")

    def test_build_report_and_describe(self, blinkdb_conviva):
        report = blinkdb_conviva.build_report("sessions")
        assert report.uniform_storage_bytes > 0
        assert report.stratified
        description = blinkdb_conviva.describe()
        assert "sessions" in description["catalog"]
        assert description["plans"]["sessions"]["families"]

    def test_explain_returns_decision(self, blinkdb_conviva):
        explanation = blinkdb_conviva.explain(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' WITHIN 5 SECONDS"
        )
        assert explanation["decision"] is not None
        assert explanation["rows_read"] > 0

    def test_template_of_helper(self):
        template = BlinkDB.template_of(
            "SELECT COUNT(*) FROM sessions WHERE city = 'NY' GROUP BY os"
        )
        assert template.columns == ("city", "os")

    def test_replan_with_new_workload(self, sessions_table):
        config = BlinkDBConfig(
            sampling=SamplingConfig(largest_cap=100, min_cap=10, uniform_sample_fraction=0.05),
            cluster=ClusterConfig(num_nodes=4),
        )
        db = BlinkDB(config)
        db.load_table(sessions_table)
        db.register_workload(templates=conviva_query_templates())
        db.build_samples(storage_budget_fraction=0.4)
        new_templates = [BlinkDB.template_of("SELECT COUNT(*) FROM sessions GROUP BY asn")]
        plan, actions = db.replan_samples("sessions", templates=new_templates, churn_fraction=1.0)
        assert actions
        built = set(db.catalog.stratified_families("sessions"))
        assert {f.columns for f in plan.families} == built

    def test_query_with_join_against_dimension_table(self, join_db):
        db = join_db
        sql = (
            "SELECT AVG(extendedprice) FROM lineitem JOIN orders ON orderkey = orderkey "
            "WHERE shipmode = 'AIR' GROUP BY orderpriority WITHIN 10 SECONDS"
        )
        approx = db.query(sql)
        assert len(approx) >= 1
        exact = db.query_exact(
            "SELECT AVG(extendedprice) FROM lineitem JOIN orders ON orderkey = orderkey "
            "WHERE shipmode = 'AIR' GROUP BY orderpriority"
        )
        for group in approx:
            if exact.has_group(group.key):
                exact_value = exact.group(group.key)["avg_extendedprice"].value
                assert abs(group["avg_extendedprice"].value - exact_value) / exact_value < 0.5

    @pytest.mark.parametrize(
        "where", ["totalprice > 100000.0", "orderpriority = '1-URGENT'"]
    )
    def test_approximate_join_filters_on_dimension_column(self, join_db, where):
        # Selection counts each family's matches; a WHERE that names a
        # column of the joined dimension table must be counted after the
        # join, the way the aggregate stage filters.
        sql = f"SELECT COUNT(*) FROM lineitem JOIN orders ON orderkey = orderkey WHERE {where}"
        exact = join_db.query_exact(sql).scalar().value
        approx = join_db.query(sql).scalar().value
        assert exact > 0
        assert abs(approx - exact) / exact < 0.5

    def test_sole_workload_table_inference_fails_with_multiple(self, sessions_table, lineitem_table):
        db = BlinkDB()
        db.load_table(sessions_table)
        db.load_table(lineitem_table)
        db.register_workload(templates=conviva_query_templates())
        db.register_workload(templates=tpch_query_templates())
        with pytest.raises(CatalogError):
            db.build_samples()


class TestTPCHWorkload:
    def test_end_to_end_tpch(self, lineitem_table):
        config = BlinkDBConfig(
            sampling=SamplingConfig(largest_cap=150, min_cap=10, uniform_sample_fraction=0.1),
            cluster=ClusterConfig(num_nodes=10),
        )
        db = BlinkDB(config)
        db.load_table(lineitem_table, simulated_rows=20_000_000)
        db.register_workload(templates=tpch_query_templates())
        plan = db.build_samples(storage_budget_fraction=0.5)
        assert plan.families
        result = db.query(
            "SELECT SUM(extendedprice) FROM lineitem WHERE shipmode = 'AIR' "
            "GROUP BY returnflag ERROR WITHIN 10% AT CONFIDENCE 95%"
        )
        exact = db.query_exact(
            "SELECT SUM(extendedprice) FROM lineitem WHERE shipmode = 'AIR' GROUP BY returnflag"
        )
        for group in result:
            exact_value = exact.group(group.key)["sum_extendedprice"].value
            estimate = group["sum_extendedprice"]
            assert math.isfinite(estimate.value)
            assert abs(estimate.value - exact_value) / exact_value < 0.5
