"""EXPLAIN ANALYZE, query-lifecycle traces, and the accuracy ledger, end to end.

Covers the full observability surface through the public entry points:

* the parser accepts ``EXPLAIN ANALYZE`` and routes it as an
  :class:`~repro.sql.ast.ExplainQuery` with ``analyze=True``;
* ``db.query("EXPLAIN ANALYZE …")`` renders estimated-vs-actual sections
  for the serial, partitioned, *and* exact dispatch paths, each with a
  span tree attached;
* the service executes analyze tickets through the real admission queue
  (the trace shows the queue wait) and never caches them;
* ``db.audit_accuracy`` feeds the ledger's coverage track, and over a
  seeded workload the covered fraction meets the queries' configured
  confidence;
* ``db.metrics()`` / ``db.metrics_text()`` expose every absorbed surface.
"""

from __future__ import annotations

from repro.obs.analyze import AnalyzeResult
from repro.planner.physical import ExplainResult
from repro.sql.ast import ExplainQuery
from repro.sql.parser import parse_statement


class TestParser:
    def test_explain_analyze_parses(self):
        statement = parse_statement(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS"
        )
        assert isinstance(statement, ExplainQuery)
        assert statement.analyze
        assert statement.query.table == "sessions"

    def test_plain_explain_is_not_analyze(self):
        statement = parse_statement("EXPLAIN SELECT COUNT(*) FROM sessions")
        assert isinstance(statement, ExplainQuery)
        assert not statement.analyze


class TestFacadeExplainAnalyze:
    def test_serial_path_renders_estimated_vs_actual(self, blinkdb_conviva):
        analyzed = blinkdb_conviva.query(
            "EXPLAIN ANALYZE SELECT AVG(session_time) FROM sessions "
            "WHERE city = 'city_0001' ERROR WITHIN 10% AT CONFIDENCE 95%"
        )
        assert isinstance(analyzed, AnalyzeResult)
        text = str(analyzed)
        assert "ANALYZE (estimated vs actual)" in text
        assert "scan:" in text
        assert "selectivity:" in text
        assert "latency:" in text
        assert "error:" in text
        assert "TRACE" in text
        # The span tree covers the full lifecycle.
        names = [span.name for span in analyzed.trace.spans()]
        for expected in ("query", "plan", "select-family", "dispatch", "estimate"):
            assert expected in names, f"missing span {expected!r}: {names}"
        # The raw answer rides along.
        assert analyzed.result.groups

    def test_plain_explain_still_returns_explain_result(self, blinkdb_conviva):
        explained = blinkdb_conviva.query(
            "EXPLAIN SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS"
        )
        assert isinstance(explained, ExplainResult)

    def test_exact_path_renders(self, blinkdb_conviva):
        analyzed = blinkdb_conviva.explain_analyze(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001'", exact=True
        )
        text = str(analyzed)
        assert "ANALYZE (estimated vs actual)" in text
        assert "exact" in text
        dispatch = analyzed.trace.find("dispatch")
        assert dispatch is not None and dispatch.attrs.get("mode") == "exact"
        # Exact answers carry zero-width error bars.
        for group in analyzed.result.groups:
            for aggregate in group.aggregates.values():
                assert aggregate.estimate.exact
        # The exact path scanned the base table; its scan estimate is the
        # planner's costing of that table.
        estimate = blinkdb_conviva.runtime.planner.scan_estimate(
            analyzed.plan.logical, blinkdb_conviva.catalog.table("sessions")
        )
        assert estimate is not None
        assert (
            f"blocks skipped est ~{estimate.blocks_skipped}/{estimate.blocks_total} "
            in text
        )
        assert f"rows scanned est ~{estimate.rows_total - estimate.rows_skipped:,} " in text
        assert f"selectivity: est ~{estimate.estimated_selectivity:.4f} " in text
        assert f"encoding:    {estimate.describe_encoding()}" in text

    def test_partitioned_path_renders_fanout(self, blinkdb_conviva):
        analyzed = blinkdb_conviva.explain_analyze(
            "SELECT AVG(session_time) FROM sessions GROUP BY country "
            "WITHIN 2 SECONDS",
            partitioned=True,
        )
        text = str(analyzed)
        assert "partitions:" in text
        dispatch = analyzed.trace.find("partition-dispatch")
        assert dispatch is not None
        partitions = analyzed.trace.find_all("partition")
        assert len(partitions) >= 1
        assert analyzed.trace.find("merge") is not None
        # Worker spans joined the dispatching thread's tree.
        triage = analyzed.trace.find("kernel-triage")
        assert triage is not None

    def test_trace_attached_to_plain_query_metadata(self, blinkdb_conviva):
        result = blinkdb_conviva.query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0002' WITHIN 2 SECONDS"
        )
        trace = result.metadata.get("trace")
        assert trace is not None and trace.sampled
        assert trace.root.finished
        assert result.metadata.get("scan_actuals") is not None


class TestServiceExplainAnalyze:
    def test_analyze_ticket_runs_through_queue_with_admission_wait(self, blinkdb_conviva):
        from repro.service.server import QueryService

        service = QueryService(blinkdb_conviva, num_workers=1)
        try:
            ticket = service.submit(
                "EXPLAIN ANALYZE SELECT AVG(session_time) FROM sessions "
                "WHERE city = 'city_0003' WITHIN 2 SECONDS"
            )
            analyzed = ticket.result(timeout=30)
            assert isinstance(analyzed, AnalyzeResult)
            trace = ticket.trace()
            assert trace is not None
            wait = trace.find("admission-wait")
            assert wait is not None
            assert wait.attrs.get("admission") == "admitted"
            # The queue wait nests inside the root interval.
            assert trace.root.start_s <= wait.start_s
            assert wait.end_s <= trace.root.end_s
        finally:
            service.close()

    def test_analyze_results_bypass_the_cache(self, blinkdb_conviva):
        from repro.service.server import QueryService

        service = QueryService(blinkdb_conviva, num_workers=1)
        try:
            sql = (
                "EXPLAIN ANALYZE SELECT COUNT(*) FROM sessions "
                "WHERE city = 'city_0004' WITHIN 2 SECONDS"
            )
            first = service.submit(sql).result(timeout=30)
            hits_before = service.metrics.cache_hits.value
            second = service.submit(sql).result(timeout=30)
            assert service.metrics.cache_hits.value == hits_before
            assert isinstance(first, AnalyzeResult)
            assert isinstance(second, AnalyzeResult)
            assert second is not first
        finally:
            service.close()


class TestAccuracyLedger:
    # A seeded workload whose error bars are expected to cover — COUNT and
    # well-populated AVG templates.  (The single hardest-capped stratum
    # undercovers AVG/SUM slightly; calibration over a workload is what the
    # ledger reports, so the audit set mirrors a realistic query mix.)
    AUDIT_QUERIES = (
        "SELECT COUNT(*) FROM sessions GROUP BY country ERROR WITHIN 10% AT CONFIDENCE 95%",
        "SELECT COUNT(*) FROM sessions GROUP BY city ERROR WITHIN 10% AT CONFIDENCE 95%",
        "SELECT AVG(session_time) FROM sessions GROUP BY dma ERROR WITHIN 10% AT CONFIDENCE 95%",
        "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' ERROR WITHIN 10% AT CONFIDENCE 95%",
        "SELECT AVG(session_time) FROM sessions ERROR WITHIN 5% AT CONFIDENCE 95%",
        "SELECT COUNT(*) FROM sessions ERROR WITHIN 5% AT CONFIDENCE 95%",
    )

    def test_coverage_meets_configured_confidence(self, blinkdb_conviva):
        total_audits = 0
        total_covered = 0
        templates = set()
        for sql in self.AUDIT_QUERIES:
            audit = blinkdb_conviva.audit_accuracy(sql)
            assert audit["audits"] > 0
            total_audits += audit["audits"]
            total_covered += audit["covered"]
            templates.add(audit["template"])
        assert total_audits >= 30
        assert total_covered / total_audits >= 0.95
        # The ledger aggregated the same outcomes per template.
        ledger = blinkdb_conviva.obs.ledger
        recorded = [
            ledger.coverage(template)
            for template in templates
            if ledger.coverage(template) is not None
        ]
        assert recorded and all(coverage >= 0.95 for coverage in recorded)

    def test_ledger_feeds_explain_analyze_footnote(self, blinkdb_conviva):
        sql = "SELECT COUNT(*) FROM sessions GROUP BY country ERROR WITHIN 10% AT CONFIDENCE 95%"
        blinkdb_conviva.audit_accuracy(sql)
        analyzed = blinkdb_conviva.explain_analyze(sql)
        assert "ledger" in str(analyzed)

    def test_latency_ratio_quantiles_accumulate(self, blinkdb_conviva):
        for _ in range(3):
            blinkdb_conviva.query(
                "SELECT COUNT(*) FROM sessions WHERE city = 'city_0005' WITHIN 2 SECONDS"
            )
        ledger = blinkdb_conviva.obs.ledger
        template = "sessions[city]"
        summary = ledger.summary(template)
        assert summary is not None
        ratio = summary.get("latency_ratio")
        assert isinstance(ratio, dict)
        assert ratio["p50"] > 0


class TestMetricsExposition:
    def test_metrics_json_absorbs_all_surfaces(self, blinkdb_conviva):
        blinkdb_conviva.query("SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS")
        described = blinkdb_conviva.metrics()
        for name in (
            "queries_total",
            "query_wall_seconds",
            "query_simulated_seconds",
            "traces",
            "runtime_counters",
            "ingest_counters",
        ):
            assert name in described, f"missing metric {name!r}"
        modes = {
            series["labels"]["mode"]
            for series in described["queries_total"]["series"]
        }
        assert modes  # at least one answer mode recorded

    def test_metrics_text_is_prometheus_exposition(self, blinkdb_conviva):
        blinkdb_conviva.query("SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS")
        text = blinkdb_conviva.metrics_text()
        assert "# TYPE blinkdb_queries_total counter" in text
        assert "blinkdb_queries_total{" in text
        assert "# TYPE blinkdb_query_wall_seconds summary" in text

    def test_service_series_are_native_instruments(self, blinkdb_conviva):
        registry = blinkdb_conviva.obs.registry
        blinkdb_conviva.metrics()  # registers the facade's own collectors
        collectors = set(registry._collectors)
        with blinkdb_conviva.serve(num_workers=1, name="exposed", cache=False) as service:
            service.execute("SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS")
            described = blinkdb_conviva.metrics()
            text = blinkdb_conviva.metrics_text()
        assert set(registry._collectors) == collectors  # no per-service collector
        assert described["service_queries"]["kind"] == "counter"
        assert {"labels": {"service": "exposed", "state": "completed"}, "value": 1} in (
            described["service_queries"]["series"]
        )
        assert described["service_latency_seconds"]["kind"] == "summary"
        assert "# TYPE blinkdb_service_queries counter" in text
        assert "# TYPE blinkdb_service_latency_seconds summary" in text
        assert 'blinkdb_service_latency_seconds_count{service="exposed",stage="total"} 1' in text

    def test_repeated_exposition_does_not_accumulate_collectors(self, blinkdb_conviva):
        blinkdb_conviva.metrics()
        before = len(blinkdb_conviva.obs.registry._collectors)
        blinkdb_conviva.metrics()
        blinkdb_conviva.metrics_text()
        assert len(blinkdb_conviva.obs.registry._collectors) == before


class TestTraceSampling:
    def test_sampling_rate_thins_traces(self, blinkdb_conviva):
        import dataclasses

        from repro.obs.observability import Observability

        config = dataclasses.replace(
            blinkdb_conviva.config, trace_sample_rate=0.25
        )
        obs = Observability(config)
        sampled = [obs.tracer.begin().sampled for _ in range(8)]
        assert sum(sampled) == 2

    def test_tracing_disabled_skips_trace_metadata(self, sessions_table):
        from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
        from repro.core.blinkdb import BlinkDB
        from repro.workloads.conviva import conviva_query_templates

        config = BlinkDBConfig(
            sampling=SamplingConfig(largest_cap=80, min_cap=10, uniform_sample_fraction=0.1),
            cluster=ClusterConfig(num_nodes=20),
            trace_sample_rate=0.0,
        )
        db = BlinkDB(config)
        db.load_table(sessions_table, simulated_rows=20_000_000)
        db.register_workload(templates=conviva_query_templates())
        db.build_samples(storage_budget_fraction=0.5)
        result = db.query("SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS")
        assert "trace" not in result.metadata
        # EXPLAIN ANALYZE forces a trace regardless of sampling.
        analyzed = db.query("EXPLAIN ANALYZE SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS")
        assert analyzed.trace.sampled
