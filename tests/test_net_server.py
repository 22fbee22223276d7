"""End-to-end tests for the wire-protocol front door (server + client).

Every test here talks over a real TCP socket on localhost: the server is a
:class:`repro.net.server.NetworkServer` bound to an ephemeral port, and the
client is :class:`repro.client.Client` — the same pair an application would
deploy.  The key acceptance test asserts *bit-identity*: a query answered
over the wire reconstructs exactly the estimates, error bars, generation
stamp, and metadata that ``db.query()`` returns in-process.
"""

from __future__ import annotations

import contextlib
import socket
from collections import Counter

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.common.errors import ParseError, QueryRejectedError
from repro.core.blinkdb import BlinkDB
from repro.faults import FaultPlan
from repro.faults import injector as injector_mod
from repro.net import protocol
from repro.net.client import Client, TransportError
from repro.service.loadgen import run_closed_loop
from repro.service.tenancy import TenantQuota
from repro.workloads.conviva import conviva_query_templates
from repro.workloads.tracegen import generate_trace

SQL = "SELECT COUNT(*) FROM sessions WHERE city = 'city_0003' GROUP BY os"
SUM_SQL = "SELECT SUM(session_time) FROM sessions WHERE city = 'city_0003' GROUP BY os"


@pytest.fixture(scope="module")
def net_db(sessions_table):
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=80, min_cap=10, uniform_sample_fraction=0.1),
        cluster=ClusterConfig(num_nodes=20),
    )
    db = BlinkDB(config)
    db.load_table(sessions_table, simulated_rows=20_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    yield db
    db.close()


@pytest.fixture(scope="module")
def net_server(net_db):
    server = net_db.serve_network(num_workers=2)
    yield server
    server.close()


@pytest.fixture()
def client(net_server):
    with Client(net_server.host, net_server.port) as client:
        yield client


def assert_results_identical(wire, local):
    """Bit-for-bit equality of a wire-decoded result against the local one."""
    assert wire.group_by == local.group_by
    assert wire.rows_read == local.rows_read
    assert wire.sample_name == local.sample_name
    assert len(wire.groups) == len(local.groups)
    for wire_group, local_group in zip(wire.groups, local.groups):
        assert list(wire_group.key) == list(local_group.key)
        assert set(wire_group.aggregates) == set(local_group.aggregates)
        for name, local_agg in local_group.aggregates.items():
            wire_agg = wire_group.aggregates[name]
            assert wire_agg.confidence == local_agg.confidence
            assert wire_agg.estimate.value == local_agg.estimate.value
            assert wire_agg.estimate.variance == local_agg.estimate.variance
            assert wire_agg.estimate.sample_rows == local_agg.estimate.sample_rows
            assert wire_agg.estimate.rows_read == local_agg.estimate.rows_read
            # Error bars derive from value/variance, but assert them directly
            # so a representation change cannot silently skew intervals.
            assert wire_agg.interval.half_width == local_agg.interval.half_width
            assert wire_agg.interval.low == local_agg.interval.low
            assert wire_agg.interval.high == local_agg.interval.high


class TestWireBitIdentity:
    @pytest.mark.parametrize("sql", [SQL, SUM_SQL])
    def test_wire_answer_matches_in_process(self, net_db, client, sql):
        local = net_db.query(sql)
        wire = client.query(sql)
        assert_results_identical(wire, local)

    def test_metadata_stamps_generation_backend_and_trace(self, net_db, client):
        result = client.query(SQL)
        assert result.metadata["generation"] == net_db.query(SQL).metadata["generation"]
        assert result.metadata["backend"] == "threads"
        assert result.metadata["trace_id"]
        assert client.last_meta["request_id"] == result.metadata["trace_id"]

    def test_request_id_round_trips_to_trace(self, net_server):
        with Client(net_server.host, net_server.port) as client:
            analyzed = client.explain_analyze(SQL)
        assert analyzed["trace"] is not None
        assert analyzed["trace"]["attrs"]["request_id"] == analyzed["meta"]["request_id"]

    def test_bit_identity_against_process_backend(self, sessions_table):
        config = BlinkDBConfig(
            sampling=SamplingConfig(
                largest_cap=300, min_cap=25, uniform_sample_fraction=0.1
            ),
            cluster=ClusterConfig(num_nodes=8),
            execution_backend="processes",
            procpool_workers=2,
            procpool_retry_backoff_seconds=0.01,
        )
        db = BlinkDB(config)
        try:
            db.load_table(sessions_table, simulated_rows=20_000_000)
            db.register_workload(templates=conviva_query_templates())
            db.build_samples(storage_budget_fraction=0.5)
            server = db.serve_network(num_workers=2, cache=False)
            # Plain (serial-plan) queries are bit-identical over the wire.
            local = db.query(SQL)
            with Client(server.host, server.port) as client:
                wire = client.query(SQL)
                assert_results_identical(wire, local)
                assert wire.metadata["generation"] == local.metadata["generation"]
                # Progressive queries route through the partition pipeline,
                # which is where the process backend engages; the final
                # streamed answer must match the local partitioned run
                # bit-for-bit and carry the processes stamp.
                local_final = db.runtime.execute(SQL, progress=lambda snapshot: None)
                wire_final = None
                for kind, payload in client.stream_progressive(SQL):
                    if kind == "final":
                        wire_final = payload
                assert wire_final is not None
                assert_results_identical(wire_final, local_final)
                backend = local_final.metadata["backend_info"]["backend"]
                assert wire_final.metadata["backend"] == backend
                assert backend == "processes"
        finally:
            db.close()


class TestStreaming:
    # Not queried anywhere else in this module: a cached sync answer would
    # resolve the progressive ticket instantly, with no snapshots to stream.
    STREAM_SQL = "SELECT COUNT(*), AVG(session_time) FROM sessions GROUP BY city"

    def test_progressive_stream_is_monotone(self, client):
        snapshots = []
        final = None
        for kind, payload in client.stream_progressive(self.STREAM_SQL):
            if kind == "snapshot":
                snapshots.append(payload)
            else:
                final = payload
        assert len(snapshots) >= 2
        coverages = [snapshot.coverage_fraction for snapshot in snapshots]
        assert coverages == sorted(coverages)
        assert coverages[-1] <= 1.0
        merged = [snapshot.partitions_merged for snapshot in snapshots]
        assert merged == sorted(merged)
        assert final is not None
        assert final.metadata["generation"] is not None


class TestTicketLifecycle:
    def test_submit_poll_result(self, client):
        ticket = client.submit(SQL)
        result = ticket.result(timeout=30)
        assert result.rows_read > 0
        # Ticket results are served from the server-side store afterwards.
        assert ticket.poll()["kind"] == "result"

    def test_cancel_then_poll_reports_cancelled(self, net_server):
        # A dedicated 1-worker service we never start: queries stay queued,
        # so cancellation is deterministic.
        db = net_server.db
        service = db.serve(num_workers=1, autostart=False, cache=False, tenants=True)
        server = db.serve_network(service=service)
        try:
            with Client(server.host, server.port) as client:
                ticket = client.submit(SQL)
                assert ticket.cancel() is True
                with pytest.raises(QueryRejectedError) as excinfo:
                    ticket.result(timeout=1)
                assert excinfo.value.reason == "cancelled"
        finally:
            server.close()

    def test_poll_unknown_ticket_raises_not_found(self, client):
        with pytest.raises(protocol.WireError) as excinfo:
            client._request("/v1/poll", {"ticket": "no-such"}, idempotent=True)
        assert excinfo.value.code == protocol.ERR_NOT_FOUND


class TestErrorTaxonomy:
    def test_bad_sql_maps_to_parse_error(self, client):
        with pytest.raises(ParseError):
            client.query("SELEKT nonsense")
        assert client.stats["retries"] == 0  # bad-sql is never retried

    def test_unknown_route_is_not_found(self, client):
        with pytest.raises(protocol.WireError) as excinfo:
            client._request("/v1/definitely-not-a-route", {}, idempotent=True)
        assert excinfo.value.code == protocol.ERR_NOT_FOUND

    def test_quota_shed_maps_to_429_with_retry_after(self, net_db):
        service = net_db.serve(
            num_workers=1,
            autostart=False,
            cache=False,
            tenants=True,
        )
        service.tenants.set_quota("capped", TenantQuota(max_in_flight=1))
        server = net_db.serve_network(service=service)
        try:
            with Client(server.host, server.port, tenant="capped", retries=0) as client:
                first = client.submit(SQL)  # occupies the only slot
                with pytest.raises(QueryRejectedError) as excinfo:
                    client.query(SQL)
                assert excinfo.value.reason == protocol.ERR_SHED_QUOTA
                assert excinfo.value.retry_after_seconds is not None
                first.cancel()
        finally:
            server.close()

    def test_client_honors_retry_after_and_recovers(self, net_db):
        service = net_db.serve(num_workers=1, cache=False, tenants=True)
        service.tenants.set_quota("bursty", TenantQuota(max_in_flight=1))
        server = net_db.serve_network(service=service)
        try:
            with Client(
                server.host,
                server.port,
                tenant="bursty",
                retries=6,
                retry_backoff_seconds=0.02,
            ) as client:
                # Two sync queries in a row from a cap-1 tenant: the second
                # may collide with the first's in-flight slot and be shed;
                # the retrying client must still land both.
                assert client.query(SQL).rows_read > 0
                assert client.query(SQL).rows_read > 0
        finally:
            server.close()


class TestAppendAndMetrics:
    def test_append_over_the_wire(self, net_db, net_server):
        from repro.workloads.conviva import generate_sessions_table

        before = net_db.data_version
        batch = generate_sessions_table(
            num_rows=5, seed=99, num_cities=40, num_countries=15,
            num_customers=100, num_dmas=20, num_asns=50,
        )
        def plain(value):
            return value.item() if hasattr(value, "item") else value

        columnar = {
            name: [plain(v) for v in batch.column(name).values()]
            for name in batch.column_names
        }
        rows = [{name: columnar[name][i] for name in columnar} for i in range(5)]
        with Client(net_server.host, net_server.port) as client:
            report = client.append("sessions", rows)
        assert report["batch_rows"] == 5
        assert report["table"] == "sessions"
        assert net_db.data_version > before

    def test_metrics_endpoint_serves_prometheus_text(self, client):
        client.query(SQL)
        text = client.metrics_text()
        assert "# HELP" in text
        assert "blinkdb" in text

    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "data_version" in health


class TestRetryAndCleanup:
    def test_transport_retry_on_dropped_request(self, net_server):
        with injector_mod.installed(FaultPlan.parse("net.request_drop:limit=2")):
            with Client(
                net_server.host,
                net_server.port,
                retries=5,
                retry_backoff_seconds=0.01,
            ) as client:
                result = client.query(SQL)
                assert result.rows_read > 0
                assert client.stats["transport_errors"] >= 1

    def test_nonidempotent_calls_do_not_retry_transport_errors(self, net_server):
        with injector_mod.installed(FaultPlan.parse("net.request_drop:limit=1")):
            with Client(net_server.host, net_server.port, retries=5) as client:
                with pytest.raises(TransportError):
                    client.append("sessions", [])

    def test_server_close_releases_port(self, net_db):
        server = net_db.serve_network()
        host, port = server.host, server.port
        server.close()
        # The listener must be gone: a fresh bind to the same port succeeds.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((host, port))
        finally:
            probe.close()

    def test_facade_close_shuts_down_owned_servers(self, sessions_table):
        config = BlinkDBConfig(
            sampling=SamplingConfig(
                largest_cap=80, min_cap=10, uniform_sample_fraction=0.1
            ),
            cluster=ClusterConfig(num_nodes=20),
        )
        db = BlinkDB(config)
        db.load_table(sessions_table, simulated_rows=20_000_000)
        db.register_workload(templates=conviva_query_templates())
        db.build_samples(storage_budget_fraction=0.5)
        server = db.serve_network()
        db.close()
        with pytest.raises((TransportError, OSError)):
            with Client(server.host, server.port, retries=0) as client:
                client.healthz()


class TestWireLoad:
    TENANTS = ("gold", "silver", "bronze")
    CONNECTIONS_PER_TENANT = 2

    def test_closed_loop_over_the_wire(self, net_db, net_server, sessions_table):
        """The load driver over real sockets: 3 tenants x 2 connections."""
        queries = generate_trace(
            conviva_query_templates(),
            sessions_table,
            num_queries=24,
            seed=83,
            measure_columns=("session_time",),
        )
        clients: list[Client] = []
        with contextlib.ExitStack() as stack:

            def connect(index: int):
                tenant = self.TENANTS[index // self.CONNECTIONS_PER_TENANT]
                client = stack.enter_context(
                    Client(net_server.host, net_server.port, tenant=tenant)
                )
                clients.append(client)
                return client.query

            report = run_closed_loop(
                connect,
                queries,
                num_clients=len(self.TENANTS) * self.CONNECTIONS_PER_TENANT,
                timeout=60.0,
            )
        assert report.submitted == len(queries)
        assert sum(client.stats["transport_errors"] for client in clients) == 0
        assert report.failed == 0, [row.error for row in report.rows if row.error]
        answered = Counter(
            self.TENANTS[row.client // self.CONNECTIONS_PER_TENANT]
            for row in report.rows
            if row.outcome == "completed"
        )
        assert all(answered[tenant] >= 1 for tenant in self.TENANTS), answered
        for row in report.rows:
            if row.result is not None:
                assert_results_identical(row.result, net_db.query(row.sql))
