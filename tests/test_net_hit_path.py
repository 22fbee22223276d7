"""The wire's result-cache hit path: kept encodings, spliced envelopes.

A statement the service answers from its result cache is sent by the
network server from an encoding kept on the cached ``QueryResult``; only
the per-request ``meta`` is encoded again.  These tests pin that the kept
bytes are the bytes a fresh encoding gives, that each response still
carries its own request id, and that an append never lets a kept encoding
of the old generation out.
"""

from __future__ import annotations

import json

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.net import protocol
from repro.net.client import Client
from repro.service.cache import cache_key
from repro.sql.parser import parse_statement
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table

SQL = "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0005' GROUP BY os"
ONCE_SQL = "SELECT SUM(session_time) FROM sessions WHERE city = 'city_0007' GROUP BY os"


@pytest.fixture()
def hit_db(sessions_table):
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


@pytest.fixture()
def hit_server(hit_db):
    server = hit_db.serve_network(num_workers=1)
    yield server
    server.close()


def canonical(result) -> str:
    """The answer as the wire carries it, keys sorted."""
    return json.dumps(protocol.encode_result(result), sort_keys=True)


def cached_result(server, sql):
    return server.service.cache.get(cache_key(parse_statement(sql)))


def batch_rows(num_rows: int, seed: int) -> list[dict]:
    batch = generate_sessions_table(
        num_rows=num_rows, seed=seed, num_cities=40, num_countries=15,
        num_customers=100, num_dmas=20, num_asns=50,
    )
    columns = {
        name: [v.item() if hasattr(v, "item") else v for v in batch.column(name).values()]
        for name in batch.column_names
    }
    return [{name: columns[name][i] for name in columns} for i in range(num_rows)]


class TestKeptEncoding:
    def test_repeats_are_bit_identical_with_their_own_meta(self, hit_db, hit_server):
        with Client(hit_server.host, hit_server.port) as client:
            answers, metas = [], []
            for _ in range(3):
                answers.append(canonical(client.query(SQL)))
                metas.append(dict(client.last_meta))
        assert answers[1] == answers[0] and answers[2] == answers[0]
        assert answers[0] == canonical(hit_db.query(SQL))
        request_ids = [meta["request_id"] for meta in metas]
        assert request_ids == [f"{client.session_name}-{i}" for i in (1, 2, 3)]
        assert len({meta["ticket_id"] for meta in metas}) == 3
        for meta in metas:
            assert meta["generation"] == hit_db.table_generation("sessions")
            assert meta["backend"] == "threads"
        # The second send (the first hit) kept the encoding the third reused.
        kept = cached_result(hit_server, SQL).wire_text
        assert kept == json.dumps(
            {"kind": "result", "result": protocol.encode_result(hit_db.query(SQL))}
        )

    def test_polled_repeats_use_the_kept_encoding_too(self, hit_db, hit_server):
        with Client(hit_server.host, hit_server.port) as client:
            answers = [canonical(client.submit(SQL).result()) for _ in range(3)]
        assert answers == [canonical(hit_db.query(SQL))] * 3
        assert cached_result(hit_server, SQL).wire_text is not None

    def test_an_answer_served_once_keeps_nothing(self, hit_server):
        with Client(hit_server.host, hit_server.port) as client:
            client.query(ONCE_SQL)
        cached = cached_result(hit_server, ONCE_SQL)
        assert cached is not None and cached.wire_text is None

    def test_append_serves_the_new_generation(self, hit_db, hit_server):
        with Client(hit_server.host, hit_server.port) as client:
            for _ in range(3):
                client.query(SQL)
            before = client.last_meta["generation"]
            stale = cached_result(hit_server, SQL)
            assert stale.wire_text is not None
            hit_db.append("sessions", batch_rows(20, seed=5))
            after = canonical(client.query(SQL))
            meta = dict(client.last_meta)
        assert meta["generation"] == hit_db.table_generation("sessions") > before
        assert after == canonical(hit_db.query(SQL))
        fresh = cached_result(hit_server, SQL)
        assert fresh is not stale and fresh.wire_text is None
        assert json.loads(after)["metadata"]["generation"] == meta["generation"]


class TestEnvelopeSplice:
    @pytest.mark.parametrize(
        "meta",
        [
            None,
            {},
            {"request_id": "r-1", "ticket_id": 7, "tenant": "acme",
             "generation": 3, "backend": "threads"},
            {"request_id": "naïve \"quoted\"\n", "nested": {"a": [1, 2.5, None]}},
        ],
    )
    def test_splice_equals_encoding_the_whole_envelope(self, meta):
        payload = {"kind": "result", "result": {"x": [1.0, 0.1, float("inf")], "s": "é"}}
        spliced = protocol.ok_envelope_text(json.dumps(payload), meta)
        assert spliced == json.dumps(protocol.ok_envelope(payload, meta))

    def test_splice_of_a_real_answer(self, hit_db):
        result = hit_db.query(SQL)
        meta = {"request_id": "r-9", "generation": 1, "backend": "threads"}
        payload = {"kind": "result", "result": protocol.encode_result(result)}
        text = protocol.result_payload_text(result)
        assert result.wire_text is None  # without keep, nothing stays behind
        assert protocol.ok_envelope_text(text, meta) == json.dumps(
            protocol.ok_envelope(payload, meta)
        )
