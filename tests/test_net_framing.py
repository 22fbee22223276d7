"""HTTP/1.1 framing of the wire server and client (:mod:`repro.net.http`).

Both ends frame messages with the one small module; these tests hold it to
the protocol from outside.  The standard library's own HTTP client talks
to the server (keep-alive requests and a chunked stream), raw sockets send
malformed, oversized and byte-by-byte requests, and a scripted server
closes keep-alive connections under the client to check which calls it
retries.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.net import http as framing
from repro.net import protocol
from repro.net.client import Client, TransportError
from repro.workloads.conviva import conviva_query_templates

SQL = "SELECT COUNT(*) FROM sessions WHERE city = 'city_0004' GROUP BY os"
# Queried nowhere else here: a cached answer would stream no snapshots.
STREAM_SQL = "SELECT COUNT(*), SUM(session_time) FROM sessions GROUP BY country"


@pytest.fixture(scope="module")
def framing_db(sessions_table):
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
def server(framing_db):
    server = framing_db.serve_network(num_workers=1)
    yield server
    server.close()


def connect(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def exchange_then_eof(server, data: bytes) -> framing.Message:
    """Send raw bytes, read one response, and require the server to close."""
    with connect(server) as sock:
        sock.sendall(data)
        rfile = sock.makefile("rb")
        response = framing.read_response(rfile)
        assert rfile.read() == b"", "the server must close the connection"
    return response


def assert_bad_request(response: framing.Message, status: int) -> None:
    assert response.status == status
    assert response.headers["connection"] == "close"
    envelope = json.loads(response.body)
    assert envelope["ok"] is False
    assert envelope["error"]["code"] == protocol.ERR_BAD_REQUEST
    assert envelope["meta"]["request_id"]


class TestStdlibInterop:
    def test_keep_alive_requests_and_a_chunked_stream(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            body = json.dumps({"sql": SQL})
            statuses, envelopes = [], []
            for _ in range(2):
                conn.request("POST", "/v1/submit", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                statuses.append(response.status)
                envelopes.append(json.loads(response.read()))
                assert response.getheader("Server") == "blinkdb-net/1"
                assert response.getheader("Date")
            first_socket = conn.sock
            assert statuses == [200, 200]
            assert all(envelope["ok"] for envelope in envelopes)
            assert envelopes[0]["result"] == envelopes[1]["result"]

            conn.request("POST", "/v1/stream", body=json.dumps({"sql": STREAM_SQL}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            events = [json.loads(line) for line in response.read().splitlines()]
            # Every request above rode the one keep-alive connection.
            assert conn.sock is first_socket
        finally:
            conn.close()
        kinds = [event["type"] for event in events]
        assert kinds[-1] == "final"
        assert set(kinds[:-1]) == {"snapshot"}


class TestRequestFraming:
    def test_a_request_sent_one_byte_at_a_time(self, server):
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: test\r\nX-Request-Id: trickle-1\r\n\r\n"
        )
        with connect(server) as sock:
            for index in range(len(request)):
                sock.sendall(request[index:index + 1])
            response = framing.read_response(sock.makefile("rb"))
        assert response.status == 200
        assert not response.close
        envelope = json.loads(response.body)
        assert envelope["ok"] is True
        assert envelope["result"]["status"] == "ok"
        assert envelope["meta"]["request_id"] == "trickle-1"

    def test_a_malformed_request_line_gets_400_then_close(self, server):
        response = exchange_then_eof(server, b"THIS IS NOT HTTP AT ALL\r\n\r\n")
        assert_bad_request(response, 400)

    def test_an_oversized_request_line_gets_414_then_close(self, server):
        target = b"/" + b"a" * (framing.MAX_LINE + 10)
        response = exchange_then_eof(server, b"GET " + target + b" HTTP/1.1\r\n\r\n")
        assert_bad_request(response, 414)

    def test_an_oversized_header_line_gets_431_then_close(self, server):
        header = b"X-Big: " + b"b" * (framing.MAX_LINE + 10) + b"\r\n"
        response = exchange_then_eof(server, b"GET /healthz HTTP/1.1\r\n" + header + b"\r\n")
        assert_bad_request(response, 431)

    def test_too_many_headers_get_431_then_close(self, server):
        headers = b"".join(
            b"X-H%d: %d\r\n" % (i, i) for i in range(framing.MAX_HEADERS + 1)
        )
        response = exchange_then_eof(server, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
        assert_bad_request(response, 431)

    def test_the_header_limit_itself_is_accepted(self, server):
        headers = b"".join(b"X-H%d: %d\r\n" % (i, i) for i in range(framing.MAX_HEADERS))
        with connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
            response = framing.read_response(sock.makefile("rb"))
        assert response.status == 200

    def test_a_chunked_request_body_gets_411_then_close(self, server):
        body = b'{"sql": "SELECT 1"}'
        request = (
            b"POST /v1/submit HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        )
        assert_bad_request(exchange_then_eof(server, request), 411)

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        ],
        ids=["http-1.0", "connection-close"],
    )
    def test_closing_requests_get_connection_close(self, server, request_bytes):
        response = exchange_then_eof(server, request_bytes)
        assert response.status == 200
        assert response.headers["connection"] == "close"
        assert json.loads(response.body)["ok"] is True


class _ClosingServer:
    """Answers one request per connection, then closes it without notice.

    The response carries no ``Connection: close``, so the client keeps the
    socket for its next call and finds it closed: an end of stream before
    the status line.
    """

    RESULT = {"status": "ok", "ticket": "7", "report": {"batch_rows": 0}}

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.answered = 0
        self.closed = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            with sock:
                request = framing.read_request(sock.makefile("rb"))
                if request is not None:
                    self.answered += 1
                    body = json.dumps(protocol.ok_envelope(self.RESULT, {})).encode()
                    framing.write_response(
                        sock, 200, {"Content-Type": "application/json"}, body
                    )
            self.closed.set()

    def stale_client(self) -> Client:
        """A client whose kept connection the server has already closed."""
        client = Client("127.0.0.1", self.port, retries=3, retry_backoff_seconds=0.01)
        self.closed.clear()
        assert client.healthz()["status"] == "ok"
        assert self.closed.wait(10)
        return client

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.listener.close()
        self.thread.join(10)


@pytest.fixture()
def closing_server():
    server = _ClosingServer()
    yield server
    server.close()


class TestStaleConnectionRetry:
    def test_idempotent_calls_retry_on_a_fresh_connection(self, closing_server):
        with closing_server.stale_client() as client:
            assert client.healthz()["status"] == "ok"
            assert client.stats["transport_errors"] == 1
            assert client.stats["retries"] == 1
        assert closing_server.answered == 2

    @pytest.mark.parametrize("call", ["append", "submit"])
    def test_non_idempotent_calls_are_not_retried(self, closing_server, call):
        with closing_server.stale_client() as client:
            with pytest.raises(TransportError):
                if call == "append":
                    client.append("sessions", [])
                else:
                    client.submit(SQL)
            assert client.stats["retries"] == 0
        assert closing_server.answered == 1


class TestCloseEndsConnections:
    def test_a_connected_client_is_cut_off_by_close(self, framing_db):
        server = framing_db.serve_network(num_workers=1)
        port = server.port
        client = Client(server.host, port, retries=1, retry_backoff_seconds=0.01)
        try:
            assert client.healthz()["status"] == "ok"
            conn_threads = [
                t for t in threading.enumerate() if t.name == f"blinkdb-net-{port}-conn"
            ]
            assert len(conn_threads) == 1
            server.close()
            with pytest.raises(TransportError):
                client.healthz()
        finally:
            client.close()
            server.close()
        assert not conn_threads[0].is_alive()
