"""The wire-protocol server: a threaded HTTP/1.1 front door over one service.

:class:`NetworkServer` binds a real TCP socket (stdlib
``socketserver.ThreadingTCPServer``: one thread per connection, named
``blinkdb-net-<port>-conn``) in front of a tenant-aware
:class:`~repro.service.server.QueryService`.  Each connection thread runs a
keep-alive loop over :func:`repro.net.http.read_request` and answers every
request with one :func:`~repro.net.http.write_response` (one ``sendall``).
The connection threads only parse, admit, and wait; actual query execution
stays on the service's worker pool, so hundreds of idle connections cost
hundreds of parked threads, not hundreds of executing queries.  The server
records every accepted socket: :meth:`NetworkServer.close` shuts each one
down and joins its thread, so no connection outlives the server.

A request that breaks HTTP/1.1 framing (a bad request line, a line over
64 KiB, more than 100 headers, a ``Transfer-Encoding`` body) is answered
with a ``bad-request`` envelope under the framing status (400, 414, 431,
411) and the connection is closed, as it is after an HTTP/1.0 request or a
``Connection: close`` one.

Routes (all bodies JSON; see :mod:`repro.net.protocol` for the envelope):

=========================  ======================================================
``POST /v1/submit``        ``{"sql", "tenant"?, "session"?, "mode": "sync"|
                           "ticket", "timeout_s"?}`` — sync waits for the
                           answer; ticket returns a ticket id to poll.
``POST /v1/poll``          ``{"ticket"}`` — status plus the answer when done.
``POST /v1/cancel``        ``{"ticket"}`` — remove a queued query from the
                           EDF queue (running queries are not interrupted).
``POST /v1/stream``        ``{"sql", ...}`` — chunked transfer: one JSON line
                           per progressive snapshot, then a final line with
                           the complete answer.
``POST /v1/explain``       ``{"sql", "analyze"?}`` — plan text; with
                           ``analyze`` the query executes and the span tree
                           rides along.
``POST /v1/append``        ``{"table", "rows"}`` — streaming ingest over the
                           wire; returns the append report.
``GET /metrics``           Prometheus text exposition (``db.metrics_text()``).
``GET /healthz``           liveness probe.
=========================  ======================================================

Every response's ``meta`` echoes the request id (client ``X-Request-Id``
header, else server-generated); the id is forwarded into
``QueryService.submit(request_id=...)`` so a sampled trace's root span
carries the same id — one identifier correlates the client's wire request
with the server's span tree.  Query answers additionally stamp the serving
``generation`` and execution ``backend`` into ``meta``.

A repeated statement is served without re-parsing or re-encoding it:
:func:`~repro.sql.parser.parse_statement` is memoised by statement text,
the service's result cache answers with the very ``QueryResult`` object it
holds, and when a ticket was such a cache hit the handler keeps that
answer's encoded payload on the object
(:func:`~repro.net.protocol.result_payload_text`).  Later hits only encode
their own ``meta`` and splice it around the kept text
(:func:`~repro.net.protocol.ok_envelope_text`), byte for byte what encoding
the whole envelope gives.  A miss keeps nothing; appends and sample
rebuilds drop the cached answer, so a kept encoding is never served stale.

Fault points (chaos suite): ``net.request_drop`` closes the connection
before writing any response (the client sees a transport error, not a
structured one); ``net.slow_response`` delays the response by the rule's
``latency_seconds``.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
import uuid
from typing import TYPE_CHECKING, Any, Mapping

from repro.engine.result import QueryResult
from repro.faults.injector import active as _fault_active
from repro.net import http, protocol
from repro.obs.analyze import AnalyzeResult
from repro.planner.physical import ExplainResult
from repro.service.server import QueryService, QueryTicket
from repro.service.session import ClientSession
from repro.service.tenancy import DEFAULT_TENANT, TenantQuota, TenantRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.blinkdb import BlinkDB

#: How long a finished ticket stays pollable before the store drops it.
_TICKET_TTL_SECONDS = 300.0
#: Wire-thread sleep while watching a progressive ticket for new snapshots.
_STREAM_POLL_SECONDS = 0.01
#: How long a connection answered with a framing error may keep sending
#: before it is closed (see ``Handler._linger``).
_LINGER_SECONDS = 1.0


def _json_bytes(obj: Mapping[str, Any]) -> bytes:
    # default=str keeps exotic attr values (enums, numpy scalars in span
    # attrs) from killing a response; result payloads never rely on it.
    return json.dumps(obj, default=str).encode("utf-8")


class NetworkServer:
    """A TCP front door over one :class:`~repro.service.server.QueryService`.

    When no ``service`` is passed the server creates its own tenant-aware
    one (``tenants=True``) and closes it on :meth:`close`.  ``port=0`` binds
    an ephemeral port; read the actual address from :attr:`port` /
    :attr:`url`.
    """

    def __init__(
        self,
        db: "BlinkDB",
        host: str = "127.0.0.1",
        port: int = 0,
        service: QueryService | None = None,
        num_workers: int = 4,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        default_timeout_seconds: float = 30.0,
        **service_kwargs: Any,
    ) -> None:
        self.db = db
        self.default_timeout_seconds = default_timeout_seconds
        if service is None:
            registry = TenantRegistry(quotas=quotas, default_quota=default_quota)
            service = QueryService(
                db, num_workers=num_workers, tenants=registry, **service_kwargs
            )
            self._owns_service = True
        else:
            self._owns_service = False
        self.service = service
        self._sessions: dict[tuple[str, str], ClientSession] = {}
        self._sessions_lock = threading.Lock()
        self._tickets: dict[str, tuple[QueryTicket, float]] = {}
        self._tickets_lock = threading.Lock()
        self._closed = False

        self._tcp = _TCPServer((host, port), _build_handler(self))
        self.host, self.port = self._tcp.server_address[:2]
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            name=f"blinkdb-net-{self.port}",
            daemon=True,
        )
        self._thread.start()

    # -- lifecycle ---------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting, end every open connection, release the port.

        Open keep-alive connections are shut down, so their clients see a
        transport error; an owned service is closed; each connection thread
        is joined within ``timeout`` seconds overall.
        """
        if self._closed:
            return
        self._closed = True
        deadline = None if timeout is None else time.monotonic() + timeout
        self._tcp.shutdown()
        self._tcp.server_close()
        self._thread.join(timeout)
        with self._tcp.connections_lock:
            connections = list(self._tcp.connections.items())
        for sock, _ in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the connection ended on its own meanwhile
        if self._owns_service and not self.service._closed:
            self.service.close()
        for _, thread in connections:
            thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        with self._tickets_lock:
            self._tickets.clear()

    def __enter__(self) -> "NetworkServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- sessions / tickets --------------------------------------------------------
    def _session_for(self, tenant: str, session_name: str | None) -> ClientSession | None:
        if session_name is None:
            return None
        key = (tenant, session_name)
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is None:
                session = self.service.connect(
                    name=f"{tenant}/{session_name}", tenant=tenant
                )
                self._sessions[key] = session
            return session

    def _store_ticket(self, ticket: QueryTicket) -> str:
        ticket_id = str(ticket.ticket_id)
        now = time.monotonic()
        with self._tickets_lock:
            self._tickets[ticket_id] = (ticket, now)
            # Opportunistic TTL sweep of finished tickets nobody polled.
            expired = [
                key
                for key, (stored, stored_at) in self._tickets.items()
                if stored.done() and now - stored_at > _TICKET_TTL_SECONDS
            ]
            for key in expired:
                del self._tickets[key]
        return ticket_id

    def _ticket(self, ticket_id: str) -> QueryTicket | None:
        with self._tickets_lock:
            entry = self._tickets.get(ticket_id)
            return entry[0] if entry is not None else None

    # -- introspection ------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        with self._tickets_lock:
            tickets = len(self._tickets)
        with self._sessions_lock:
            sessions = len(self._sessions)
        return {
            "url": self.url,
            "closed": self._closed,
            "wire_sessions": sessions,
            "stored_tickets": tickets,
            "service": self.service.name,
        }


class _TCPServer(socketserver.ThreadingTCPServer):
    """The listener: one named daemon thread per connection, each recorded.

    ``connections`` maps every open connection socket to its thread, so
    :meth:`NetworkServer.close` can end connections that are still open.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], handler: type) -> None:
        super().__init__(address, handler)
        self.connections: dict[socket.socket, threading.Thread] = {}
        self.connections_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"blinkdb-net-{self.server_address[1]}-conn",
            daemon=True,
        )
        with self.connections_lock:
            self.connections[request] = thread
        thread.start()

    def shutdown_request(self, request: Any) -> None:
        with self.connections_lock:
            self.connections.pop(request, None)
        super().shutdown_request(request)


def _result_meta(result: QueryResult) -> dict[str, Any]:
    """The generation/backend stamp every answer's envelope meta carries."""
    meta: dict[str, Any] = {}
    generation = result.metadata.get("generation")
    if generation is not None:
        meta["generation"] = int(generation)
    backend_info = result.metadata.get("backend_info")
    if isinstance(backend_info, Mapping) and "backend" in backend_info:
        meta["backend"] = str(backend_info["backend"])
    else:
        meta["backend"] = "threads"
    return meta


def _build_handler(server: NetworkServer) -> type[socketserver.StreamRequestHandler]:
    """A handler class closed over one :class:`NetworkServer` instance."""

    class Handler(socketserver.StreamRequestHandler):
        # Small writes on a keep-alive socket otherwise hit the Nagle +
        # delayed-ACK interaction (~40ms per round-trip on loopback).
        disable_nagle_algorithm = True

        close_connection = False

        # -- plumbing -----------------------------------------------------------
        def handle(self) -> None:
            """The keep-alive loop: read a request, answer it, until one closes."""
            while not self.close_connection:
                try:
                    request = http.read_request(self.rfile)
                except http.ProtocolError as error:
                    self._reject(error)
                    return
                except OSError:
                    return  # reset by the peer, or shut down by close()
                if request is None:
                    return
                self.path = request.target
                self.headers = request.headers
                self.body = request.body
                self.close_connection = request.close
                try:
                    if request.method == "GET":
                        self.do_GET()
                    elif request.method == "POST":
                        self.do_POST()
                    else:
                        self._reject(
                            http.ProtocolError(f"unsupported method {request.method!r}", 501)
                        )
                except OSError:
                    return  # the peer went away mid-answer

        def _reject(self, error: http.ProtocolError) -> None:
            """Answer a request the framing refused, then close the connection."""
            self.close_connection = True
            meta = {"request_id": uuid.uuid4().hex[:16]}
            try:
                self._send_envelope(
                    error.status,
                    protocol.error_envelope(protocol.ERR_BAD_REQUEST, str(error), meta=meta),
                )
                self._linger()
            except OSError:
                pass

        def _linger(self) -> None:
            # Closing with unread input resets the connection, and the reset
            # can destroy the answer before the client reads it.  So half-close
            # and discard what the client still sends, for a bounded time.
            sock = self.connection
            sock.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + _LINGER_SECONDS
            while (left := deadline - time.monotonic()) > 0:
                sock.settimeout(left)
                if not sock.recv(65536):
                    return

        def _request_id(self) -> str:
            header = self.headers.get("x-request-id")
            return header if header else uuid.uuid4().hex[:16]

        def _read_body(self) -> dict[str, Any]:
            if not self.body:
                return {}
            parsed = json.loads(self.body.decode("utf-8"))
            if not isinstance(parsed, dict):
                raise ValueError("request body must be a JSON object")
            return parsed

        def _fault_gate(self) -> bool:
            """Apply net.* fault points; True means the request was dropped."""
            injector = _fault_active()
            if injector is None:
                return False
            decision = injector.check("net.request_drop")
            if decision is not None:
                # Drop: shut the socket with no response — the client must
                # see a *transport* failure, never a structured error.
                self.close_connection = True
                try:
                    self.connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return True
            decision = injector.check("net.slow_response")
            if decision is not None and decision.latency_seconds > 0.0:
                time.sleep(decision.latency_seconds)
            return False

        def _send_envelope(
            self,
            status: int,
            envelope: Mapping[str, Any],
            retry_after: float | None = None,
        ) -> None:
            self._send_body(status, _json_bytes(envelope), retry_after)

        def _send_body(
            self,
            status: int,
            body: bytes,
            retry_after: float | None = None,
            content_type: str = "application/json",
        ) -> None:
            headers = {"Content-Type": content_type}
            if retry_after is not None:
                headers["Retry-After"] = f"{max(0.0, retry_after):.3f}"
            http.write_response(
                self.connection, status, headers, body, close=self.close_connection
            )

        def _send_error_envelope(
            self, error: BaseException, meta: dict[str, Any]
        ) -> None:
            code, retry_after = protocol.error_code_for(error)
            status = protocol.HTTP_STATUS.get(code, 500)
            self._send_envelope(
                status,
                protocol.error_envelope(code, str(error), retry_after, meta),
                retry_after=retry_after,
            )

        # -- HTTP verbs ---------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - one method per HTTP verb
            if self._fault_gate():
                return
            request_id = self._request_id()
            meta = {"request_id": request_id}
            try:
                if self.path == "/healthz":
                    self._send_envelope(
                        200,
                        protocol.ok_envelope(
                            {
                                "status": "ok",
                                "service": server.service.name,
                                "data_version": server.db.data_version,
                            },
                            meta,
                        ),
                    )
                elif self.path == "/metrics":
                    self._send_body(
                        200,
                        server.db.metrics_text().encode("utf-8"),
                        content_type="text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._send_envelope(
                        404,
                        protocol.error_envelope(
                            protocol.ERR_NOT_FOUND, f"no route {self.path!r}", meta=meta
                        ),
                    )
            except Exception as error:  # noqa: BLE001 - wire boundary
                self._send_error_envelope(error, meta)

        def do_POST(self) -> None:  # noqa: N802 - one method per HTTP verb
            if self._fault_gate():
                return
            request_id = self._request_id()
            meta: dict[str, Any] = {"request_id": request_id}
            try:
                body = self._read_body()
            except (ValueError, json.JSONDecodeError) as error:
                self._send_envelope(
                    400,
                    protocol.error_envelope(
                        protocol.ERR_BAD_REQUEST, f"bad request body: {error}", meta=meta
                    ),
                )
                return
            routes = {
                "/v1/submit": self._op_submit,
                "/v1/poll": self._op_poll,
                "/v1/cancel": self._op_cancel,
                "/v1/stream": self._op_stream,
                "/v1/explain": self._op_explain,
                "/v1/append": self._op_append,
            }
            op = routes.get(self.path)
            if op is None:
                self._send_envelope(
                    404,
                    protocol.error_envelope(
                        protocol.ERR_NOT_FOUND, f"no route {self.path!r}", meta=meta
                    ),
                )
                return
            try:
                op(body, meta)
            except BrokenPipeError:
                self.close_connection = True
            except Exception as error:  # noqa: BLE001 - wire boundary
                self._send_error_envelope(error, meta)

        # -- operations ---------------------------------------------------------
        def _submit_ticket(
            self, body: Mapping[str, Any], meta: dict[str, Any], progressive: bool
        ) -> QueryTicket:
            sql = body.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                raise protocol.WireError(
                    "submit requires a non-empty 'sql' string", protocol.ERR_BAD_REQUEST
                )
            tenant = str(body.get("tenant") or DEFAULT_TENANT)
            session = server._session_for(tenant, body.get("session"))
            ticket = server.service.submit(
                sql,
                session=session,
                progressive=progressive,
                tenant=tenant,
                request_id=meta["request_id"],
            )
            meta["ticket_id"] = ticket.ticket_id
            meta["tenant"] = tenant
            return ticket

        def _op_submit(self, body: Mapping[str, Any], meta: dict[str, Any]) -> None:
            mode = body.get("mode", "sync")
            progressive = bool(body.get("progressive", False))
            ticket = self._submit_ticket(body, meta, progressive)
            if mode == "ticket":
                server._store_ticket(ticket)
                self._send_envelope(
                    200,
                    protocol.ok_envelope(
                        {"ticket": str(ticket.ticket_id), "status": ticket.status}, meta
                    ),
                )
                return
            timeout = float(body.get("timeout_s") or server.default_timeout_seconds)
            result = ticket.result(timeout=timeout)
            self._send_result(result, meta, keep=ticket.metrics.cache_hit)

        def _send_result(
            self, result: object, meta: dict[str, Any], keep: bool = False
        ) -> None:
            """Send an answer; ``keep`` keeps a query answer's encoding for repeats."""
            if isinstance(result, AnalyzeResult):
                meta.update(_result_meta(result.result))
                payload: dict[str, Any] = {
                    "kind": "analyze",
                    "text": result.text,
                    "result": protocol.encode_result(result.result),
                    "trace": result.trace.to_dict() if result.trace.sampled else None,
                }
            elif isinstance(result, ExplainResult):
                payload = {"kind": "explain", "text": result.text}
            else:
                assert isinstance(result, QueryResult)
                meta.update(_result_meta(result))
                text = protocol.ok_envelope_text(
                    protocol.result_payload_text(result, keep=keep), meta
                )
                self._send_body(200, text.encode("utf-8"))
                return
            self._send_envelope(200, protocol.ok_envelope(payload, meta))

        def _op_poll(self, body: Mapping[str, Any], meta: dict[str, Any]) -> None:
            ticket_id = str(body.get("ticket") or "")
            ticket = server._ticket(ticket_id)
            if ticket is None:
                raise protocol.WireError(
                    f"unknown ticket {ticket_id!r}", protocol.ERR_NOT_FOUND
                )
            meta["ticket_id"] = ticket.ticket_id
            status = ticket.status
            if status == "pending":
                snapshot = ticket.latest_snapshot()
                self._send_envelope(
                    200,
                    protocol.ok_envelope(
                        {
                            "kind": "pending",
                            "status": status,
                            "progress_fraction": ticket.progress_fraction,
                            "snapshot": (
                                protocol.encode_snapshot(snapshot)
                                if snapshot is not None
                                else None
                            ),
                        },
                        meta,
                    ),
                )
                return
            error = ticket.exception()
            if error is not None:
                raise error
            self._send_result(
                ticket.result(timeout=0.0), meta, keep=ticket.metrics.cache_hit
            )

        def _op_cancel(self, body: Mapping[str, Any], meta: dict[str, Any]) -> None:
            ticket_id = str(body.get("ticket") or "")
            ticket = server._ticket(ticket_id)
            if ticket is None:
                raise protocol.WireError(
                    f"unknown ticket {ticket_id!r}", protocol.ERR_NOT_FOUND
                )
            cancelled = ticket.cancel()
            meta["ticket_id"] = ticket.ticket_id
            self._send_envelope(
                200,
                protocol.ok_envelope(
                    {"cancelled": cancelled, "status": ticket.status}, meta
                ),
            )

        def _op_stream(self, body: Mapping[str, Any], meta: dict[str, Any]) -> None:
            """Chunked progressive streaming: one JSON line per event."""
            ticket = self._submit_ticket(body, meta, progressive=True)
            timeout = float(body.get("timeout_s") or server.default_timeout_seconds)
            deadline = time.monotonic() + timeout

            http.write_chunked_head(
                self.connection,
                200,
                {"Content-Type": "application/x-ndjson"},
                close=self.close_connection,
            )

            def write_chunk(obj: Mapping[str, Any]) -> None:
                http.write_chunk(self.connection, _json_bytes(obj) + b"\n")

            sent = 0
            try:
                while True:
                    snapshots = ticket.snapshots()
                    for snapshot in snapshots[sent:]:
                        write_chunk(
                            {
                                "type": "snapshot",
                                "meta": meta,
                                "snapshot": protocol.encode_snapshot(snapshot),
                            }
                        )
                    sent = len(snapshots)
                    if ticket.done():
                        break
                    if time.monotonic() > deadline:
                        write_chunk(
                            {
                                "type": "error",
                                "meta": meta,
                                "error": {
                                    "code": protocol.ERR_TIMEOUT,
                                    "message": f"stream exceeded {timeout}s",
                                },
                            }
                        )
                        http.write_chunk(self.connection, b"")
                        return
                    ticket.wait(_STREAM_POLL_SECONDS)
                error = ticket.exception()
                if error is not None:
                    code, retry_after = protocol.error_code_for(error)
                    event: dict[str, Any] = {
                        "type": "error",
                        "meta": meta,
                        "error": {"code": code, "message": str(error)},
                    }
                    if retry_after is not None:
                        event["error"]["retry_after_s"] = retry_after
                    write_chunk(event)
                else:
                    result = ticket.result(timeout=0.0)
                    assert isinstance(result, QueryResult)
                    final_meta = dict(meta)
                    final_meta.update(_result_meta(result))
                    write_chunk(
                        {
                            "type": "final",
                            "meta": final_meta,
                            "result": protocol.encode_result(result),
                        }
                    )
                http.write_chunk(self.connection, b"")
            except BrokenPipeError:
                # Client went away mid-stream; queued work is already
                # running, nothing to unwind at the wire layer.
                self.close_connection = True

        def _op_explain(self, body: Mapping[str, Any], meta: dict[str, Any]) -> None:
            sql = body.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                raise protocol.WireError(
                    "explain requires a non-empty 'sql' string", protocol.ERR_BAD_REQUEST
                )
            analyze = bool(body.get("analyze", False))
            prefix = "EXPLAIN ANALYZE " if analyze else "EXPLAIN "
            statement = sql.strip()
            if not statement.upper().startswith("EXPLAIN"):
                statement = prefix + statement
            tenant = str(body.get("tenant") or DEFAULT_TENANT)
            session = server._session_for(tenant, body.get("session"))
            ticket = server.service.submit(
                statement,
                session=session,
                tenant=tenant,
                request_id=meta["request_id"],
            )
            timeout = float(body.get("timeout_s") or server.default_timeout_seconds)
            self._send_result(ticket.result(timeout=timeout), meta)

        def _op_append(self, body: Mapping[str, Any], meta: dict[str, Any]) -> None:
            table = body.get("table")
            rows = body.get("rows")
            if not isinstance(table, str) or not isinstance(rows, list):
                raise protocol.WireError(
                    "append requires 'table' (string) and 'rows' (list)",
                    protocol.ERR_BAD_REQUEST,
                )
            report = server.db.append(table, rows)
            self._send_envelope(
                200,
                protocol.ok_envelope({"kind": "append", "report": report.describe()}, meta),
            )

    return Handler
