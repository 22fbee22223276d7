"""The retrying wire client (also exported as ``repro.client.Client``).

:class:`Client` speaks the :mod:`repro.net.protocol` JSON protocol over one
persistent HTTP/1.1 connection (a ``TCP_NODELAY`` socket and one buffered
reader, framed by :mod:`repro.net.http`: each request leaves in one
``sendall``) and maps the structured error taxonomy back onto the library's
exception types — code from a :class:`~repro.core.blinkdb.BlinkDB` process
and code talking to a server across the wire handle failures identically.

Retry policy
------------
Only *idempotent* calls are retried (queries are read-only; ``submit`` in
ticket mode and ``append`` are not retried because a blind re-send could
duplicate work).  Two failure classes are retryable:

* **Transport failures** — connection refused/reset, socket timeouts, and
  responses that end before their status line or body is complete (a stale
  keep-alive socket the server has closed reads as such an end).  These say
  nothing about the query, so the client reconnects and retries with capped
  exponential backoff.
* **Retryable structured errors** — ``shed-queue-full`` (backlog pressure
  drains) and ``shed-quota`` (the server names the wait: the client honors
  the ``Retry-After`` hint before re-submitting).  ``shed-deadline`` is
  *not* retried: an immediate re-run faces the same backlog and the same
  deadline, so the rejection is final by construction.

Session pinning: every client carries a session name; the server maps
``(tenant, session)`` to one persistent
:class:`~repro.service.session.ClientSession`, so per-session defaults and
history accumulate across wire requests exactly as they do in-process.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from typing import Any, BinaryIO, Iterator, Mapping

from repro.engine.result import QueryResult
from repro.net import http, protocol
from repro.runtime.partitioned import ProgressiveSnapshot

_client_ids = itertools.count(1)


class TransportError(ConnectionError):
    """A wire-level failure (no structured response was received)."""


class NetTicket:
    """A client-side handle on a server-side ticketed query."""

    def __init__(self, client: "Client", ticket_id: str, tenant: str) -> None:
        self.client = client
        self.ticket_id = ticket_id
        self.tenant = tenant
        self._result: QueryResult | None = None
        self._error: BaseException | None = None

    def poll(self) -> dict[str, Any]:
        """One poll round-trip; returns the raw payload (kind/status/...)."""
        payload, _ = self.client._request(
            "/v1/poll", {"ticket": self.ticket_id}, idempotent=True
        )
        return payload

    def result(
        self, timeout: float | None = None, poll_interval: float = 0.02
    ) -> QueryResult:
        """Poll until the query finishes; decode (or raise) its outcome."""
        if self._error is not None:
            raise self._error
        if self._result is not None:
            return self._result
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                payload = self.poll()
            except BaseException as error:  # noqa: BLE001 - remember terminal outcome
                self._error = error
                raise
            if payload.get("kind") != "pending":
                result = protocol.decode_result(payload["result"])
                self._result = result
                return result
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"ticket {self.ticket_id} not finished within {timeout}s"
                )
            time.sleep(poll_interval)

    def cancel(self) -> bool:
        """Ask the server to remove the queued query; False if it already ran."""
        payload, _ = self.client._request(
            "/v1/cancel", {"ticket": self.ticket_id}, idempotent=True
        )
        return bool(payload.get("cancelled"))


class Client:
    """A wire client for one :class:`~repro.net.server.NetworkServer`.

    Not thread-safe: one client per thread (it owns one keep-alive
    connection).  Use as a context manager to release the socket::

        with Client(host, port, tenant="acme") as client:
            result = client.query("SELECT AVG(latency) FROM sessions")
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str | None = None,
        session_name: str | None = None,
        connect_timeout_seconds: float = 5.0,
        request_timeout_seconds: float = 30.0,
        retries: int = 4,
        retry_backoff_seconds: float = 0.05,
        retry_backoff_cap_seconds: float = 1.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.session_name = (
            session_name or f"wire-{os.getpid()}-{next(_client_ids)}"
        )
        self.connect_timeout_seconds = connect_timeout_seconds
        self.request_timeout_seconds = request_timeout_seconds
        self.retries = max(0, retries)
        self.retry_backoff_seconds = retry_backoff_seconds
        self.retry_backoff_cap_seconds = retry_backoff_cap_seconds
        self._sock: socket.socket | None = None
        self._rfile: BinaryIO | None = None
        self._host_header = f"{host}:{port}"
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Wire-level counters (reads are approximate under concurrency).
        self.stats: dict[str, int] = {
            "requests": 0,
            "retries": 0,
            "transport_errors": 0,
            "shed": 0,
        }
        self.last_meta: dict[str, Any] = {}

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- transport ---------------------------------------------------------------
    def _exchange(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes | None,
        timeout: float,
        stream: bool = False,
    ) -> http.Message:
        """Send one request and read its response; callers hold ``_lock``.

        With ``stream``, a 200 response's body is left on the socket for
        the caller to read.  Any failure drops the connection and propagates
        as an :class:`OSError`.
        """
        try:
            if self._sock is None:
                sock = socket.create_connection(
                    (self.host, self.port),
                    timeout=max(timeout, self.connect_timeout_seconds),
                )
                # Disable Nagle: request bodies are small and latency-critical.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sock, self._rfile = sock, sock.makefile("rb")
            # One socket per client: refresh the deadline for this request.
            self._sock.settimeout(timeout)
            headers["Host"] = self._host_header
            http.write_request(self._sock, method, path, headers, body)
            assert self._rfile is not None
            if stream:
                response = http.read_response_head(self._rfile)
                if response.status == 200:
                    return response
                http.read_body(self._rfile, response)
            else:
                response = http.read_response(self._rfile)
        except OSError:
            self.stats["transport_errors"] += 1
            self._drop_connection()
            raise
        if response.close:
            self._drop_connection()
        return response

    def _drop_connection(self) -> None:
        if self._sock is not None:
            assert self._rfile is not None
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def _next_request_id(self) -> str:
        return f"{self.session_name}-{next(self._request_ids)}"

    def _backoff(self, attempt: int) -> float:
        return min(
            self.retry_backoff_cap_seconds,
            self.retry_backoff_seconds * (2.0**attempt),
        )

    def _request(
        self,
        path: str,
        body: Mapping[str, Any],
        idempotent: bool,
        method: str = "POST",
        timeout: float | None = None,
    ) -> tuple[Any, dict[str, Any]]:
        """One protocol round-trip; returns ``(result payload, meta)``.

        Transport failures and retryable structured errors re-send the
        request (idempotent calls only) with capped-exponential backoff,
        honoring a server ``Retry-After`` when one is named.
        """
        timeout = timeout if timeout is not None else self.request_timeout_seconds
        payload = _json_body(body) if method == "POST" else None
        attempt = 0
        while True:
            self.stats["requests"] += 1
            request_id = self._next_request_id()
            headers = {"X-Request-Id": request_id}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            try:
                with self._lock:
                    raw = self._exchange(method, path, headers, payload, timeout).body
            except OSError as error:
                # Transport failure: no structured verdict was received.
                if idempotent and attempt < self.retries:
                    time.sleep(self._backoff(attempt))
                    attempt += 1
                    self.stats["retries"] += 1
                    continue
                raise TransportError(
                    f"{method} {path} failed after {attempt + 1} attempt(s): {error}"
                ) from error
            envelope = json.loads(raw.decode("utf-8"))
            meta = envelope.get("meta") or {}
            self.last_meta = meta
            if envelope.get("ok"):
                return envelope.get("result"), meta
            error_obj = envelope.get("error") or {}
            code = str(error_obj.get("code") or protocol.ERR_INTERNAL)
            message = str(error_obj.get("message") or "unknown wire error")
            retry_after = error_obj.get("retry_after_s")
            if code.startswith("shed-"):
                self.stats["shed"] += 1
            if idempotent and code in protocol.RETRYABLE_CODES and attempt < self.retries:
                wait = (
                    float(retry_after)
                    if retry_after is not None
                    else self._backoff(attempt)
                )
                time.sleep(min(wait, self.retry_backoff_cap_seconds))
                attempt += 1
                self.stats["retries"] += 1
                continue
            raise protocol.exception_for(
                code,
                message,
                float(retry_after) if retry_after is not None else None,
            )

    # -- queries -----------------------------------------------------------------
    def query(self, sql: str, timeout: float | None = None) -> QueryResult:
        """Submit synchronously and decode the (bit-identical) answer.

        The envelope's generation/backend stamp and the request id that also
        tags the server-side trace land in ``result.metadata`` (keys
        ``generation``, ``backend``, ``trace_id``).
        """
        timeout = timeout if timeout is not None else self.request_timeout_seconds
        payload, meta = self._request(
            "/v1/submit",
            self._submit_body(sql, mode="sync", timeout_s=timeout),
            idempotent=True,
            # The socket must outlive the server-side wait for the answer.
            timeout=timeout + self.connect_timeout_seconds,
        )
        result = protocol.decode_result(payload["result"])
        result.metadata.setdefault("trace_id", meta.get("request_id"))
        return result

    def submit(self, sql: str) -> NetTicket:
        """Submit in ticket mode (fire-and-poll); never retried blindly."""
        payload, meta = self._request(
            "/v1/submit",
            self._submit_body(sql, mode="ticket"),
            idempotent=False,
        )
        return NetTicket(
            self, str(payload["ticket"]), str(meta.get("tenant") or "")
        )

    def stream_progressive(
        self, sql: str, timeout: float | None = None
    ) -> Iterator[tuple[str, ProgressiveSnapshot | QueryResult]]:
        """Stream one query's refining answers over a chunked response.

        Yields ``("snapshot", ProgressiveSnapshot)`` per partition merge and
        finally ``("final", QueryResult)``.  Streaming holds the connection,
        so it is never retried mid-flight; wire errors surface as their
        mapped exceptions.
        """
        timeout = timeout if timeout is not None else self.request_timeout_seconds
        body = _json_body(self._submit_body(sql, timeout_s=timeout))
        headers = {
            "X-Request-Id": self._next_request_id(),
            "Content-Type": "application/json",
        }
        with self._lock:
            try:
                response = self._exchange(
                    "POST",
                    "/v1/stream",
                    headers,
                    body,
                    timeout + self.connect_timeout_seconds,
                    stream=True,
                )
            except OSError as error:
                raise TransportError(f"stream failed: {error}") from error
            rfile = self._rfile
        if response.status != 200:
            envelope = json.loads(response.body.decode("utf-8"))
            error_obj = envelope.get("error") or {}
            raise protocol.exception_for(
                str(error_obj.get("code") or protocol.ERR_INTERNAL),
                str(error_obj.get("message") or "stream rejected"),
                error_obj.get("retry_after_s"),
            )
        assert rfile is not None
        try:
            # The server sends each event as one chunk: a JSON line.
            for chunk in http.iter_chunks(rfile):
                event = json.loads(chunk.decode("utf-8"))
                kind = event.get("type")
                if kind == "snapshot":
                    yield "snapshot", protocol.decode_snapshot(event["snapshot"])
                elif kind == "final":
                    self.last_meta = event.get("meta") or {}
                    result = protocol.decode_result(event["result"])
                    result.metadata.setdefault(
                        "trace_id", self.last_meta.get("request_id")
                    )
                    yield "final", result
                elif kind == "error":
                    error_obj = event.get("error") or {}
                    raise protocol.exception_for(
                        str(error_obj.get("code") or protocol.ERR_INTERNAL),
                        str(error_obj.get("message") or "stream failed"),
                        error_obj.get("retry_after_s"),
                    )
        finally:
            # A generator abandoned mid-stream leaves unread chunks on the
            # socket; drop the connection rather than resynchronise it.
            with self._lock:
                self._drop_connection()

    def explain(self, sql: str, timeout: float | None = None) -> str:
        """The server-rendered physical plan text (no execution)."""
        payload, _ = self._request(
            "/v1/explain",
            self._submit_body(sql, timeout_s=timeout),
            idempotent=True,
        )
        return str(payload["text"])

    def explain_analyze(
        self, sql: str, timeout: float | None = None
    ) -> dict[str, Any]:
        """EXPLAIN ANALYZE over the wire: text, decoded result, span tree."""
        timeout = timeout if timeout is not None else self.request_timeout_seconds
        payload, meta = self._request(
            "/v1/explain",
            {**self._submit_body(sql, timeout_s=timeout), "analyze": True},
            idempotent=True,
            timeout=timeout + self.connect_timeout_seconds,
        )
        result = protocol.decode_result(payload["result"])
        result.metadata.setdefault("trace_id", meta.get("request_id"))
        return {
            "text": str(payload["text"]),
            "result": result,
            "trace": payload.get("trace"),
            "meta": dict(meta),
        }

    def append(self, table: str, rows: list[dict[str, Any]]) -> dict[str, Any]:
        """Append rows over the wire (not retried: appends are not idempotent)."""
        payload, _ = self._request(
            "/v1/append", {"table": table, "rows": rows}, idempotent=False
        )
        return dict(payload["report"])

    def cancel(self, ticket: NetTicket) -> bool:
        return ticket.cancel()

    # -- service surface ----------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        payload, _ = self._request("/healthz", {}, idempotent=True, method="GET")
        return dict(payload)

    def metrics_text(self) -> str:
        """The server's Prometheus text exposition (``GET /metrics``)."""
        headers = {"X-Request-Id": self._next_request_id()}
        with self._lock:
            try:
                response = self._exchange(
                    "GET", "/metrics", headers, None, self.request_timeout_seconds
                )
            except OSError as error:
                raise TransportError(f"GET /metrics failed: {error}") from error
        if response.status != 200:
            raise protocol.WireError(
                f"GET /metrics returned HTTP {response.status}", protocol.ERR_INTERNAL
            )
        return response.body.decode("utf-8")

    # -- helpers -------------------------------------------------------------------
    def _submit_body(
        self,
        sql: str,
        mode: str | None = None,
        timeout_s: float | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"sql": sql, "session": self.session_name}
        if self.tenant is not None:
            body["tenant"] = self.tenant
        if mode is not None:
            body["mode"] = mode
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return body


def _json_body(body: Mapping[str, Any]) -> bytes:
    return json.dumps(body).encode("utf-8")
