"""The versioned JSON wire format shared by server and client.

Design notes
------------
**Bit-exact answers.**  Python's ``json`` module serialises floats with
``repr``, which since Python 3.1 produces the shortest string that parses
back to the *same* IEEE-754 double; both ends of this protocol are Python,
so every estimate, variance, and confidence level survives the wire
bit-identically.  :func:`decode_result` therefore reconstructs a
:class:`~repro.engine.result.QueryResult` whose values, error bars, and
intervals compare equal to what ``db.query()`` returned in the server
process.

**Envelope.**  Every response body is one JSON object::

    {"ok": true,  "protocol": 1, "meta": {...}, "result": {...}}
    {"ok": false, "protocol": 1, "meta": {...},
     "error": {"code": "...", "message": "...", "retry_after_s": 1.5}}

``meta`` always carries the server's ``request_id`` (echoing the client's
``X-Request-Id`` header when one was sent — the same id lands in the trace
root, so a wire request can be correlated with its server-side span tree);
query answers add the serving ``generation`` and ``backend``.

**Error taxonomy.**  Structured *application* errors are distinguished from
transport failures (connection refused/reset, timeouts at the socket layer):
the client retries transport failures and explicitly retryable codes only.

=================  ====  ==========================================  =========
code               HTTP  raised client-side as                       retryable
=================  ====  ==========================================  =========
``bad-sql``        400   :class:`~repro.common.errors.ParseError`    no
``bad-request``    400   :class:`WireError`                          no
``not-found``      404   :class:`WireError`                          no
``cancelled``      409   ``QueryRejectedError(reason="cancelled")``  no
``shed-quota``     429   ``QueryRejectedError(reason="shed-quota")`` yes (after
                                                                     Retry-After)
``query-error``    500   :class:`~repro.common.errors.ExecutionError`  no
``internal``       500   :class:`WireError`                          no
``shed-deadline``  503   ``QueryRejectedError``                      no (a
                                                                     re-run faces
                                                                     the same
                                                                     deadline)
``shed-queue-full``503   ``QueryRejectedError``                      yes
``closed``         503   ``QueryRejectedError(reason="closed")``     no
``timeout``        504   :class:`TimeoutError`                       no
=================  ====  ==========================================  =========
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.common.errors import (
    BlinkDBError,
    ExecutionError,
    ParseError,
    PlanningError,
    QueryRejectedError,
    SampleNotFoundError,
    SchemaError,
)
from repro.engine.result import AggregateValue, GroupResult, QueryResult
from repro.estimation.estimators import Estimate
from repro.runtime.partitioned import ProgressiveSnapshot

#: Bumped on incompatible wire changes; both ends check it.
PROTOCOL_VERSION = 1

# -- error codes -------------------------------------------------------------------
ERR_BAD_SQL = "bad-sql"
ERR_BAD_REQUEST = "bad-request"
ERR_NOT_FOUND = "not-found"
ERR_CANCELLED = "cancelled"
ERR_SHED_QUOTA = "shed-quota"
ERR_SHED_DEADLINE = "shed-deadline"
ERR_SHED_QUEUE_FULL = "shed-queue-full"
ERR_CLOSED = "closed"
ERR_TIMEOUT = "timeout"
ERR_QUERY = "query-error"
ERR_INTERNAL = "internal"

#: HTTP status for each structured error code.
HTTP_STATUS: dict[str, int] = {
    ERR_BAD_SQL: 400,
    ERR_BAD_REQUEST: 400,
    ERR_NOT_FOUND: 404,
    ERR_CANCELLED: 409,
    ERR_SHED_QUOTA: 429,
    ERR_QUERY: 500,
    ERR_INTERNAL: 500,
    ERR_SHED_DEADLINE: 503,
    ERR_SHED_QUEUE_FULL: 503,
    ERR_CLOSED: 503,
    ERR_TIMEOUT: 504,
}

#: Codes a client may re-submit verbatim and reasonably expect to succeed.
RETRYABLE_CODES = frozenset({ERR_SHED_QUEUE_FULL, ERR_SHED_QUOTA})


class WireError(BlinkDBError):
    """A structured protocol error with no more specific library exception."""

    def __init__(self, message: str, code: str = ERR_INTERNAL) -> None:
        super().__init__(message)
        self.code = code


def error_code_for(error: BaseException) -> tuple[str, float | None]:
    """Map a server-side exception to ``(code, retry_after_seconds)``."""
    if isinstance(error, WireError):
        # Raised with an explicit code (bad request, unknown ticket/route):
        # the code travels as-is rather than re-deriving from the type.
        return error.code, None
    if isinstance(error, QueryRejectedError):
        reason = error.reason
        if reason in (ERR_SHED_QUOTA, ERR_SHED_DEADLINE, ERR_SHED_QUEUE_FULL,
                      ERR_CANCELLED, ERR_CLOSED):
            return reason, error.retry_after_seconds
        return ERR_SHED_DEADLINE, error.retry_after_seconds
    if isinstance(error, ParseError):
        return ERR_BAD_SQL, None
    if isinstance(error, (SchemaError, PlanningError, SampleNotFoundError)):
        # The statement parsed but cannot be served against this catalog;
        # from the wire's perspective it is the client's query that is bad.
        return ERR_BAD_SQL, None
    if isinstance(error, TimeoutError):
        return ERR_TIMEOUT, None
    if isinstance(error, BlinkDBError):
        return ERR_QUERY, None
    return ERR_INTERNAL, None


def exception_for(code: str, message: str, retry_after: float | None = None) -> BaseException:
    """Map a wire error code back to the library exception the client raises."""
    if code in (ERR_SHED_DEADLINE, ERR_SHED_QUEUE_FULL, ERR_SHED_QUOTA,
                ERR_CANCELLED, ERR_CLOSED):
        return QueryRejectedError(message, reason=code, retry_after_seconds=retry_after)
    if code == ERR_BAD_SQL:
        return ParseError(message)
    if code == ERR_TIMEOUT:
        return TimeoutError(message)
    if code == ERR_QUERY:
        return ExecutionError(message)
    return WireError(message, code=code)


# -- scalar plumbing ---------------------------------------------------------------
def _plain_scalar(value: Any) -> Any:
    """Collapse numpy scalars to their Python equivalents for JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return item()
    return str(value)


# -- results -----------------------------------------------------------------------
def encode_result(result: QueryResult) -> dict[str, Any]:
    """Encode a :class:`QueryResult` (estimates, error bars, metadata stamp)."""
    groups = []
    for group in result.groups:
        aggregates = {}
        for name, agg in group.aggregates.items():
            estimate = agg.estimate
            aggregates[name] = {
                "name": agg.name,
                "confidence": agg.confidence,
                "estimate": {
                    "value": estimate.value,
                    "variance": estimate.variance,
                    "sample_rows": estimate.sample_rows,
                    "rows_read": estimate.rows_read,
                    "population_rows": estimate.population_rows,
                    "exact": estimate.exact,
                },
            }
        groups.append(
            {"key": [_plain_scalar(part) for part in group.key], "aggregates": aggregates}
        )
    metadata: dict[str, Any] = {}
    generation = result.metadata.get("generation")
    if generation is not None:
        metadata["generation"] = int(generation)
    backend_info = result.metadata.get("backend_info")
    if isinstance(backend_info, Mapping) and "backend" in backend_info:
        metadata["backend"] = str(backend_info["backend"])
    else:
        metadata["backend"] = "threads"
    degraded = result.metadata.get("degraded")
    if isinstance(degraded, Mapping):
        metadata["degraded"] = {str(k): _plain_scalar(v) for k, v in degraded.items()}
    return {
        "group_by": list(result.group_by),
        "groups": groups,
        "rows_read": int(result.rows_read),
        "sample_name": result.sample_name,
        "simulated_latency_seconds": result.simulated_latency_seconds,
        "metadata": metadata,
    }


def result_payload_text(result: QueryResult, keep: bool = False) -> str:
    """The JSON text of ``{"kind": "result", "result": encode_result(result)}``.

    With ``keep`` the text is stored on the result
    (:attr:`~repro.engine.result.QueryResult.wire_text`), and every later
    call for that object returns it without encoding again.  The server
    keeps it only for result-cache hits: the cache hands the same object to
    every repeat, while a fresh answer is served once and then dropped.
    """
    text = result.wire_text
    if text is None:
        text = json.dumps({"kind": "result", "result": encode_result(result)}, default=str)
        if keep:
            # The one field a frozen result lets be filled after the fact.
            object.__setattr__(result, "wire_text", text)
    return text


def decode_result(payload: Mapping[str, Any]) -> QueryResult:
    """Rebuild the :class:`QueryResult` a server encoded (bit-identical values)."""
    groups = []
    for encoded_group in payload["groups"]:
        aggregates = {}
        for name, encoded_agg in encoded_group["aggregates"].items():
            e = encoded_agg["estimate"]
            estimate = Estimate(
                value=e["value"],
                variance=e["variance"],
                sample_rows=e["sample_rows"],
                rows_read=e["rows_read"],
                population_rows=e["population_rows"],
                exact=e["exact"],
            )
            aggregates[name] = AggregateValue(
                name=encoded_agg["name"],
                estimate=estimate,
                confidence=encoded_agg["confidence"],
            )
        groups.append(GroupResult(key=tuple(encoded_group["key"]), aggregates=aggregates))
    metadata = dict(payload.get("metadata") or {})
    return QueryResult(
        group_by=tuple(payload["group_by"]),
        groups=tuple(groups),
        rows_read=payload["rows_read"],
        sample_name=payload.get("sample_name"),
        simulated_latency_seconds=payload.get("simulated_latency_seconds"),
        metadata=metadata,
    )


# -- progressive snapshots ---------------------------------------------------------
def encode_snapshot(snapshot: ProgressiveSnapshot) -> dict[str, Any]:
    return {
        "partitions_merged": snapshot.partitions_merged,
        "num_partitions": snapshot.num_partitions,
        "coverage_fraction": snapshot.coverage_fraction,
        "simulated_seconds": snapshot.simulated_seconds,
        "result": encode_result(snapshot.result),
    }


def decode_snapshot(payload: Mapping[str, Any]) -> ProgressiveSnapshot:
    return ProgressiveSnapshot(
        partitions_merged=payload["partitions_merged"],
        num_partitions=payload["num_partitions"],
        coverage_fraction=payload["coverage_fraction"],
        simulated_seconds=payload["simulated_seconds"],
        result=decode_result(payload["result"]),
    )


# -- envelopes ---------------------------------------------------------------------
def ok_envelope(result: Any, meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
    return {
        "ok": True,
        "protocol": PROTOCOL_VERSION,
        "meta": dict(meta or {}),
        "result": result,
    }


def ok_envelope_text(result_text: str, meta: Mapping[str, Any] | None = None) -> str:
    """``json.dumps(ok_envelope(result, meta))``, byte for byte, where
    ``result_text`` is ``json.dumps(result)`` encoded beforehand.

    Only ``meta`` (request id, ticket, tenant, generation, backend) is
    encoded here, so a kept payload is spliced in without re-encoding it.
    """
    meta_text = json.dumps(dict(meta or {}), default=str)
    return (
        f'{{"ok": true, "protocol": {PROTOCOL_VERSION}, '
        f'"meta": {meta_text}, "result": {result_text}}}'
    )


def error_envelope(
    code: str,
    message: str,
    retry_after: float | None = None,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after_s"] = retry_after
    return {
        "ok": False,
        "protocol": PROTOCOL_VERSION,
        "meta": dict(meta or {}),
        "error": error,
    }
