"""Which public callables the traced run wraps, and the per-layer metrics.

Every ``_ms`` metric is self time per query (per append for the ingest
path), so the layers add up toward the client's time.  A layer that does
not run on a workload reports 0.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from tracer import Span, Target, on_pool_thread, self_times


def _response_bytes(args: tuple, result: Any) -> dict[str, float]:
    return {"net.response_bytes": float(len(json.dumps(result).encode("utf-8")))}


def _queue_wait(args: tuple, result: Any) -> dict[str, float]:
    wait = getattr(args[0].metrics, "queue_wait_seconds", None)
    return {"service.queue_wait_s": float(wait or 0.0)}


#: Wrapped in the serving process while the traced window runs.
SERVER_TARGETS = [
    Target("net.encode", "repro.net.protocol", None, "encode_result", on_result=_response_bytes),
    Target("sql.parse", "repro.sql.parser", None, "parse_statement"),
    Target("service.submit", "repro.service.server", "QueryService", "submit",
           request_kwarg="request_id"),
    Target("service.wait", "repro.service.server", "QueryTicket", "result",
           on_result=_queue_wait),
    Target("service.cache_get", "repro.service.cache", "ResultCache", "get", span=False,
           hits=True),
    Target("planner.plan", "repro.planner.planner", "QueryPlanner", "plan"),
    Target("planner.select", "repro.runtime.selection", "SampleFamilySelector", "select"),
    Target("planner.probe", "repro.runtime.selection", "SampleFamilySelector", "probe",
           span=False),
    Target("planner.size", "repro.runtime.sizing", "SampleSizer", "build_profile"),
    Target("runtime.execute", "repro.runtime.execution", "BlinkDBRuntime", "execute"),
    Target("runtime.pipeline", "repro.runtime.partitioned", "PartitionPipeline", "run"),
    Target("engine.execute", "repro.engine.executor", "QueryExecutor", "execute"),
    Target("engine.count", "repro.engine.executor", "QueryExecutor", "count_matching"),
    Target("estimation.finalize", "repro.engine.executor", "QueryExecutor", "finalize"),
    Target("estimation.z", "repro.estimation.confidence", None, "z_score"),
    Target("ingest.append", "repro.ingest.ingestion", "TableIngest", "append"),
    Target("cluster.resize", "repro.cluster.simulator", "ClusterSimulator", "resize_dataset"),
    Target("storage.append_batch", "repro.storage.table", "Table", "append_batch"),
]

#: Wrapped in the load generator of the wire workloads.
CLIENT_TARGETS = [Target("net.decode", "repro.net.protocol", None, "decode_result")]

#: Wrapped during the traced run's single set-up.
SETUP_TARGETS = [
    Target("storage.encode", "repro.storage.encodings", None, "encode_table"),
    Target("optimizer.milp", "repro.optimizer.planner", "SampleSelectionPlanner", "plan"),
    Target("sampling.build", "repro.sampling.builder", "SampleBuilder", "build_from_column_sets"),
]

#: The wire handler's calls for one request, on the connection's thread.
HANDLER_SPANS = ("service.submit", "service.wait", "net.encode")

PER_QUERY_MS = {
    "net.encode_ms": "net.encode",
    "sql.parse_ms": "sql.parse",
    "service.submit_ms": "service.submit",
    "planner.plan_ms": "planner.plan",
    "planner.select_ms": "planner.select",
    "planner.size_ms": "planner.size",
    "runtime.execute_ms": "runtime.execute",
    "runtime.pipeline_ms": "runtime.pipeline",
    "engine.execute_ms": "engine.execute",
    "engine.count_ms": "engine.count",
    "estimation.z_ms": "estimation.z",
    "estimation.finalize_ms": "estimation.finalize",
}
PER_APPEND_MS = {
    "ingest.append_ms": "ingest.append",
    "cluster.resize_ms": "cluster.resize",
    "storage.append_batch_ms": "storage.append_batch",
}

#: Every per-layer metric name with its unit, in report order.
PER_LAYER_UNITS = {
    "net.encode_ms": "ms",
    "net.decode_ms": "ms",
    "net.response_bytes": "bytes",
    "net.overhead_ms": "ms",
    "net.retries": "count",
    "sql.parse_ms": "ms",
    "service.submit_ms": "ms",
    "service.wait_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "planner.plan_ms": "ms",
    "planner.select_ms": "ms",
    "planner.probes_per_query": "count",
    "planner.probe_memo_hit_ratio": "ratio",
    "planner.size_ms": "ms",
    "runtime.execute_ms": "ms",
    "runtime.pipeline_ms": "ms",
    "engine.execute_ms": "ms",
    "engine.calls_per_query": "count",
    "engine.count_ms": "ms",
    "engine.rows_scanned_per_query": "count",
    "engine.block_skip_ratio": "ratio",
    "estimation.z_ms": "ms",
    "estimation.z_calls_per_query": "count",
    "estimation.finalize_ms": "ms",
    "ingest.append_ms": "ms",
    "ingest.escalations": "count",
    "cluster.resize_ms": "ms",
    "storage.append_batch_ms": "ms",
    "storage.encode_s": "s",
    "optimizer.milp_s": "s",
    "sampling.build_s": "s",
    "bench.unattributed_fraction": "ratio",
    "bench.trace_overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def delta(after: Mapping[str, float], before: Mapping[str, float]) -> dict[str, float]:
    return {key: float(after.get(key, 0)) - float(before.get(key, 0)) for key in after}


def serving_summary(
    spans: Sequence[Span],
    counts: Mapping[str, float],
    counters: Mapping[str, float],
    append_ids: set[str],
) -> dict[str, Any]:
    """Aggregate the serving side's spans into plain numbers (JSON-safe).

    ``counters`` holds the program's own counter deltas over the window.
    Spans of appends (request ids in ``append_ids``) count toward the ingest
    metrics only.
    """
    query_spans = [s for s in spans if s.request_id not in append_ids]
    per_request: dict[str, float] = {}
    worker_roots = 0.0
    attributed = 0.0
    for span in query_spans:
        if on_pool_thread(span):
            continue  # covered by the enclosing pipeline span of its query
        attributed += span.self_s
        if span.name in HANDLER_SPANS and span.request_id is not None:
            per_request[span.request_id] = per_request.get(span.request_id, 0.0) + span.duration
        elif span.parent is None and span.name not in HANDLER_SPANS:
            worker_roots += span.duration
    return {
        "self_s": self_times(query_spans),
        "append_self_s": self_times([s for s in spans if s.request_id in append_ids]),
        "per_request_s": per_request,
        "worker_roots_s": worker_roots,
        "attributed_s": attributed,
        "counts": dict(counts),
        "counters": dict(counters),
    }


def per_layer_metrics(
    summary: Mapping[str, Any],
    queries: int,
    appends: int,
    client: Mapping[str, Any],
    setup_self_s: Mapping[str, float],
) -> dict[str, float]:
    """The per-layer metrics of one traced window.

    ``client`` carries the load side: ``times`` (request id → seconds for
    each completed query), ``decode_s`` (client decode self seconds),
    ``retries``, ``wire`` (whether requests crossed the wire), and
    ``untraced_p50_s``/``traced_p50_s``.
    """
    self_s = summary["self_s"]
    append_self = summary["append_self_s"]
    counts = summary["counts"]
    counters = summary["counters"]
    wire = bool(client["wire"])
    times: Mapping[str, float] = client["times"]

    def per_q(seconds: float) -> float:
        return _ratio(seconds * 1e3, queries)

    metrics = {key: per_q(self_s.get(name, 0.0)) for key, name in PER_QUERY_MS.items()}
    for key, name in PER_APPEND_MS.items():
        metrics[key] = _ratio(append_self.get(name, 0.0) * 1e3, appends)

    # The handler's wait covers the worker's execution on another thread;
    # the worker-side spans are named layers of their own, so the wait keeps
    # only the rest (queueing and hand-off).
    wait_s = max(0.0, self_s.get("service.wait", 0.0) - summary["worker_roots_s"]) if wire else 0.0
    metrics["service.wait_ms"] = per_q(wait_s)
    metrics["service.queue_wait_ms"] = per_q(counts.get("service.queue_wait_s", 0.0))
    metrics["service.cache_hit_ratio"] = _ratio(
        counts.get("service.cache_get.hits", 0.0), counts.get("service.cache_get.calls", 0.0)
    )
    metrics["net.response_bytes"] = _ratio(
        counts.get("net.response_bytes", 0.0), counts.get("net.encode.calls", 0.0)
    )
    metrics["net.decode_ms"] = per_q(client.get("decode_s", 0.0))
    metrics["net.retries"] = float(client.get("retries", 0))

    per_request = summary["per_request_s"]
    matched = [rid for rid in times if rid in per_request]
    overhead = sum(times[rid] - per_request[rid] for rid in matched)
    if wire:
        # Client time not spent in the server's handler calls or in decoding:
        # HTTP framing, JSON bodies, sockets and the handler's own glue.
        overhead -= client.get("decode_s", 0.0) * _ratio(len(matched), len(times))
        metrics["net.overhead_ms"] = _ratio(overhead * 1e3, len(matched))
    else:
        metrics["net.overhead_ms"] = 0.0

    metrics["planner.probes_per_query"] = _ratio(counts.get("planner.probe.calls", 0.0), queries)
    probe_hits = counters.get("probe_cache_hits", 0.0)
    metrics["planner.probe_memo_hit_ratio"] = _ratio(
        probe_hits, probe_hits + counters.get("probe_cache_misses", 0.0)
    )
    metrics["engine.calls_per_query"] = _ratio(counts.get("engine.execute.calls", 0.0), queries)
    metrics["engine.rows_scanned_per_query"] = _ratio(
        counters.get("rows_total", 0.0) - counters.get("rows_skipped", 0.0), queries
    )
    metrics["engine.block_skip_ratio"] = _ratio(
        counters.get("blocks_skipped", 0.0), counters.get("blocks_total", 0.0)
    )
    metrics["estimation.z_calls_per_query"] = _ratio(counts.get("estimation.z.calls", 0.0), queries)
    metrics["ingest.escalations"] = counters.get("escalations", 0.0)

    metrics["storage.encode_s"] = setup_self_s.get("storage.encode", 0.0)
    metrics["optimizer.milp_s"] = setup_self_s.get("optimizer.milp", 0.0)
    metrics["sampling.build_s"] = setup_self_s.get("sampling.build", 0.0)

    # Attributed: time inside wrapped calls on the blocking path.  The wire
    # overhead is a residual, not a measured span, so it stays unattributed.
    client_total = sum(times.values())
    attributed = summary["attributed_s"]
    if wire:
        attributed += client.get("decode_s", 0.0) - min(
            self_s.get("service.wait", 0.0), summary["worker_roots_s"]
        )
    metrics["bench.unattributed_fraction"] = _ratio(client_total - attributed, client_total)
    metrics["bench.trace_overhead"] = _ratio(client["traced_p50_s"], client["untraced_p50_s"]) - 1.0
    return {name: metrics[name] for name in PER_LAYER_UNITS}
