"""Closed-loop multi-process load generation against a :class:`NetworkServer`.

The harness spawns one OS process per (tenant, connection) pair — real
parallelism, real sockets, no GIL sharing with the server's accept loop —
and drives a *closed loop*: each connection submits, waits for the answer,
and immediately submits again until the deadline.  Offered load therefore
adapts to service capacity, which is the right model for fairness
measurements (an open loop would conflate shed behavior with queueing
explosion).

Worker functions live at module level so ``multiprocessing``'s ``spawn``
start method can pickle them by qualified name.

Fairness is summarised with Jain's index over per-tenant completed-query
counts::

    J = (sum x_i)^2 / (n * sum x_i^2)      in (0, 1], 1.0 = perfectly fair

Used by ``benchmarks/test_network_throughput.py`` and importable for ad-hoc
load tests.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field

from repro.common.errors import QueryRejectedError
from repro.obs import percentile_of


def jain_index(values: list[float]) -> float:
    """Jain's fairness index of a list of non-negative allocations."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass
class WorkerStats:
    """One connection-process's counters, merged into the final report."""

    tenant: str
    completed: int = 0
    shed: int = 0
    failed: int = 0
    transport_errors: int = 0
    retries: int = 0
    latencies_s: list[float] = field(default_factory=list)


@dataclass
class LoadReport:
    """The harness's verdict on one run."""

    duration_seconds: float
    num_workers: int
    completed: int
    shed: int
    failed: int
    transport_errors: int
    retries: int
    qps: float
    p50_seconds: float
    p95_seconds: float
    shed_rate: float
    retry_rate: float
    jain_fairness: float
    per_tenant_completed: dict[str, int]

    def describe(self) -> dict[str, object]:
        return {
            "duration_s": round(self.duration_seconds, 3),
            "workers": self.num_workers,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "transport_errors": self.transport_errors,
            "retries": self.retries,
            "qps": round(self.qps, 1),
            "p50_ms": round(1e3 * self.p50_seconds, 3),
            "p95_ms": round(1e3 * self.p95_seconds, 3),
            "shed_rate": round(self.shed_rate, 4),
            "retry_rate": round(self.retry_rate, 4),
            "jain_fairness": round(self.jain_fairness, 4),
            "per_tenant_completed": dict(self.per_tenant_completed),
        }


def _load_worker(
    host: str,
    port: int,
    tenant: str,
    sql_pool: list[str],
    duration_seconds: float,
    request_timeout_seconds: float,
    start_barrier,
    result_queue,
) -> None:
    """One closed-loop connection: submit, wait, repeat until the deadline.

    The measured window starts at the barrier, *after* this process has
    imported the library and opened its connection — spawn and import time
    (seconds on a cold interpreter) must not eat into the load window.
    """
    from repro.net.client import Client, TransportError

    stats = WorkerStats(tenant=tenant)
    try:
        with Client(
            host,
            port,
            tenant=tenant,
            request_timeout_seconds=request_timeout_seconds,
        ) as client:
            client.healthz()  # connection + first-request overhead up front
            start_barrier.wait()
            deadline_wall = time.monotonic() + duration_seconds
            index = 0
            while time.monotonic() < deadline_wall:
                sql = sql_pool[index % len(sql_pool)]
                index += 1
                started = time.monotonic()
                try:
                    client.query(sql, timeout=request_timeout_seconds)
                except QueryRejectedError:
                    stats.shed += 1
                    continue
                except TransportError:
                    stats.transport_errors += 1
                    continue
                except Exception:  # noqa: BLE001 - counted, not propagated
                    stats.failed += 1
                    continue
                stats.completed += 1
                stats.latencies_s.append(time.monotonic() - started)
            stats.retries = client.stats["retries"]
            stats.transport_errors += client.stats["transport_errors"]
    finally:
        result_queue.put(stats)


def run_load(
    host: str,
    port: int,
    tenants: dict[str, int],
    sql_pool: list[str],
    duration_seconds: float = 5.0,
    request_timeout_seconds: float = 10.0,
    join_grace_seconds: float = 30.0,
) -> LoadReport:
    """Drive closed-loop load from spawned processes; block for the report.

    ``tenants`` maps tenant name to its number of concurrent connections
    (one process each).  Every process runs until the shared wall-clock
    deadline, then reports its counters over a queue.
    """
    if not tenants or not sql_pool:
        raise ValueError("run_load needs at least one tenant and one query")
    ctx = multiprocessing.get_context("spawn")
    result_queue = ctx.Queue()
    num_workers = sum(max(1, connections) for connections in tenants.values())
    start_barrier = ctx.Barrier(num_workers)
    processes = []
    for tenant, connections in tenants.items():
        for _ in range(max(1, connections)):
            process = ctx.Process(
                target=_load_worker,
                args=(
                    host,
                    port,
                    tenant,
                    sql_pool,
                    duration_seconds,
                    request_timeout_seconds,
                    start_barrier,
                    result_queue,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)

    collected: list[WorkerStats] = []
    # Spawn + import time happens before the barrier releases, so the grace
    # window covers both the startup and the measured duration.
    collect_deadline = time.monotonic() + duration_seconds + join_grace_seconds
    while len(collected) < len(processes) and time.monotonic() < collect_deadline:
        try:
            collected.append(result_queue.get(timeout=1.0))
        except Exception:  # noqa: BLE001 - queue.Empty; keep waiting
            continue
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.terminate()

    latencies: list[float] = []
    per_tenant: dict[str, int] = {tenant: 0 for tenant in tenants}
    completed = shed = failed = transport = retries = 0
    for stats in collected:
        completed += stats.completed
        shed += stats.shed
        failed += stats.failed
        transport += stats.transport_errors
        retries += stats.retries
        latencies.extend(stats.latencies_s)
        per_tenant[stats.tenant] = per_tenant.get(stats.tenant, 0) + stats.completed

    attempts = completed + shed + failed
    # Fairness is measured per *connection-normalised* tenant throughput, so
    # a tenant given more connections is expected (and allowed) to complete
    # proportionally more work.
    normalised = [
        per_tenant[tenant] / max(1, connections)
        for tenant, connections in tenants.items()
    ]
    return LoadReport(
        duration_seconds=duration_seconds,
        num_workers=len(processes),
        completed=completed,
        shed=shed,
        failed=failed,
        transport_errors=transport,
        retries=retries,
        qps=completed / duration_seconds if duration_seconds > 0 else 0.0,
        p50_seconds=percentile_of(latencies, 0.50),
        p95_seconds=percentile_of(latencies, 0.95),
        shed_rate=shed / attempts if attempts else 0.0,
        retry_rate=retries / max(1, attempts),
        jain_fairness=jain_index(normalised),
        per_tenant_completed=per_tenant,
    )
