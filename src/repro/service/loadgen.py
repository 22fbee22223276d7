"""Open- and closed-loop workload drivers for the query service.

Two standard load-generation disciplines over the Conviva/TPC-H template
generators (:mod:`repro.workloads.tracegen`):

* **closed loop** — N simulated analysts, each issuing its next query only
  after the previous answer arrives.  Throughput is limited by service
  capacity; this is the discipline for "queries/sec vs. worker count"
  benchmarks.
* **open loop** — queries arrive on their own (Poisson) clock regardless of
  completions, as web traffic does.  Arrival rates above capacity build a
  backlog and exercise the scheduler's deadline shedding.

Both return a :class:`LoadReport` aggregated from the tickets' per-query
metrics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.common.clock import monotonic
from repro.common.rng import make_rng
from repro.obs import percentile_of
from repro.service.server import QueryService, QueryTicket
from repro.service.session import SessionDefaults
from repro.sql.templates import QueryTemplate
from repro.storage.table import Table
from repro.workloads.tracegen import generate_trace


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    discipline: str
    wall_seconds: float
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    cache_hits: int = 0
    total_latencies: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per wall-clock second."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_percentile(self, fraction: float) -> float:
        return percentile_of(self.total_latencies, fraction)

    @property
    def mean_queue_wait_seconds(self) -> float:
        return sum(self.queue_waits) / len(self.queue_waits) if self.queue_waits else 0.0

    def describe(self) -> dict[str, object]:
        return {
            "discipline": self.discipline,
            "wall_s": round(self.wall_seconds, 4),
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "throughput_qps": round(self.throughput_qps, 2),
            "p50_latency_s": round(self.latency_percentile(0.50), 4),
            "p95_latency_s": round(self.latency_percentile(0.95), 4),
            "mean_queue_wait_s": round(self.mean_queue_wait_seconds, 4),
        }


def _absorb_ticket(report: LoadReport, ticket: QueryTicket) -> None:
    status = ticket.status
    if status == "completed":
        report.completed += 1
    elif status == "shed":
        report.shed += 1
    else:
        report.failed += 1
    if ticket.metrics.cache_hit:
        report.cache_hits += 1
    if ticket.metrics.total_seconds is not None and status == "completed":
        report.total_latencies.append(ticket.metrics.total_seconds)
    if ticket.metrics.queue_wait_seconds is not None:
        report.queue_waits.append(ticket.metrics.queue_wait_seconds)


def mixed_bound_trace(
    templates: Sequence[QueryTemplate],
    table: Table,
    num_queries: int,
    seed: int = 0,
    error_percents: Sequence[float] = (5.0, 10.0),
    time_bounds: Sequence[float] = (2.0, 5.0, 10.0),
    unbounded_fraction: float = 0.2,
) -> list[str]:
    """A trace mixing error-bounded, time-bounded, and unbounded queries."""
    rng = make_rng(seed)
    base = generate_trace(
        templates,
        table,
        num_queries=num_queries,
        seed=seed,
        measure_columns=tuple(
            name for name in ("session_time", "jointimems", "price") if name in table.schema
        ),
    )
    queries: list[str] = []
    for sql in base:
        draw = rng.random()
        if draw < unbounded_fraction:
            queries.append(sql)
        elif draw < unbounded_fraction + (1.0 - unbounded_fraction) / 2.0:
            percent = error_percents[int(rng.integers(0, len(error_percents)))]
            queries.append(f"{sql} ERROR WITHIN {percent:g}% AT CONFIDENCE 95%")
        else:
            bound = time_bounds[int(rng.integers(0, len(time_bounds)))]
            queries.append(f"{sql} WITHIN {bound:g} SECONDS")
    return queries


def run_closed_loop(
    service: QueryService,
    queries: Sequence[str],
    num_clients: int = 4,
    defaults: SessionDefaults | None = None,
    timeout: float | None = 120.0,
) -> LoadReport:
    """Drive the service with ``num_clients`` synchronous analysts.

    Queries are dealt round-robin to the clients; each client issues its
    share sequentially, waiting for every answer.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    shares: list[list[str]] = [list(queries[i::num_clients]) for i in range(num_clients)]
    tickets: list[list[QueryTicket]] = [[] for _ in range(num_clients)]

    def client(index: int) -> None:
        session = service.connect(name=f"closed-loop-{index}", defaults=defaults)
        for sql in shares[index]:
            ticket = session.submit(sql)
            tickets[index].append(ticket)
            ticket.wait(timeout)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-client-{i}", daemon=True)
        for i in range(num_clients)
    ]
    started = monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    wall = monotonic() - started

    report = LoadReport(discipline="closed-loop", wall_seconds=wall)
    for client_tickets in tickets:
        for ticket in client_tickets:
            report.submitted += 1
            _absorb_ticket(report, ticket)
    return report


def run_open_loop(
    service: QueryService,
    queries: Sequence[str],
    arrival_rate_qps: float,
    seed: int = 0,
    defaults: SessionDefaults | None = None,
    timeout: float | None = 120.0,
) -> LoadReport:
    """Submit queries on a Poisson arrival clock, then wait for all tickets.

    The arrival process never waits for completions, so rates above the
    service capacity grow the queue and trigger deadline shedding.
    """
    if arrival_rate_qps <= 0:
        raise ValueError("arrival_rate_qps must be positive")
    rng = make_rng(seed)
    session = service.connect(name="open-loop", defaults=defaults)
    tickets: list[QueryTicket] = []
    started = monotonic()
    for sql in queries:
        tickets.append(session.submit(sql))
        time.sleep(float(rng.exponential(1.0 / arrival_rate_qps)))
    for ticket in tickets:
        ticket.wait(timeout)
    wall = monotonic() - started

    report = LoadReport(discipline="open-loop", wall_seconds=wall)
    report.submitted = len(tickets)
    for ticket in tickets:
        _absorb_ticket(report, ticket)
    return report
