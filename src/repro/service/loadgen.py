"""The closed-loop load driver, for either transport.

:func:`run_closed_loop` plays N analysts, each issuing its next statement
only after the previous answer arrives, so the offered load adapts to what
the service can sustain.  The transport belongs to the caller:
``connect(i)`` returns client ``i``'s blocking query callable, called as
``ask(sql, timeout=timeout)``:

* in process — ``lambda i: service.connect(name=f"analyst-{i}").execute``;
* over the wire — ``lambda i: stack.enter_context(Client(host, port)).query``
  (one :class:`repro.client.Client` per client thread; the caller closes it).

Every statement becomes one :class:`LoadRow`, failures included: latency is
measured at the client, a :class:`~repro.common.errors.QueryRejectedError`
counts as ``shed`` and any other exception as ``failed``.  The driver joins
every client thread before it reads a row; each call is bounded by
``timeout``, so the join is too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.clock import monotonic
from repro.common.errors import QueryRejectedError
from repro.common.rng import make_rng
from repro.engine.result import QueryResult
from repro.obs import percentile_of
from repro.sql.templates import QueryTemplate
from repro.storage.table import Table
from repro.workloads.tracegen import generate_trace


@dataclass(frozen=True)
class LoadRow:
    """One statement as its client saw it."""

    client: int
    sql: str
    outcome: str  # "completed" | "shed" | "failed"
    latency_seconds: float
    result: QueryResult | None = None
    error: BaseException | None = None


@dataclass(frozen=True)
class LoadReport:
    """Every row of one closed-loop run, plus the run's wall time."""

    wall_seconds: float
    rows: tuple[LoadRow, ...]

    def count(self, outcome: str) -> int:
        return sum(1 for row in self.rows if row.outcome == outcome)

    @property
    def submitted(self) -> int:
        return len(self.rows)

    @property
    def completed(self) -> int:
        return self.count("completed")

    @property
    def shed(self) -> int:
        return self.count("shed")

    @property
    def failed(self) -> int:
        return self.count("failed")

    @property
    def throughput_qps(self) -> float:
        """Completed statements per wall-clock second."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_percentile(self, fraction: float) -> float:
        """Client-measured latency quantile over the completed statements."""
        return percentile_of(
            (row.latency_seconds for row in self.rows if row.outcome == "completed"),
            fraction,
        )

    def describe(self) -> dict[str, object]:
        return {
            "wall_s": round(self.wall_seconds, 4),
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "throughput_qps": round(self.throughput_qps, 2),
            "p50_latency_s": round(self.latency_percentile(0.50), 4),
            "p95_latency_s": round(self.latency_percentile(0.95), 4),
        }


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
    connect: Callable[[int], Callable[..., QueryResult]],
    queries: Sequence[str],
    num_clients: int = 4,
    timeout: float | None = 120.0,
) -> LoadReport:
    """Drive ``num_clients`` synchronous analysts through ``connect``.

    Statements are dealt round-robin to the clients; each client issues its
    share in order, waiting for every answer.  Rows come back client by
    client, each client's in the order it issued them.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    shares = [list(queries[i::num_clients]) for i in range(num_clients)]
    asks = [connect(i) for i in range(num_clients)]
    rows: list[list[LoadRow]] = [[] for _ in range(num_clients)]

    def client(index: int) -> None:
        for sql in shares[index]:
            started = monotonic()
            try:
                result = asks[index](sql, timeout=timeout)
            except QueryRejectedError as error:
                outcome, result, failure = "shed", None, error
            except Exception as error:  # noqa: BLE001 - recorded as a row
                outcome, result, failure = "failed", None, error
            else:
                outcome, failure = "completed", None
            rows[index].append(
                LoadRow(index, sql, outcome, monotonic() - started, result, failure)
            )

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-client-{i}", daemon=True)
        for i in range(num_clients)
    ]
    started = monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return LoadReport(
        wall_seconds=monotonic() - started,
        rows=tuple(row for client_rows in rows for row in client_rows),
    )
