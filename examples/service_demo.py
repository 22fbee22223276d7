"""Service demo: N concurrent analysts with mixed error/time bounds.

Starts a ``QueryService`` over a Conviva-like table, opens several client
sessions with different per-session defaults, drives them concurrently, and
prints the per-session histories and the service-level metrics (queue waits,
cache hits, shed queries).

Run with::

    python examples/service_demo.py
"""

from __future__ import annotations

import threading

from repro import BlinkDB, BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.service import SessionDefaults, mixed_bound_trace, run_closed_loop
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table


def main() -> None:
    # 1. Build the database as usual: load, register workload, build samples.
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=200, min_cap=10, uniform_sample_fraction=0.1),
        cluster=ClusterConfig(num_nodes=20),
    )
    db = BlinkDB(config)
    sessions = generate_sessions_table(num_rows=50_000, seed=7, num_cities=40, num_countries=15)
    db.load_table(sessions, simulated_rows=50_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)

    # 2. Start the query service: 4 workers over one shared runtime, result
    #    cache on.  Rebuilding samples later would invalidate the cache
    #    automatically.
    service = db.serve(num_workers=4)

    # 3. Three analysts with different per-session defaults.  Queries that
    #    carry no bound of their own inherit the session's default.
    analysts = [
        service.connect(name="dashboard", defaults=SessionDefaults(time_bound_seconds=5.0)),
        service.connect(name="explorer", defaults=SessionDefaults(error_percent=10.0)),
        service.connect(name="batch", defaults=SessionDefaults()),
    ]
    sql = "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0003' GROUP BY os"

    def drive(session, repeats: int) -> None:
        for _ in range(repeats):
            ticket = session.submit(sql)
            ticket.wait(timeout=60)

    threads = [
        threading.Thread(target=drive, args=(session, 4), daemon=True) for session in analysts
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    print("Per-session view (same SQL, different default bounds):")
    for session in analysts:
        info = session.describe()
        print(
            f"  {info['name']:>10}: {info['queries']} queries, "
            f"{info['cache_hits']} cache hits, defaults={info['defaults']}"
        )

    # 4. A mixed closed-loop load: 6 clients, error-bounded, time-bounded,
    #    and unbounded queries drawn from the Conviva templates.  Each client
    #    is an in-process session; a repro.client.Client's ``query`` would
    #    drive the same loop over the wire.
    queries = mixed_bound_trace(
        conviva_query_templates(), sessions, num_queries=48, seed=11
    )
    report = run_closed_loop(
        lambda i: service.connect(name=f"analyst-{i}").execute, queries, num_clients=6
    )
    print("\nClosed-loop load (6 clients, 48 queries):")
    for key, value in report.describe().items():
        print(f"  {key:>18}: {value}")
    for row in report.rows:
        if row.error is not None:
            print(f"  {row.outcome} (client {row.client}): {row.error}")

    # 5. Service metrics: admission, cache, and latency histograms.
    snapshot = service.describe()
    print("\nService metrics:")
    print(f"  queries:  {snapshot['metrics']['queries']}")
    print(f"  cache:    {snapshot['metrics']['cache']}")
    queue_wait = snapshot["metrics"]["latency"]["queue_wait"]
    print(f"  queue wait: mean={queue_wait['mean_s']:.4f}s p95={queue_wait['p95_s']:.4f}s")

    service.close()


if __name__ == "__main__":
    main()
