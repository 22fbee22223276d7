"""Tracing overhead: span trees must be close to free on the query hot path.

Not a figure from the paper — this guards the observability layer. Three
configurations of the same warm query mix:

* tracing **off** (the baseline hot path: one ``begin()`` call that returns
  the null trace);
* tracing **fully on** (every query builds, locks, and attaches a span
  tree);
* tracing **sampled at 1%** (the production default posture: 99% of
  queries take the null-trace path).

Asserts that full tracing costs at most 5% of p50 latency and that
1%-sampled tracing costs at most 1%.  Timings interleave the
configurations round-robin so drift (thermal, page cache) hits all three
equally.  Run directly for the full sweep; set ``REPRO_BENCH_QUICK=1``
(the CI smoke job does) to shrink it.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks._report import print_header, print_table
from repro.obs import percentile_of

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 120 if QUICK else 400

#: Timer granularity / scheduler-jitter allowance on sub-millisecond queries.
EPSILON_S = 50e-6

MAX_FULL_TRACING_OVERHEAD = 0.05
MAX_SAMPLED_TRACING_OVERHEAD = 0.01

QUERIES = [
    "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0003' "
    "ERROR WITHIN 10% AT CONFIDENCE 95%",
    "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' WITHIN 5 SECONDS",
]

MODES = (
    ("off", False, 0.0),
    ("sampled-1pct", True, 0.01),
    ("full", True, 1.0),
)


def run_tracing_sweep(db):
    tracer = db.obs.tracer
    saved = (tracer.enabled, tracer.sample_rate)
    timings: dict[str, list[float]] = {name: [] for name, _, _ in MODES}
    try:
        for query in QUERIES[:1] if QUICK else QUERIES:
            db.query(query)  # warm plan/probe caches before timing
        # Round-robin over the modes so slow drift is shared evenly.
        for i in range(REPEATS):
            sql = QUERIES[i % (1 if QUICK else len(QUERIES))]
            for name, enabled, rate in MODES:
                tracer.enabled = enabled
                tracer.sample_rate = rate
                start = time.perf_counter()
                db.query(sql)
                timings[name].append(time.perf_counter() - start)
    finally:
        tracer.enabled, tracer.sample_rate = saved
    rows = []
    baseline = percentile_of(timings["off"], 0.50)
    for name, _, rate in MODES:
        p50 = percentile_of(timings[name], 0.50)
        rows.append(
            {
                "mode": name,
                "sample_rate": rate,
                "p50_ms": round(p50 * 1e3, 4),
                "p90_ms": round(percentile_of(timings[name], 0.90) * 1e3, 4),
                "overhead_pct": round((p50 / baseline - 1.0) * 100, 2) if baseline else 0.0,
            }
        )
    return {"rows": rows, "p50": {name: percentile_of(t, 0.50) for name, t in timings.items()}}


@pytest.mark.benchmark(group="tracing-overhead")
def test_tracing_overhead(benchmark, conviva_db):
    out = benchmark.pedantic(
        lambda: run_tracing_sweep(conviva_db), rounds=1, iterations=1
    )

    print_header(
        "Tracing overhead — warm p50/p90 query latency with tracing off, "
        "1%-sampled, and fully on"
    )
    print_table(out["rows"])

    p50 = out["p50"]
    assert p50["full"] <= p50["off"] * (1.0 + MAX_FULL_TRACING_OVERHEAD) + EPSILON_S, out["rows"]
    assert (
        p50["sampled-1pct"] <= p50["off"] * (1.0 + MAX_SAMPLED_TRACING_OVERHEAD) + EPSILON_S
    ), out["rows"]
