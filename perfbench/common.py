"""Shared pieces of the benchmark: set-up, statement streams, audits, stats.

Every workload serves the same Conviva-like table: 120k in-memory rows
standing in for the paper's 17 TB, the five Fig. 7(a) templates and a 50%
storage budget.  The table itself is fixed (generator seed 7); the workload
seed given on the command line only drives the statements and the appended
rows, so every run of every workload answers questions about the same data.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from typing import Any, Iterator, Sequence

import numpy as np

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.common.units import TB
from repro.core.blinkdb import BlinkDB
from repro.engine.result import QueryResult
from repro.net import protocol
from repro.service.cache import cache_key
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table
from repro.workloads.tracegen import instantiate_template

TABLE = "sessions"
TABLE_ROWS = 120_000
TABLE_SEED = 7
SIMULATED_BYTES = 17 * TB
STORAGE_BUDGET = 0.5
TABLE_SHAPE = dict(
    num_cities=60,
    num_customers=120,
    num_objects=200,
    num_dmas=25,
    num_countries=20,
    num_asns=80,
    num_urls=150,
)
MEASURES = ("session_time", "jointimems", "buffer_ratio")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Statements in the fixed audit set answered after every window.
AUDIT_STATEMENTS = 24
AUDIT_SEED = 424242
APPEND_ROWS = 1_000
#: Generator seed of the appended rows.  It is fixed, like the table's, so
#: that every run ends on the same data and the audit after the window
#: measures the program rather than the draw of rows.
APPEND_SEED = 8


# -- set-up ---------------------------------------------------------------------------
def build_db() -> BlinkDB:
    """Generate the table, load it and build its samples."""
    table = generate_sessions_table(num_rows=TABLE_ROWS, seed=TABLE_SEED, **TABLE_SHAPE)
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=600, min_cap=25, uniform_sample_fraction=0.08),
        cluster=ClusterConfig(num_nodes=100),
    )
    db = BlinkDB(config)
    simulated_rows = max(table.num_rows, int(SIMULATED_BYTES // table.row_width_bytes))
    db.load_table(table, simulated_rows=simulated_rows, cache=False)
    db.register_workload(templates=conviva_query_templates(TABLE))
    db.build_samples(storage_budget_fraction=STORAGE_BUDGET)
    return db


def repeated_setup(repeats: int, finish=None) -> tuple[BlinkDB, Any, list[float]]:
    """Set up ``repeats`` times from scratch and keep the last instance.

    ``finish(db)`` completes one set-up (for example by starting the wire
    server) and is timed with it; its return value is kept for the last
    instance and closed for the earlier ones.
    """
    timings: list[float] = []
    db = extra = None
    for _ in range(repeats):
        if db is not None:
            if extra is not None:
                extra.close()
            db.close()
            db = extra = None
            gc.collect()
        started = time.perf_counter()
        db = build_db()
        extra = finish(db) if finish is not None else None
        timings.append(time.perf_counter() - started)
    return db, extra, timings


# -- statements -----------------------------------------------------------------------
def _bound_clause(rng: np.random.Generator) -> dict[str, float]:
    """Fixed shares: 40% unbounded, 40% ERROR WITHIN, 20% WITHIN (time).

    Admission control compares a time bound with half the simulated seconds
    in flight plus the statement's own prediction, each up to about 130 s on
    this table, so shorter bounds would be shed under two connections; these
    bounds always admit.
    """
    draw = rng.random()
    if draw < 0.4:
        return {}
    if draw < 0.8:
        return {"error_bound_percent": float(rng.choice([5.0, 10.0, 20.0]))}
    return {"time_bound_seconds": float(rng.choice([300.0, 600.0, 1200.0]))}


def statement_stream(table, seed: int) -> Iterator[str]:
    """Endless stream of distinct statements: templates by Fig. 7(a) weight,
    literals and bounds from ``seed``.  A statement whose result-cache key
    was drawn before (the same plan written differently) is redrawn."""
    rng = np.random.default_rng(seed)
    templates = conviva_query_templates(TABLE)
    weights = np.asarray([t.weight for t in templates], dtype=np.float64)
    weights /= weights.sum()
    seen: set[str] = set()
    redraws = 0
    while True:
        template = templates[int(rng.choice(len(templates), p=weights))]
        sql = instantiate_template(
            template, table, rng, measure_columns=MEASURES, **_bound_clause(rng)
        )
        key = cache_key(sql)
        if key in seen:
            redraws += 1
            if redraws > 100_000:
                raise RuntimeError("statement space exhausted")
            continue
        seen.add(key)
        yield sql


def take(stream: Iterator[str], count: int) -> list[str]:
    return [next(stream) for _ in range(count)]


def audit_statements(table) -> list[str]:
    """The fixed audit set: the same statements for every seed and workload."""
    return take(statement_stream(table, AUDIT_SEED), AUDIT_STATEMENTS)


# -- results ----------------------------------------------------------------------------
def canonical(result: QueryResult) -> str:
    """Wire encoding as text: equal strings mean bit-identical answers."""
    return json.dumps(protocol.encode_result(result), sort_keys=True)


def accuracy(approx: QueryResult, exact: QueryResult) -> dict[str, Any]:
    """Relative error and 95%-interval coverage of the sampled group estimates.

    Estimates the engine marks exact (a stratum sampled whole) are counted
    but left out of both ratios: their error is zero by construction.
    """
    errors: list[float] = []
    covered = 0
    counts = {"exact_estimates": 0, "non_finite_references": 0, "missing_groups": 0,
              "zero_references": 0}
    for group in exact.groups:
        if not approx.has_group(group.key):
            counts["missing_groups"] += 1
            continue
        estimate_group = approx.group(group.key)
        for name, aggregate in group.aggregates.items():
            reference = float(aggregate.value)
            estimate = estimate_group[name]
            if not math.isfinite(reference):
                counts["non_finite_references"] += 1
            elif estimate.estimate.exact:
                counts["exact_estimates"] += 1
            elif reference == 0.0:
                counts["zero_references"] += 1
            else:
                errors.append(abs(float(estimate.value) - reference) / abs(reference))
                interval = estimate.interval
                if interval.low <= reference <= interval.high:
                    covered += 1
    return {"errors": errors, "covered": covered, **counts}


def audit_summary(pairs: Sequence[tuple[QueryResult, QueryResult]]) -> dict[str, Any]:
    """Accuracy of the audit answers plus their simulated cluster latency."""
    errors: list[float] = []
    covered = 0
    counts: dict[str, int] = {}
    for approx, exact in pairs:
        part = accuracy(approx, exact)
        errors.extend(part.pop("errors"))
        covered += part.pop("covered")
        for key, value in part.items():
            counts[key] = counts.get(key, 0) + value
    simulated = [
        float(approx.simulated_latency_seconds)
        for approx, _ in pairs
        if approx.simulated_latency_seconds is not None
    ]
    return {
        "sampled_estimates": len(errors),
        "rel_error_p50": statistics.median(errors) if errors else math.nan,
        "bar_coverage": covered / len(errors) if errors else math.nan,
        "sim_latency_p50": statistics.median(simulated) if simulated else math.nan,
        **counts,
    }


# -- serving-process facts --------------------------------------------------------------
def stored_bytes_ratio(db: BlinkDB) -> float:
    """(encoded base bytes + every sample resolution's bytes) / raw base bytes."""
    base = db.catalog.table(TABLE)
    stats = base.encoding_stats()
    raw = int(stats["raw_bytes"]) if stats else base.size_bytes
    stored = int(stats["encoded_bytes"]) if stats else base.size_bytes
    for _, family in db.catalog.iter_families(TABLE):
        for resolution in family.resolutions:
            res_stats = resolution.table.encoding_stats()
            stored += (
                int(res_stats["encoded_bytes"]) if res_stats else resolution.table.size_bytes
            )
    return stored / raw


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def append_batches(count: int, rows: int = APPEND_ROWS) -> list[dict[str, list]]:
    """Append payloads from a second generator seed, one fresh table per batch."""
    batches = []
    for index in range(count):
        source = generate_sessions_table(
            num_rows=rows, seed=APPEND_SEED * 1_000 + index, **TABLE_SHAPE
        )
        batches.append({name: list(source.column(name).values()) for name in source.column_names})
    return batches


# -- statistics and the run record --------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample at rank ceil(fraction * n))."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def host_fingerprint() -> dict[str, Any]:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def program_counters(db: BlinkDB, service=None) -> dict[str, float]:
    """The program's own lifetime counters that the benchmark reads as deltas."""
    counters: dict[str, float] = {}
    counters.update(db.runtime.selector.probe_cache_stats)
    counters.update(db.runtime.executor.scan_stats)
    counters["escalations"] = float(
        sum(int(stats["escalations"]) for stats in db.ingest_stats().values())
    )
    if service is not None:
        counters["cache_hits"] = float(service.metrics.cache_hits.value)
        counters["cache_misses"] = float(service.metrics.cache_misses.value)
    return {key: float(value) for key, value in counters.items()}
