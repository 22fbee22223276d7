"""Configuration objects for the BlinkDB reproduction.

Three dataclasses describe the tunables of the system:

* :class:`SamplingConfig` — parameters of the sample families (the largest cap
  ``K``, the geometric ratio ``c`` between resolutions, the storage budget).
* :class:`ClusterConfig` — parameters of the simulated cluster (number of
  nodes, per-node bandwidths, task overheads).  These drive the latency model
  that stands in for the paper's 100-node EC2 deployment.
* :class:`BlinkDBConfig` — the umbrella configuration handed to the
  :class:`repro.core.BlinkDB` facade.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace

from repro.common.units import GB, MB


@dataclass(frozen=True)
class SamplingConfig:
    """Parameters controlling offline sample creation (paper §3).

    Attributes
    ----------
    largest_cap:
        ``K`` — the frequency cap of the largest stratified sample in each
        family.  The paper uses ``K = 100,000`` for its 17 TB Conviva runs.
        ``None`` (the default) auto-scales the cap with the table size
        (``num_rows // auto_cap_divisor``, at least ``min_cap``), which keeps
        the paper's regime — strata much larger than the cap — at laptop
        scale; see :meth:`effective_cap`.
    auto_cap_divisor:
        Divisor used by the auto-scaling rule when ``largest_cap`` is None.
    resolution_ratio:
        ``c`` — consecutive resolutions in a family shrink by this factor
        (``K_i = ⌊K₁ / cⁱ⌋``).  The paper's evaluation uses 2.
    min_cap:
        Resolutions whose cap would fall below this value are not created;
        it bounds the family length ``m`` together with ``resolution_ratio``.
    storage_budget_fraction:
        Total sample storage allowed, as a fraction of the original table
        size (``0.5`` = the 50% budget used for most paper experiments).
    uniform_sample_fraction:
        Size of the baseline uniform sample family, as a fraction of the
        table, used when no stratified family covers a query.
    max_columns_per_family:
        Candidate column sets larger than this are not considered by the
        optimizer (§3.2.2 restricts to 3–4 columns).
    confidence:
        Default confidence level for error bars when a query does not
        specify one.
    """

    largest_cap: int | None = None
    auto_cap_divisor: int = 500
    resolution_ratio: float = 2.0
    min_cap: int = 10
    storage_budget_fraction: float = 0.5
    uniform_sample_fraction: float = 0.10
    max_columns_per_family: int = 3
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.largest_cap is not None and self.largest_cap <= 0:
            raise ValueError("largest_cap must be positive")
        if self.auto_cap_divisor <= 0:
            raise ValueError("auto_cap_divisor must be positive")
        if self.resolution_ratio <= 1.0:
            raise ValueError("resolution_ratio must be > 1")
        if self.min_cap <= 0:
            raise ValueError("min_cap must be positive")
        if not 0.0 < self.storage_budget_fraction:
            raise ValueError("storage_budget_fraction must be positive")
        if not 0.0 < self.uniform_sample_fraction <= 1.0:
            raise ValueError("uniform_sample_fraction must be in (0, 1]")
        if self.max_columns_per_family < 1:
            raise ValueError("max_columns_per_family must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    def with_budget(self, fraction: float) -> "SamplingConfig":
        """Return a copy with a different storage budget fraction."""
        return replace(self, storage_budget_fraction=fraction)

    def effective_cap(self, num_rows: int) -> int:
        """The cap ``K`` to use for a table of ``num_rows`` rows.

        Returns ``largest_cap`` when it is set explicitly; otherwise the
        auto-scaled value ``max(min_cap, num_rows // auto_cap_divisor)``,
        which keeps the cap small relative to the typical stratum size so
        that stratified samples stay much smaller than the table (the regime
        the paper's 17 TB / K=100,000 configuration is in).
        """
        if self.largest_cap is not None:
            return self.largest_cap
        return max(self.min_cap, int(num_rows) // self.auto_cap_divisor)

    def resolution_caps(self, largest_cap: int | None = None) -> list[int]:
        """The sequence of caps ``K₁ > K₂ > …`` for a sample family.

        Follows §3.1: ``K_i = ⌊K₁ / cⁱ⌋`` down to (and not below)
        ``min_cap``.
        """
        cap = self.largest_cap if largest_cap is None else largest_cap
        if cap is None:
            raise ValueError(
                "largest_cap is auto (None); pass an explicit cap, e.g. "
                "config.effective_cap(table.num_rows)"
            )
        caps: list[int] = []
        level = 0
        while True:
            value = int(cap // (self.resolution_ratio**level))
            if value < self.min_cap:
                break
            if not caps or value < caps[-1]:
                caps.append(value)
            level += 1
            if level > 64:  # safety bound; unreachable for sane ratios
                break
        if not caps:
            caps = [max(int(cap), 1)]
        return caps


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of the simulated cluster used by the cost model.

    Defaults approximate the paper's EC2 extra-large instances: 8 cores,
    ~68 GB RAM, ~800 GB disk, and typical 2012-era sequential disk and memory
    scan bandwidths.
    """

    num_nodes: int = 100
    cores_per_node: int = 8
    memory_per_node_bytes: int = 68 * GB
    disk_per_node_bytes: int = 800 * GB
    disk_bandwidth_bytes_per_sec: float = 90.0 * MB
    memory_bandwidth_bytes_per_sec: float = 4.0 * GB
    network_bandwidth_bytes_per_sec: float = 120.0 * MB
    task_startup_seconds: float = 0.35
    per_wave_overhead_seconds: float = 0.15
    hdfs_block_bytes: int = 128 * MB
    scheduler_slots_per_node: int = 8

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        for name in (
            "disk_bandwidth_bytes_per_sec",
            "memory_bandwidth_bytes_per_sec",
            "network_bandwidth_bytes_per_sec",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.hdfs_block_bytes <= 0:
            raise ValueError("hdfs_block_bytes must be positive")

    @property
    def total_memory_bytes(self) -> int:
        """Aggregate RAM across the cluster (used for the caching decision)."""
        return self.num_nodes * self.memory_per_node_bytes

    @property
    def total_slots(self) -> int:
        """Total parallel task slots across the cluster."""
        return self.num_nodes * self.scheduler_slots_per_node

    def with_nodes(self, num_nodes: int) -> "ClusterConfig":
        """Return a copy with a different cluster size (for scale-up runs)."""
        return replace(self, num_nodes=num_nodes)


@dataclass(frozen=True)
class BlinkDBConfig:
    """Umbrella configuration for a :class:`repro.core.BlinkDB` instance."""

    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    seed: int = 7
    # When True the runtime raises ConstraintUnsatisfiableError instead of
    # returning a best-effort answer that violates the requested bound.
    strict_bounds: bool = False
    # Fraction of sample storage allowed to churn on a re-solve (paper's r).
    maintenance_churn_fraction: float = 1.0
    # -- partition-parallel execution pipeline ---------------------------------
    # Threads in the runtime's shared partial-aggregation pool (<= 1 runs the
    # partition stages inline on the calling thread).
    partition_workers: int = 4
    # When a WITHIN time bound is unsatisfiable even by the smallest sample,
    # answer anytime-style: merge the partitions finished by the deadline and
    # widen the error bars for the missing coverage (instead of returning a
    # full answer that blows through the bound).
    anytime_enabled: bool = True
    # Simulated per-partition slowdown spread: each partition task's scan time
    # is inflated by up to this fraction (deterministic per partition), so the
    # slowest wave dominates the pipeline's completion time.
    straggler_spread: float = 0.2
    # Which pool executes the partial-aggregation stage: "threads" shares one
    # GIL-bound thread pool (cheap, no spawn cost — wall-clock speedup is
    # accounting only); "processes" fans partitions over a persistent
    # spawn-based worker pool reading shared-memory table exports
    # (runtime/procpool.py) for real multicore speedup, falling back to
    # threads whenever shared memory or the pool is unavailable.  The
    # simulated straggler/anytime/coverage behaviour is identical on both.
    execution_backend: str = "threads"
    # Worker processes in the process backend; 0 means os.cpu_count().
    procpool_workers: int = 0
    # -- self-healing process backend (PR 9) -------------------------------------
    # Wall-clock deadline per dispatched chunk before a worker is declared
    # hung and its chunk hedged to the thread path; None disables detection.
    procpool_task_timeout_seconds: float | None = 30.0
    # Failed chunks are re-dispatched to a recycled pool up to this many
    # extra rounds (0 = no process-side retry, straight to threads).
    procpool_retry_attempts: int = 2
    # Base of the capped exponential backoff (with seeded jitter) between
    # retry rounds.
    procpool_retry_backoff_seconds: float = 0.05
    # Circuit breaker: after this many consecutive faulted process-backend
    # queries, trip to threads; probe the pool again after the cooldown.
    procpool_breaker_threshold: int = 3
    procpool_breaker_cooldown_seconds: float = 5.0
    # -- service retry policy ----------------------------------------------------
    # Queries are read-only, hence idempotent: the service re-submits a
    # failed execution up to this many times with exponential backoff before
    # failing the ticket.  Admission rejections are never retried.
    service_retries: int = 1
    service_retry_backoff_seconds: float = 0.05
    # IngestController.flush() retries a failed append this many times
    # before re-queuing the rows and surfacing the error.
    ingest_flush_retries: int = 2
    # -- fault injection ---------------------------------------------------------
    # A scriptable fault plan (see repro.faults.FaultPlan.parse), installed
    # process-globally when the facade is constructed.  None (the default)
    # leaves injection disabled; the instrumented layers then pay only a
    # module-global is-None check.
    fault_plan: str | None = None
    fault_seed: int = 0
    # -- streaming ingestion -----------------------------------------------------
    # Per-family staleness budget: the fraction of a table's rows (or of a
    # stratified family's strata) that may arrive after the last full
    # build/re-plan before an append escalates to the SampleMaintenance
    # re-plan/refresh path.
    ingest_staleness_budget: float = 0.25
    # When False, appends report staleness_exceeded but never escalate on
    # their own (the operator drives replan_samples() explicitly).
    ingest_auto_escalate: bool = True
    # -- scan layout (zone maps + compiled predicate kernels) -------------------
    # Join-free WHERE clauses are compiled once per (table, plan) into
    # kernels that consult block zone maps to skip provably non-matching
    # blocks and return selection vectors instead of full-width masks.  Base
    # tables and sample resolutions are stored block-encoded (RLE runs,
    # frame-of-reference / bit-packed integers, null suppression) and
    # kernels execute on the encoded form without decoding.
    # Rows per zone-map and encoding block (the granularity of skip decisions).
    zone_block_rows: int = 4096
    # -- observability (query-lifecycle tracing + accuracy ledger) ---------------
    # Fraction of executions that get a full span tree attached under
    # metadata["trace"].  1.0 traces everything; under load an operator drops
    # this (e.g. 0.01) so the hot path pays only one sampling decision per
    # query, and 0.0 traces nothing (EXPLAIN ANALYZE still forces a trace
    # for its own execution).  Sampling is deterministic (counted, not an RNG): of the first
    # n queries exactly floor(rate * n) are traced, evenly spaced.
    trace_sample_rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.maintenance_churn_fraction <= 1.0:
            raise ValueError("maintenance_churn_fraction must be in [0, 1]")
        if self.partition_workers < 1:
            raise ValueError("partition_workers must be >= 1 (1 runs inline)")
        if self.execution_backend not in ("threads", "processes"):
            raise ValueError(
                "execution_backend must be 'threads' or 'processes', "
                f"got {self.execution_backend!r}"
            )
        if self.procpool_workers < 0:
            raise ValueError("procpool_workers must be >= 0 (0 means cpu count)")
        cpu = os.cpu_count() or 1
        if self.procpool_workers > cpu:
            warnings.warn(
                f"procpool_workers={self.procpool_workers} exceeds "
                f"os.cpu_count()={cpu}; extra workers only add spawn and "
                "scheduling overhead",
                stacklevel=2,
            )
        if (
            self.procpool_task_timeout_seconds is not None
            and self.procpool_task_timeout_seconds <= 0.0
        ):
            raise ValueError(
                "procpool_task_timeout_seconds must be positive (or None)"
            )
        if self.procpool_retry_attempts < 0:
            raise ValueError("procpool_retry_attempts must be >= 0")
        if self.procpool_retry_backoff_seconds < 0.0:
            raise ValueError("procpool_retry_backoff_seconds must be non-negative")
        if self.procpool_breaker_threshold < 1:
            raise ValueError("procpool_breaker_threshold must be >= 1")
        if self.procpool_breaker_cooldown_seconds < 0.0:
            raise ValueError("procpool_breaker_cooldown_seconds must be non-negative")
        if self.service_retries < 0:
            raise ValueError("service_retries must be >= 0")
        if self.service_retry_backoff_seconds < 0.0:
            raise ValueError("service_retry_backoff_seconds must be non-negative")
        if self.ingest_flush_retries < 0:
            raise ValueError("ingest_flush_retries must be >= 0")
        if self.straggler_spread < 0.0:
            raise ValueError("straggler_spread must be non-negative")
        if self.zone_block_rows < 1:
            raise ValueError("zone_block_rows must be >= 1")
        if not 0.0 < self.ingest_staleness_budget:
            raise ValueError("ingest_staleness_budget must be positive")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")
