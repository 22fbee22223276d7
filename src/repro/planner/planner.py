"""The cost-based, sample-aware query planner.

:class:`QueryPlanner` turns a :class:`~repro.planner.logical.LogicalPlan`
into a :class:`~repro.planner.physical.PhysicalPlan`.  It owns every
per-query decision the runtime used to make inline:

1. **family selection** (§4.1) — superset match on the φ column set, or a
   probe of every family's smallest resolution (memoized, see below);
2. **resolution choice** (§4.2) — build the Error-Latency Profile from the
   probe and pick the resolution that satisfies the query's error or time
   bound at minimal cost;
3. **disjunctive decomposition** (§4.1.2) — plan each disjoint OR branch on
   its own best family with a per-branch tightened error bound;
4. **anytime partition layout** — when a ``WITHIN`` bound is predicted
   unsatisfiable (or the caller wants progressive snapshots), compute the
   partition count and simulated lane count for the deadline-cut pipeline;
5. **column pruning** — record the subset of the table's columns the
   executor must materialize.

Probe memoization
-----------------
Probing runs the query on every family's smallest resolution, which
previously happened on *each* unbounded query.  Probe results are
deterministic given the plan (sans bound) and the resolution, so the
planner's selector memoizes them keyed by
``(plan.probe_fingerprint(), resolution.name)``.  The memo lives on the
selector, whose lifetime is the runtime's; the facade discards the runtime
whenever samples or data change (``build_samples`` / ``replan_samples`` /
``load_table``), so a stale probe can never survive a data generation.
Hit/miss counters surface through ``runtime.stats`` and the service metrics.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.cluster.simulator import ClusterSimulator
from repro.common.config import BlinkDBConfig
from repro.engine.executor import QueryExecutor
from repro.obs.trace import NULL_SPAN, AnySpan
from repro.planner.logical import LogicalPlan
from repro.planner.physical import (
    BranchPlan,
    PartitionSpec,
    PhysicalPlan,
    PlanMode,
    ScanEstimate,
)
from repro.planner.selectivity import estimate_selectivity
from repro.runtime.selection import FamilySelection, ProbeResult, SampleFamilySelector
from repro.runtime.sizing import ErrorLatencyProfile, SampleSizer
from repro.sampling.resolution import SampleResolution
from repro.sql.ast import AggregateFunction, ErrorBound
from repro.storage.catalog import Catalog
from repro.storage.encodings import describe_encoding_kinds


#: Partition-count heuristic of a pipeline execution: one partition per
#: ``MIN_PARTITION_ROWS`` rows, capped at ``MAX_PARTITIONS`` (and at the
#: row count).
MAX_PARTITIONS = 32
MIN_PARTITION_ROWS = 2048
#: Anytime executions may split more finely than ``MAX_PARTITIONS`` — a
#: deadline is only meetable if one partition task fits it — up to this cap.
MAX_ANYTIME_PARTITIONS = 4096


class QueryPlanner:
    """Plans queries against the samples registered in a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        executor: QueryExecutor,
        config: BlinkDBConfig | None = None,
        simulator: ClusterSimulator | None = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or BlinkDBConfig()
        self.simulator = simulator
        self.executor = executor
        self.selector = SampleFamilySelector(catalog, executor)
        self.sizer = SampleSizer(simulator)

    # -- public API -----------------------------------------------------------------
    def plan(
        self,
        logical: LogicalPlan,
        *,
        progressive: bool = False,
        span: AnySpan = NULL_SPAN,
    ) -> PhysicalPlan:
        """Bind a logical plan to concrete execution choices.

        ``span`` — when the execution is traced — is the trace's planning
        span; the selection/sizing/estimation phases open children under it.
        """
        if self.should_split_disjunction(logical):
            with span.span("plan-disjunctive", branches=len(logical.branches)):
                return self._plan_disjunctive(logical)

        bound = self._bind(logical, span)
        rationale = list(bound.rationale)
        anytime = (
            not bound.bound_satisfied
            and logical.time_bound is not None
            and self.config.anytime_enabled
        )
        partitioning = None
        if anytime or progressive:
            deadline = logical.time_bound.seconds if anytime else None
            partitioning = self.partition_spec(
                logical, bound.selection, bound.resolution, bound.probe,
                deadline_seconds=deadline,
            )
            if anytime:
                rationale.append(
                    f"WITHIN {logical.time_bound.seconds:g}s unsatisfiable by any "
                    f"resolution: anytime deadline-cut over "
                    f"{partitioning.num_partitions} partitions"
                )
        scan_estimate = bound.scan_estimate
        if scan_estimate is not None and scan_estimate.blocks_skipped > 0:
            rationale.append(
                f"zone maps: ~{scan_estimate.blocks_skipped}/"
                f"{scan_estimate.blocks_total} blocks "
                f"({scan_estimate.skip_fraction:.0%} of rows) provably "
                f"non-matching, skipped without reading"
            )
        return replace(
            bound, anytime=anytime, partitioning=partitioning, rationale=tuple(rationale)
        )

    def plan_partitioned(
        self,
        logical: LogicalPlan,
        *,
        num_partitions: int | None = None,
        sim_workers: int | None = None,
        reference_workers: int | None = None,
        deadline_seconds: float | None = None,
        span: AnySpan = NULL_SPAN,
    ) -> PhysicalPlan:
        """Plan with an explicit partition layout (benchmark knobs)."""
        bound = self._bind(logical, span)
        partitioning = self.partition_spec(
            logical,
            bound.selection,
            bound.resolution,
            bound.probe,
            deadline_seconds=deadline_seconds,
            num_partitions=num_partitions,
            sim_workers=sim_workers,
            reference_workers=reference_workers,
        )
        return replace(
            bound,
            anytime=deadline_seconds is not None,
            partitioning=partitioning,
            rationale=(
                f"explicit partition layout: {partitioning.num_partitions} partitions "
                f"on {partitioning.sim_workers} lanes",
            ),
        )

    def plan_exact(self, logical: LogicalPlan) -> PhysicalPlan:
        """Bind a logical plan to the full base table (exact baselines)."""
        return PhysicalPlan(
            logical=logical,
            mode=PlanMode.EXACT,
            bound_satisfied=True,
            pruned_columns=self.pruned_columns(logical),
            rationale=("full-resolution binding: exact scan of the base table",),
        )

    def _bind(self, logical: LogicalPlan, span: AnySpan) -> PhysicalPlan:
        """Select a family, probe it and size a resolution from its ELP.

        The serial single-family plan both :meth:`plan` and
        :meth:`plan_partitioned` start from; its rationale holds the
        selection and sizing lines.  Each phase opens a child of ``span``.
        """
        with span.span("select-family") as select_span:
            selection = self.selector.select(logical)
            probe = selection.probe or self.selector.probe(
                logical, selection.family.smallest
            )
            select_span.annotate(
                reason=selection.reason, probed=len(selection.probes)
            )
        with span.span("size-resolution") as size_span:
            resolution, profile, satisfied = self._choose_resolution(
                logical, selection, probe
            )
            size_span.annotate(resolution=resolution.name, satisfied=satisfied)
        with span.span("scan-estimate"):
            scan_estimate = self.scan_estimate(logical, resolution)
        return PhysicalPlan(
            logical=logical,
            mode=PlanMode.APPROXIMATE,
            selection=selection,
            probe=probe,
            resolution=resolution,
            profile=profile,
            bound_satisfied=satisfied,
            clustered_scan=self.clustered_scan(logical, selection),
            pruned_columns=self.pruned_columns(logical),
            scan_estimate=scan_estimate,
            rationale=(
                _selection_rationale(selection),
                _resolution_rationale(logical, resolution, profile, satisfied),
            ),
        )

    # -- planning building blocks ------------------------------------------------------
    def should_split_disjunction(self, logical: LogicalPlan) -> bool:
        """Whether the plan is answered as a union of disjoint branches (§4.1.2)."""
        if logical.group_by:
            return False
        if len(logical.branches) <= 1:
            return False
        allowed = {AggregateFunction.COUNT, AggregateFunction.SUM}
        return all(call.function in allowed for call in logical.aggregates)

    def _plan_disjunctive(self, logical: LogicalPlan) -> PhysicalPlan:
        branches = logical.branches
        branch_bound = per_branch_bound(logical.error_bound, len(branches))
        rationale = [
            f"disjunctive WHERE: union of {len(branches)} disjoint conjunctive branches"
        ]
        if branch_bound is not None and logical.error_bound is not None:
            rationale.append(
                f"per-branch error bound tightened to "
                f"{branch_bound.error:.4g} (= {logical.error_bound.error:g}/sqrt"
                f"({len(branches)})) so the union still meets the bound"
            )
        plans: list[BranchPlan] = []
        for branch in branches:
            branch_logical = logical.for_branch(branch, branch_bound)
            selection = self.selector.select_for_columns(
                branch_logical, logical.branch_columns(branch)
            )
            probe = selection.probe or self.selector.probe(
                branch_logical, selection.family.smallest
            )
            resolution, _, satisfied = self._choose_resolution(
                branch_logical, selection, probe
            )
            rationale.append(
                f"branch on {_selection_rationale(selection)} -> {resolution.name}"
            )
            plans.append(
                BranchPlan(
                    branch=branch,
                    logical=branch_logical,
                    selection=selection,
                    probe=probe,
                    resolution=resolution,
                    satisfied=satisfied,
                )
            )
        return PhysicalPlan(
            logical=logical,
            mode=PlanMode.DISJUNCTIVE,
            bound_satisfied=all(p.satisfied for p in plans),
            pruned_columns=self.pruned_columns(logical),
            branch_plans=tuple(plans),
            rationale=tuple(rationale),
        )

    def _choose_resolution(
        self, logical: LogicalPlan, selection: FamilySelection, probe: ProbeResult
    ) -> tuple[SampleResolution, ErrorLatencyProfile | None, bool]:
        family = selection.family
        clustered = self.clustered_scan(logical, selection)
        # Zone-map skip discount on predicted latencies: estimated on the
        # family's smallest resolution (the one already probed); the skip
        # fraction is a property of the data distribution, so it transfers
        # across resolutions of one family.
        scan_fraction = 1.0
        if not clustered:
            estimate = self.scan_estimate(logical, family.smallest)
            if estimate is not None:
                scan_fraction = estimate.scan_fraction
        if logical.error_bound is not None:
            return self.sizer.resolution_for_error(
                family, probe, logical.error_bound, clustered_scan=clustered,
                scan_fraction=scan_fraction,
            )
        if logical.time_bound is not None:
            return self.sizer.resolution_for_time(
                family, probe, logical.time_bound, clustered_scan=clustered,
                scan_fraction=scan_fraction,
            )
        profile = self.sizer.build_profile(
            family, probe, clustered_scan=clustered, scan_fraction=scan_fraction
        )
        return self.sizer.default_resolution(family, probe), profile, True

    # -- zone-map scan estimation ---------------------------------------------------------
    def scan_estimate(
        self, logical: LogicalPlan, resolution: SampleResolution
    ) -> ScanEstimate | None:
        """Zone-map scan accounting of ``logical`` on ``resolution``.

        Costing only: the predicate is *never evaluated* — the compiled
        kernel classifies each block's zone maps (O(num_blocks) metadata
        work) and the selectivity estimate comes from aggregated column
        statistics.  Returns ``None`` when the plan has no join-free WHERE
        clause or scan acceleration is disabled.
        """
        if logical.where is None or logical.joins:
            return None
        if not getattr(self.config, "scan_acceleration", True):
            return None
        if self.executor is None or resolution.table.num_rows == 0:
            return None
        try:
            kernel = self.executor.predicate_kernel(logical.where, resolution.table)
        except Exception:
            return None
        counters = kernel.scan_classification()
        estimated = estimate_selectivity(logical.where, kernel.zone_index)
        raw_bytes = encoded_bytes = 0
        encoding_kinds = ""
        encoding_stats = resolution.table.encoding_stats()
        if encoding_stats is not None:
            raw_bytes = int(encoding_stats["raw_bytes"])  # type: ignore[arg-type]
            encoded_bytes = int(encoding_stats["encoded_bytes"])  # type: ignore[arg-type]
            encoding_kinds = describe_encoding_kinds(encoding_stats["blocks"])  # type: ignore[arg-type]
        return ScanEstimate(
            blocks_total=counters.blocks_total,
            blocks_skipped=counters.blocks_skipped,
            blocks_take_all=counters.blocks_take_all,
            rows_total=counters.rows_total,
            rows_skipped=counters.rows_skipped,
            estimated_selectivity=estimated,
            raw_bytes=raw_bytes,
            encoded_bytes=encoded_bytes,
            encoding_kinds=encoding_kinds,
        )

    @staticmethod
    def clustered_scan(logical: LogicalPlan, selection: FamilySelection) -> bool:
        """Whether the scan can be confined to the query's matching strata.

        Stratified samples are stored sorted by their column set (§3.1), so
        when that column set covers the query's WHERE columns the matching
        rows are contiguous and only they need to be read.
        """
        return selection.covers_query and logical.where is not None

    def pruned_columns(self, logical: LogicalPlan) -> tuple[str, ...]:
        """Schema-ordered columns the executor materializes for this query."""
        try:
            table = self.catalog.table(logical.table)
        except Exception:
            return tuple(sorted(logical.referenced_columns))
        referenced = logical.referenced_columns
        pruned = tuple(n for n in table.schema.names if n in referenced)
        if not pruned:
            # COUNT(*) with no filters touches no columns; one carrier column
            # is still needed to count rows.
            pruned = tuple(table.schema.names[:1])
        return pruned

    # -- partition layout --------------------------------------------------------------
    def partition_spec(
        self,
        logical: LogicalPlan,
        selection: FamilySelection,
        resolution: SampleResolution,
        probe: ProbeResult,
        *,
        deadline_seconds: float | None = None,
        num_partitions: int | None = None,
        sim_workers: int | None = None,
        reference_workers: int | None = None,
    ) -> PartitionSpec:
        """The partition layout of a pipeline execution of ``resolution``.

        Partition count heuristics: one partition per ``MIN_PARTITION_ROWS``
        rows capped at ``MAX_PARTITIONS``; anytime/progressive runs get at
        least 8 partitions for merge granularity, and a deadline splits
        finely enough that one straggling partition task still fits it
        (bounded by ``MAX_ANYTIME_PARTITIONS``).  Lanes default to one per
        data-holding simulated node so a full merge reproduces the cluster
        simulator's whole-scan latency.
        """
        scan_latency = None
        scan_nodes = None
        task_overhead = 0.0
        if self.simulator is not None and self.simulator.has_dataset(resolution.name):
            rows_to_read, reuse_rows = self.scan_parameters(
                selection, resolution, probe, logical
            )
            execution = self.simulator.simulate_scan(
                resolution.name,
                rows_to_read=rows_to_read,
                output_groups=max(1, probe.num_groups),
                reuse_rows=reuse_rows,
            )
            scan_latency = execution.latency_seconds
            task_overhead = self.simulator.config.task_startup_seconds
            # Scanning is disk-bound per node: one pipeline lane per node that
            # holds input data, each draining its blocks sequentially.
            slots = self.simulator.config.scheduler_slots_per_node
            scan_nodes = max(1, execution.estimate.parallelism // max(1, slots))

        if num_partitions is None:
            num_partitions = _default_partitions(resolution.num_rows)
            # Anytime cuts and progressive snapshots need merge granularity
            # even on small resolutions: never fewer than 8 partitions
            # (bounded by the row count).
            num_partitions = max(num_partitions, min(8, resolution.num_rows))
            if deadline_seconds is not None and scan_latency is not None:
                # Split finely enough that one partition task (startup plus
                # its share of the per-lane scan work) fits the deadline, so
                # a tight bound yields partial coverage rather than a single
                # oversized task that blows through it.
                work = max(0.0, scan_latency - task_overhead)
                budget = deadline_seconds - task_overhead
                if work > 0.0 and budget > 0.0:
                    # A task can run up to (1 + spread) slower than its share;
                    # budget for the worst case so stragglers still fit.
                    serial = work * (scan_nodes or 1) * (1.0 + self.config.straggler_spread)
                    needed = math.ceil(serial / budget)
                    num_partitions = max(
                        num_partitions, min(needed, MAX_ANYTIME_PARTITIONS)
                    )
            num_partitions = max(1, min(num_partitions, resolution.num_rows))
        if sim_workers is None:
            # One lane per data-holding node: the full merge then reproduces
            # the simulator's whole-scan latency, and finer partitions give
            # shorter waves within each lane.
            sim_workers = min(num_partitions, scan_nodes or num_partitions)
        return PartitionSpec(
            num_partitions=num_partitions,
            sim_workers=sim_workers,
            scan_latency_seconds=scan_latency,
            task_overhead_seconds=task_overhead,
            deadline_seconds=deadline_seconds,
            reference_workers=reference_workers,
        )

    # -- simulated-scan accounting ------------------------------------------------------
    def scan_parameters(
        self,
        selection: FamilySelection,
        resolution: SampleResolution,
        probe: ProbeResult,
        logical: LogicalPlan | None = None,
    ) -> tuple[int | None, int]:
        """(rows_to_read, reuse_rows) of a simulated scan of ``resolution``.

        Shared by the plain and partition-pipeline paths so both report the
        same latency for the same work: ``rows_to_read`` confines a clustered
        scan to the matching strata (§3.1), ``reuse_rows`` discounts the
        blocks already read while probing a smaller resolution of the same
        family (§4.4), and — when ``logical`` is given and the scan is not
        already strata-confined — zone maps discount the blocks the kernel
        is predicted to skip.  Requires the resolution to be registered with
        the simulator.
        """
        assert self.simulator is not None
        reuse_rows = 0
        if probe.resolution.name != resolution.name and _same_family(
            selection, probe.resolution
        ):
            reuse_rows = int(
                probe.resolution.num_rows
                * self._scale_ratio(probe.resolution)
            )
        rows_to_read = None
        if selection.covers_query and probe.rows_read > 0 and probe.selectivity < 1.0:
            info = self.simulator.dataset(resolution.name)
            scale = info.num_rows / resolution.num_rows if resolution.num_rows else 1.0
            rows_to_read = int(max(1, resolution.num_rows * probe.selectivity * scale))
            reuse_rows = int(reuse_rows * probe.selectivity)
        elif logical is not None:
            estimate = self.scan_estimate(logical, resolution)
            if estimate is not None and estimate.rows_skipped > 0:
                info = self.simulator.dataset(resolution.name)
                scale = (
                    info.num_rows / resolution.num_rows if resolution.num_rows else 1.0
                )
                rows_to_read = int(
                    max(1, resolution.num_rows * estimate.scan_fraction * scale)
                )
        return rows_to_read, reuse_rows

    def _scale_ratio(self, probe_resolution: SampleResolution) -> float:
        """Convert probe rows into the simulator's (possibly scaled) row space."""
        if self.simulator is None:
            return 1.0
        if not self.simulator.has_dataset(probe_resolution.name):
            return 1.0
        info = self.simulator.dataset(probe_resolution.name)
        if probe_resolution.num_rows == 0:
            return 1.0
        return info.num_rows / probe_resolution.num_rows


def per_branch_bound(bound: ErrorBound | None, num_branches: int) -> ErrorBound | None:
    """Tighten the error bound per branch so the union still meets it.

    Independent branch variances add; answering each branch within
    ``ε/√b`` of its truth keeps the union within ``ε`` (standard deviations
    combine in quadrature).
    """
    if bound is None or num_branches <= 1:
        return bound
    return replace(bound, error=bound.error / (num_branches**0.5))


def _default_partitions(num_rows: int) -> int:
    by_rows = max(1, num_rows // MIN_PARTITION_ROWS)
    return max(1, min(MAX_PARTITIONS, by_rows, max(1, num_rows)))


def _same_family(selection: FamilySelection, resolution: SampleResolution) -> bool:
    return any(r.name == resolution.name for r in selection.family.resolutions)


def _selection_rationale(selection: FamilySelection) -> str:
    columns = getattr(selection.family, "columns", None)
    label = f"stratified[{','.join(columns)}]" if columns else "uniform"
    if selection.reason == "superset-match":
        return f"family {label}: smallest column superset of the query's phi set"
    if selection.reason == "probe-best-ratio":
        assert selection.probe is not None
        return (
            f"family {label}: best rows-selected/rows-read ratio "
            f"({selection.probe.selectivity:.3f}) across "
            f"{len(selection.probes)} probed families"
        )
    if selection.reason == "no-filter-uniform":
        return f"family {label}: no filters or grouping, uniform is unbiased"
    return f"family {label}: {selection.reason}"


def _resolution_rationale(
    logical: LogicalPlan,
    resolution: SampleResolution,
    profile: ErrorLatencyProfile | None,
    satisfied: bool,
) -> str:
    if logical.error_bound is not None:
        target = logical.error_bound
        kind = f"{target.error:.2%} relative" if target.relative else f"{target.error:g} absolute"
        if satisfied:
            return (
                f"ELP: {resolution.name} is the smallest resolution predicted to "
                f"meet the {kind} error bound (minimizes latency)"
            )
        return (
            f"ELP: no resolution predicted to meet the {kind} error bound; "
            f"falling back to the largest ({resolution.name})"
        )
    if logical.time_bound is not None:
        if satisfied:
            return (
                f"ELP: {resolution.name} is the largest resolution predicted to "
                f"finish within {logical.time_bound.seconds:g}s (minimizes error)"
            )
        return (
            f"ELP: no resolution predicted to finish within "
            f"{logical.time_bound.seconds:g}s; falling back to the smallest "
            f"({resolution.name})"
        )
    return f"no bound: default to the family's largest resolution ({resolution.name})"
