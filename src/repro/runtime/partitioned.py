"""The partition-parallel execution pipeline with anytime answers.

The paper's engine runs a query as many small map tasks — one per sample
block (§2.2.1, Fig. 4) — whose partial aggregates are merged into the final
answer.  :class:`PartitionPipeline` reproduces that plan shape on top of the
staged executor: it splits the chosen sample into zero-copy
:class:`~repro.storage.block.TablePartition` views, computes one mergeable
partial state per partition (optionally fanned out over a shared thread
pool), and merges the partials in the order the *simulated* cluster would
complete them.

Simulated partition schedule
----------------------------
Each partition becomes one task whose simulated cost is its share of the
query's serial scan work plus a per-task overhead, inflated by a
deterministic straggler factor.  Tasks are placed greedily on
``sim_workers`` lanes (the per-query task slots the cluster grants the
query), so the pipeline's completion time is the busy time of the slowest
lane — the slowest wave dominates, as on a real cluster.  The serial work is
calibrated from the cluster simulator's full-scan latency: running with
``reference_workers`` lanes reproduces the simulator's whole-scan latency,
and other worker counts scale it accordingly.

Anytime answers
---------------
Given a ``deadline_seconds`` (the query's ``WITHIN`` bound, on the simulated
clock), only the partitions whose simulated completion time fits the deadline
are merged; the estimate is finalized with the coverage-corrected weight
scale so COUNT/SUM stay unbiased and the error bars widen to reflect the
rows that were never seen.  At least one partition is always merged.  A
``progress`` callback observes one :class:`ProgressiveSnapshot` per merge,
which is how the service layer exposes progressively refining answers.

Backends
--------
The partial states are computed by one of three backends, named in
``result.metadata["backend_info"]``.  An optional ``offload`` callable (the
runtime binds :meth:`~repro.runtime.procpool.ProcessPartitionPool.map_partitions`
to it on the processes backend) gets the partitions first and returns
``(partials or None, backend_info)``; whatever it declines, with the reason
it gives, runs on the shared thread ``pool`` or inline.  Every backend
produces bit-identical partial states.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.common.errors import ExecutionError
from repro.common.rng import make_rng
from repro.engine.accumulators import PartialAggregation
from repro.engine.executor import ExecutionContext, Plannable, QueryExecutor
from repro.engine.kernels import ScanSink
from repro.engine.result import QueryResult
from repro.obs.trace import NULL_SPAN, AnySpan
from repro.planner.logical import LogicalPlan
from repro.storage.block import TablePartition
from repro.storage.table import Table


@dataclass(frozen=True)
class PartitionTiming:
    """Simulated schedule entry of one partition task.

    A *skipped* partition is one whose blocks the zone maps proved entirely
    non-matching: no task is dispatched for it (``lane`` is ``-1``), it
    completes at time zero for free, and it still counts as merged coverage
    — its rows were scanned-for-free.
    """

    index: int
    rows: int
    cost_seconds: float
    start_seconds: float
    completion_seconds: float
    lane: int
    merged: bool
    skipped: bool = False


@dataclass(frozen=True)
class ProgressiveSnapshot:
    """One progressively refined answer, emitted after each state merge."""

    partitions_merged: int
    num_partitions: int
    coverage_fraction: float
    simulated_seconds: float
    result: QueryResult

    @property
    def fraction_merged(self) -> float:
        if self.num_partitions == 0:
            return 1.0
        return self.partitions_merged / self.num_partitions


@dataclass(frozen=True)
class PartitionRunStats:
    """Everything the pipeline decided and observed for one query."""

    num_partitions: int
    merged_partitions: int
    coverage_row_fraction: float
    coverage_population_fraction: float
    makespan_seconds: float
    merged_seconds: float
    deadline_seconds: float | None
    sim_workers: int
    reference_workers: int
    timings: tuple[PartitionTiming, ...]
    #: Partitions completed without dispatching work (all blocks zone-map
    #: skippable); ``rows_skipped`` is the row total of exactly those
    #: partitions — covered, scanned for free.  (Blocks skipped *inside*
    #: dispatched partitions are accounted by the executor's scan counters.)
    skipped_partitions: int = 0
    rows_skipped: int = 0

    @property
    def complete(self) -> bool:
        return self.merged_partitions == self.num_partitions


ProgressCallback = Callable[[ProgressiveSnapshot], None]

#: The process backend's partition stage, as the runtime binds it:
#: ``offload(plan, partitions, sink=..., trace_span=...)`` returns
#: ``(partials, backend_info)``, or ``(None, {"fallback_reason": ...})`` to
#: hand the partitions back to the thread pool.
Offload = Callable[..., tuple[list[PartialAggregation | None] | None, dict[str, Any]]]


class PartitionPipeline:
    """Partition → partial state → merge → estimate, on a simulated clock."""

    def __init__(
        self,
        executor: QueryExecutor,
        *,
        straggler_spread: float = 0.2,
        seed: int = 7,
    ) -> None:
        self.executor = executor
        self.straggler_spread = straggler_spread
        self.seed = seed

    def run(
        self,
        plan: Plannable,
        table: Table,
        context: ExecutionContext,
        *,
        num_partitions: int,
        sim_workers: int,
        reference_workers: int | None = None,
        scan_latency_seconds: float | None = None,
        task_overhead_seconds: float = 0.0,
        deadline_seconds: float | None = None,
        confidence: float | None = None,
        pool: Executor | None = None,
        offload: Offload | None = None,
        progress: ProgressCallback | None = None,
        trace_span: AnySpan = NULL_SPAN,
    ) -> QueryResult:
        """Execute ``plan`` partition-parallel; see the module docstring.

        The returned result carries the merged estimate, a simulated latency
        equal to the completion time of the last merged partition, and a
        :class:`PartitionRunStats` under ``metadata["partitions"]``.

        ``trace_span`` is the query trace's parent span for this pipeline
        run; the stages open children under it (the partial-aggregation
        children are opened *from the pool's worker threads* — the trace's
        internal lock makes that safe).

        ``offload`` is the process backend bound by the runtime (see
        :data:`Offload`); ``pool`` runs whatever it declines.
        """
        plan = LogicalPlan.of(plan)
        weights = context.weights
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)

        num_partitions = max(1, min(num_partitions, max(1, table.num_rows)))
        sim_workers = max(1, min(sim_workers, num_partitions))
        if reference_workers is None:
            reference_workers = sim_workers
        reference_workers = max(1, reference_workers)

        partitions = table.partitions(weights=weights, num_partitions=num_partitions)
        # Zone-map triage: partitions whose blocks are all provably
        # non-matching complete without dispatching work, and partially
        # skippable ones carry proportionally less simulated scan cost.
        with trace_span.span("kernel-triage", partitions=len(partitions)) as triage_span:
            triage = self.executor.partition_triage(plan, partitions)
            scan_rows = None if triage is None else [t.scan_rows for t in triage]
            triage_span.annotate(
                applicable=triage is not None,
                fully_skipped=0 if triage is None else sum(t.all_skipped for t in triage),
            )
        timings = self._schedule(
            partitions,
            sim_workers=sim_workers,
            reference_workers=reference_workers,
            scan_latency_seconds=scan_latency_seconds,
            task_overhead_seconds=task_overhead_seconds,
            scan_rows=scan_rows,
        )
        makespan = max(t.completion_seconds for t in timings)

        merge_order = sorted(timings, key=lambda t: (t.completion_seconds, t.index))
        if deadline_seconds is None:
            merged_timings = merge_order
        else:
            merged_timings = [
                t for t in merge_order if t.completion_seconds <= deadline_seconds
            ]
            # An anytime answer always reports *something informative*: at
            # least one *evaluated* partition.  Zone-map-skipped partitions
            # are provably match-free, so a merge of only those says nothing
            # about the regions where matches can live.
            if not any(not t.skipped for t in merged_timings):
                first_evaluated = next(
                    (t for t in merge_order if not t.skipped), None
                )
                if first_evaluated is not None:
                    merged_timings.append(first_evaluated)
                    merged_timings.sort(
                        key=lambda t: (t.completion_seconds, t.index)
                    )
                elif not merged_timings:
                    merged_timings = merge_order[:1]
        merged_set = {t.index for t in merged_timings}
        timings = tuple(replace(t, merged=t.index in merged_set) for t in timings)

        # The real computation: partial-aggregate only the partitions the
        # simulated schedule managed to complete, fanned over the pool.
        # Skipped partitions get a synthetic empty partial carrying their
        # row/weight coverage — no data of theirs is ever read.
        to_aggregate = [partitions[t.index] for t in merged_timings if not t.skipped]
        aggregated, backend_info = self._aggregate(
            plan, to_aggregate, pool, offload, sink=context.scan_sink, trace_span=trace_span
        )
        real_partials = iter(aggregated)
        partials = [
            self._skipped_partial(plan, partitions[t.index])
            if t.skipped
            else next(real_partials)
            for t in merged_timings
        ]
        # Surrendered partitions (a fault exhausted every retry) come back as
        # ``None`` holes: drop them from the merge so the anytime/coverage
        # machinery scales the answer and widens the bars around the rows
        # that were never seen — explicitly degraded, never silently wrong.
        surrendered = sum(1 for p in partials if p is None)
        if surrendered:
            kept = [(t, p) for t, p in zip(merged_timings, partials) if p is not None]
            if not any(not t.skipped for t, _ in kept):
                raise ExecutionError(
                    "every evaluated partition was surrendered to faults: "
                    f"{backend_info.get('fault', 'unknown fault')}"
                )
            merged_timings = [t for t, _ in kept]
            partials = [p for _, p in kept]
            merged_set = {t.index for t in merged_timings}
            timings = tuple(replace(t, merged=t.index in merged_set) for t in timings)
        if triage is not None:
            self._record_skipped(
                plan, table, partitions, triage, timings, sink=context.scan_sink
            )

        rows_total = table.num_rows
        if context.population_read is not None:
            population_full = float(context.population_read)
        elif weights is not None:
            population_full = float(np.sum(weights))
        else:
            population_full = float(rows_total)
        rows_read_full = context.rows_read if context.rows_read is not None else rows_total

        merged: PartialAggregation | None = None
        merged_count = 0
        skipped_rows_merged = 0
        skipped_weight_merged = 0.0
        result: QueryResult | None = None
        with trace_span.span("merge", partials=len(merged_timings)) as merge_span:
            for timing, partial in zip(merged_timings, partials):
                merged = partial if merged is None else merged.merge(partial)
                merged_count += 1
                if timing.skipped:
                    skipped_rows_merged += partial.rows_scanned
                    skipped_weight_merged += partial.weight_scanned
                if progress is None and merged_count < len(merged_timings):
                    continue  # only the final merge needs finalizing
                with merge_span.span("estimate", partials_merged=merged_count):
                    result = self._finalize_merged(
                        plan,
                        merged,
                        context,
                        confidence,
                        rows_total=rows_total,
                        rows_read_full=rows_read_full,
                        population_full=population_full,
                        complete=merged_count == num_partitions,
                        skipped_rows=skipped_rows_merged,
                        skipped_weight=skipped_weight_merged,
                    )
                result = replace(
                    result, simulated_latency_seconds=timing.completion_seconds
                )
                if progress is not None:
                    coverage = (
                        merged.weight_scanned / population_full
                        if population_full > 0
                        else 1.0
                    )
                    progress(
                        ProgressiveSnapshot(
                            partitions_merged=merged_count,
                            num_partitions=num_partitions,
                            coverage_fraction=min(1.0, coverage),
                            simulated_seconds=timing.completion_seconds,
                            result=result,
                        )
                    )
        assert merged is not None and result is not None

        coverage_rows = merged.rows_scanned / rows_total if rows_total else 1.0
        coverage_population = (
            merged.weight_scanned / population_full if population_full > 0 else 1.0
        )
        stats = PartitionRunStats(
            num_partitions=num_partitions,
            merged_partitions=merged_count,
            coverage_row_fraction=min(1.0, coverage_rows),
            coverage_population_fraction=min(1.0, coverage_population),
            makespan_seconds=makespan,
            merged_seconds=merged_timings[-1].completion_seconds,
            deadline_seconds=deadline_seconds,
            sim_workers=sim_workers,
            reference_workers=reference_workers,
            timings=timings,
            skipped_partitions=sum(1 for t in timings if t.skipped),
            rows_skipped=sum(t.rows for t in timings if t.skipped),
        )
        result.metadata["partitions"] = stats
        result.metadata["backend_info"] = backend_info
        if surrendered:
            result.metadata["degraded"] = {
                "surrendered_partitions": surrendered,
                "fault": backend_info.get("fault"),
            }
        return result

    # -- internals -----------------------------------------------------------------
    def _schedule(
        self,
        partitions: Sequence[TablePartition],
        *,
        sim_workers: int,
        reference_workers: int,
        scan_latency_seconds: float | None,
        task_overhead_seconds: float,
        scan_rows: Sequence[int] | None = None,
    ) -> list[PartitionTiming]:
        """Greedy least-loaded placement of partition tasks on simulated lanes.

        ``scan_rows`` — when zone-map triage ran — is the per-partition count
        of rows that must actually be read.  A partition with zero scan rows
        dispatches no task at all (it completes, for free, at time zero);
        partially skippable partitions carry proportionally less cost.
        ``scan_latency_seconds`` is the simulated cost of the work that must
        actually be done — the planner's scan accounting already discounts
        it for predicted skips — so shares are normalized over the
        *effective* (non-skipped) row total: the skipped rows never
        contribute lane busy time, and the discount is applied exactly once.
        """
        rows_total = sum(p.num_rows for p in partitions)
        effective_total = rows_total if scan_rows is None else sum(scan_rows)
        if scan_latency_seconds is None:
            # No simulator: the sizing layer's linear proxy (1M rows/second)
            # over the rows that actually need scanning.
            scan_latency_seconds = effective_total / 1e6 + task_overhead_seconds
        work_seconds = max(0.0, scan_latency_seconds - task_overhead_seconds)
        # Serial scan work, calibrated so `reference_workers` lanes reproduce
        # the simulator's full-scan latency.
        serial_work = work_seconds * reference_workers

        jitter = 1.0 + self.straggler_spread * make_rng(self.seed).random(len(partitions))
        lanes = [0.0] * sim_workers
        timings: list[PartitionTiming] = []
        # Dispatch in bit-reversed order so the earliest wave spans the whole
        # table: stratified samples are stored sorted by their column set, and
        # an anytime cut that merged only a *prefix* of row ranges would
        # systematically miss the strata stored last.
        for index in _spread_order(len(partitions)):
            partition = partitions[index]
            effective_rows = (
                partition.num_rows if scan_rows is None else scan_rows[index]
            )
            if scan_rows is not None and effective_rows == 0:
                # Every block provably non-matching: no task is dispatched.
                timings.append(
                    PartitionTiming(
                        index=index,
                        rows=partition.num_rows,
                        cost_seconds=0.0,
                        start_seconds=0.0,
                        completion_seconds=0.0,
                        lane=-1,
                        merged=False,
                        skipped=True,
                    )
                )
                continue
            share = effective_rows / effective_total if effective_total else 0.0
            cost = task_overhead_seconds + float(jitter[index]) * share * serial_work
            lane = min(range(sim_workers), key=lanes.__getitem__)
            start = lanes[lane]
            lanes[lane] = start + cost
            timings.append(
                PartitionTiming(
                    index=index,
                    rows=partition.num_rows,
                    cost_seconds=cost,
                    start_seconds=start,
                    completion_seconds=start + cost,
                    lane=lane,
                    merged=False,
                )
            )
        timings.sort(key=lambda t: t.index)
        return timings

    def _aggregate(
        self,
        plan: LogicalPlan,
        partitions: Sequence[TablePartition],
        pool: Executor | None,
        offload: Offload | None,
        sink: ScanSink | None = None,
        trace_span: AnySpan = NULL_SPAN,
    ) -> tuple[list[PartialAggregation | None], dict[str, Any]]:
        """Partial-aggregate ``partitions``; also report which backend ran.

        The second element is the ``backend_info`` dict surfaced under
        ``result.metadata``.  ``offload`` goes first: when it returns
        partials its ``backend_info`` is used as is ("processes" plus the
        call's healing accounting); when it returns ``None`` the partitions
        run on ``pool`` ("threads") or on this thread ("inline"), and the
        offload's ``fallback_reason`` rides along.
        """
        aggregate = self.executor.partial_aggregate_partition
        if not partitions:
            return [], {"backend": "inline"}
        with trace_span.span("partial-aggregate", partitions=len(partitions)) as dispatch:
            declined: dict[str, Any] = {}
            if offload is not None:
                shipped, info = offload(plan, partitions, sink=sink, trace_span=dispatch)
                if shipped is not None:
                    dispatch.annotate(backend="processes")
                    return shipped, info
                declined = info

            # The per-partition child spans are opened from whichever thread
            # runs the partition — the pool's workers under fan-out — and
            # joined into this dispatch span across threads.
            def one(partition: TablePartition) -> PartialAggregation:
                with dispatch.span("partition", rows=partition.num_rows):
                    return aggregate(plan, partition, sink)

            if pool is None or len(partitions) <= 1:
                results: list[PartialAggregation | None] = [one(p) for p in partitions]
                backend = "inline"
            else:
                results = list(pool.map(one, partitions))
                backend = "threads"
            if declined:
                dispatch.annotate(backend=backend, **declined)
            return results, {"backend": backend, **declined}

    @staticmethod
    def _skipped_partial(
        plan: LogicalPlan, partition: TablePartition
    ) -> PartialAggregation:
        """The partial of a fully zone-map-skipped partition: coverage, no rows.

        Matches exactly what :meth:`QueryExecutor.partial_aggregate` would
        produce for the partition (its predicate provably matches no row):
        the scanned row/weight totals, and no group contributions.
        """
        weights = partition.weights
        if weights is not None:
            weight_scanned = float(np.sum(np.asarray(weights, dtype=np.float64)))
        else:
            weight_scanned = float(partition.num_rows)
        return PartialAggregation(
            group_columns=tuple(plan.group_by),
            rows_scanned=partition.num_rows,
            weight_scanned=weight_scanned,
            has_weights=weights is not None,
        )

    def _record_skipped(
        self,
        plan: LogicalPlan,
        table: Table,
        partitions: Sequence[TablePartition],
        triage,
        timings: Sequence[PartitionTiming],
        sink: ScanSink | None = None,
    ) -> None:
        """Account fully-skipped partitions in the executor's scan counters.

        Their blocks never reach the evaluation path, so they are recorded
        here; partially skippable partitions record themselves when
        aggregated.
        """
        skipped = [t.index for t in timings if t.skipped]
        if not skipped:
            return
        row_width = self.executor.prune(plan, table).row_width_bytes
        for index in skipped:
            verdict = triage[index]
            self.executor.record_skipped_scan(
                rows=verdict.rows, blocks=verdict.blocks, row_width=row_width, sink=sink
            )

    def _finalize_merged(
        self,
        plan: LogicalPlan,
        merged: PartialAggregation,
        context: ExecutionContext,
        confidence: float | None,
        *,
        rows_total: int,
        rows_read_full: int,
        population_full: float,
        complete: bool,
        skipped_rows: int = 0,
        skipped_weight: float = 0.0,
    ) -> QueryResult:
        """Finalize a (possibly partial) merge with coverage correction.

        Zone-map-skipped coverage is *non-representative by construction* —
        those regions provably hold no matching rows, while every match
        lives in the evaluated ones.  The inverse-coverage weight scale and
        the ``rows_read`` that drives error-bar widths are therefore
        computed over the *scannable* (non-skipped) population only: the
        skipped regions contribute their exact zero, and the uncertainty
        reflects just the evaluated-but-unmerged remainder.
        """
        if complete or merged.weight_scanned <= 0:
            weight_scale = 1.0
            rows_read = rows_read_full
        else:
            scannable_population = max(0.0, population_full - skipped_weight)
            merged_scannable = merged.weight_scanned - skipped_weight
            if merged_scannable <= 0:
                weight_scale = 1.0
                rows_read = max(0, merged.rows_scanned - skipped_rows)
            else:
                weight_scale = max(1.0, scannable_population / merged_scannable)
                rows_read = max(1, merged.rows_scanned - skipped_rows)
        return self.executor.finalize(
            plan,
            merged,
            context,
            confidence,
            rows_read=rows_read,
            population_read=population_full,
            weight_scale=weight_scale,
        )


def _spread_order(n: int) -> list[int]:
    """Indices 0..n-1 in bit-reversed order (maximally spread out)."""
    if n <= 2:
        return list(range(n))
    bits = (n - 1).bit_length()
    reversed_keys = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    return sorted(range(n), key=lambda i: (reversed_keys[i], i))
