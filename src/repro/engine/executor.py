"""The query executor: a partition-wise pipeline over in-memory tables.

The executor evaluates a **logical plan** against one in-memory table —
either the base table (exact answers, zero-width error bars) or a sample
table carrying per-row weights (approximate answers with Table-2 error bars).
Every public entry point accepts a :class:`~repro.planner.logical.LogicalPlan`
(raw :class:`~repro.sql.ast.Query` objects and SQL strings are normalized at
the boundary), so no execution stage ever consumes the raw AST.  Execution
is staged the way the paper's map/merge plan is (§2.2.1, and the plan shape
the cluster cost model prices):

0. **column pruning** — only the plan's referenced columns are materialized
   through the scan (zero-copy projection; filters and group-by fancy
   indexing then touch just those arrays);
1. **partial aggregation** (:meth:`QueryExecutor.partial_aggregate`) — for
   one partition of the input: join dimension tables, apply the WHERE mask,
   assign group codes, and fold the matching rows of every group into
   mergeable aggregation states (:mod:`repro.engine.accumulators`).  Each
   group's weight moments are reduced once and shared by all its states
   (:class:`~repro.engine.accumulators.WeightFold`) — bit-identical to one
   ``update`` per state;
2. **state merge** — :meth:`~repro.engine.accumulators.PartialAggregation.merge`
   combines partials associatively, in any order;
3. **estimate** (:meth:`QueryExecutor.finalize`) — turn the merged states
   into point estimates with error bars, optionally rescaling weights when
   only part of the input was covered (anytime answers).

:meth:`QueryExecutor.execute` composes the stages; the legacy whole-table
execution is simply the one-partition special case.  The same executor is
used by the exact baselines, the ELP probing phase, and the final
approximate execution, which keeps all answer paths consistent.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from repro.common.errors import ExecutionError, PlanningError
from repro.engine.accumulators import (
    AggregateState,
    ColumnFold,
    GroupPartial,
    PartialAggregation,
    WeightFold,
    make_state,
)
from repro.engine.expressions import evaluate_predicate
from repro.engine.kernels import CompiledPredicate, RangeTriage, ScanCounters, ScanSink
from repro.engine.operators import hash_join
from repro.engine.result import AggregateValue, GroupResult, QueryResult
from repro.planner.logical import LogicalPlan
from repro.sql.ast import AggregateFunction, Predicate, Query
from repro.storage.block import TablePartition
from repro.storage.encodings import EncodedColumn, RleBlock
from repro.storage.schema import ColumnType
from repro.storage.table import Table
from repro.storage.zonemaps import ZoneDecision

_FUNCTION_NAMES = {
    AggregateFunction.COUNT: "count",
    AggregateFunction.SUM: "sum",
    AggregateFunction.AVG: "avg",
    AggregateFunction.QUANTILE: "quantile",
    AggregateFunction.MEDIAN: "quantile",
    AggregateFunction.STDDEV: "stddev",
    AggregateFunction.VARIANCE: "variance",
}

#: Anything the executor can answer: a plan, a parsed query, or SQL text.
Plannable = Union[LogicalPlan, Query, str]

#: Compiled kernels retained per table.  Templated workloads bind fresh
#: literals per query, each a distinct canonical predicate; the LRU bounds
#: what a long-running service can accumulate (compare the probe memo).
_KERNEL_CACHE_ENTRIES = 128


@dataclass(frozen=True)
class ExecutionContext:
    """How a table should be interpreted during execution.

    Attributes
    ----------
    weights:
        Per-row inverse sampling rates aligned with the table's rows.  ``None``
        means every row has weight 1 (an unsampled table).
    exact:
        True when the table is the full base table, so every answer is exact.
    unit_weight_exact:
        True when rows with weight exactly 1.0 are known to constitute their
        entire stratum (stratified sample whose column set covers the query),
        so groups made up solely of such rows are exact (§3.1: "the answer is
        exact as the sample contains all rows from the original table").
    rows_read:
        Number of rows scanned; defaults to the table's row count.
    population_read:
        Number of original-table rows the scanned rows represent; defaults to
        the sum of weights (or ``rows_read`` when unweighted).
    sample_name:
        Identifier recorded in the result for provenance.
    scan_sink:
        Per-query scan accounting (:class:`~repro.engine.kernels.ScanSink`);
        the filter stages of this execution tee their counters and observed
        selectivity into it.  ``None`` records lifetime counters only.
    """

    weights: np.ndarray | None = None
    exact: bool = False
    unit_weight_exact: bool = False
    rows_read: int | None = None
    population_read: float | None = None
    sample_name: str | None = None
    scan_sink: ScanSink | None = None


class QueryExecutor:
    """Executes logical plans against tables, resolving dimension tables by name.

    The WHERE clause of a join-free plan runs through the zone-map +
    compiled-kernel scan path (:mod:`repro.engine.kernels`): it is lowered
    once per (table, predicate) into a cached kernel that skips provably
    non-matching blocks and returns selection vectors instead of full-width
    masks.  Only plans with joins evaluate a mask
    (:func:`~repro.engine.expressions.evaluate_predicate`) over the joined
    rows.  Lifetime scan counters are exposed via :attr:`scan_stats`.
    """

    def __init__(
        self,
        tables: Mapping[str, Table] | None = None,
        *,
        zone_block_rows: int | None = None,
    ) -> None:
        self._tables = dict(tables or {})
        self.zone_block_rows = zone_block_rows
        # Compiled kernels keyed by (source table -> canonical predicate).
        # Weak table keys fence kernels (and the zone indexes they hold) to
        # the life of the data they were compiled against; kernels hold no
        # reference back to their table, so the weak keys actually die.  The
        # per-table LRU bounds growth under templated workloads.
        self._kernels: "weakref.WeakKeyDictionary[Table, OrderedDict[Predicate, CompiledPredicate]]" = (
            weakref.WeakKeyDictionary()
        )
        self._kernel_lock = threading.Lock()
        self._scan_lock = threading.Lock()
        self._scan_totals = ScanCounters()

    def register_table(self, table: Table) -> None:
        self._tables[table.name] = table

    # -- scan acceleration ------------------------------------------------------------
    def predicate_kernel(self, predicate: Predicate, source: Table) -> CompiledPredicate:
        """The compiled kernel of ``predicate`` over ``source`` (cached, LRU)."""
        with self._kernel_lock:
            per_table = self._kernels.get(source)
            if per_table is None:
                per_table = OrderedDict()
                self._kernels[source] = per_table
            kernel = per_table.get(predicate)
            if kernel is not None:
                per_table.move_to_end(predicate)
        if kernel is None:
            zone_index = (
                source.zone_map_index(self.zone_block_rows)
                if source.num_rows > 0
                else None
            )
            kernel = CompiledPredicate(predicate, source, zone_index)
            with self._kernel_lock:
                per_table[predicate] = kernel
                per_table.move_to_end(predicate)
                while len(per_table) > _KERNEL_CACHE_ENTRIES:
                    per_table.popitem(last=False)
        return kernel

    def _accelerable(self, plan: LogicalPlan) -> bool:
        """Whether the plan's WHERE runs through a compiled kernel."""
        return plan.where is not None and not plan.joins

    def partition_triage(
        self, plan: Plannable, partitions: Sequence[TablePartition]
    ) -> list[RangeTriage] | None:
        """Zone-map verdict per partition, or ``None`` when not applicable.

        Used by the partition pipeline to complete fully-skippable
        partitions without dispatching any work.  Scan counters for the
        skipped partitions are recorded here (their blocks never reach the
        evaluation path); partially-skippable partitions are recorded when
        they are actually aggregated.
        """
        plan = LogicalPlan.of(plan)
        if not partitions or not self._accelerable(plan):
            return None
        source = partitions[0].source
        if any(p.source is not source for p in partitions):
            return None
        try:
            kernel = self.predicate_kernel(plan.where, source)
        except Exception:
            return None
        return [self._triage_partition(kernel, p) for p in partitions]

    @staticmethod
    def _triage_partition(
        kernel: CompiledPredicate, partition: TablePartition
    ) -> RangeTriage:
        """One partition's zone verdict.

        A partition whose block carries its own zone maps (a
        ``BlockSet.with_zones`` split) gets a one-shot whole-partition
        check against them first; the source table's zone-map index then
        refines partial skips for the blocks overlapping the row range.
        """
        zones = partition.block.zones
        if zones is not None and kernel.classify_block(zones) is ZoneDecision.SKIP:
            rows = partition.num_rows
            return RangeTriage(
                rows=rows, rows_skipped=rows, blocks=1, blocks_skipped=1
            )
        return kernel.triage_range(partition.block.row_start, partition.block.row_end)

    def record_skipped_scan(
        self, rows: int, blocks: int, row_width: int, sink: ScanSink | None = None
    ) -> None:
        """Account blocks proven skippable outside the evaluation path."""
        counters = ScanCounters(
            blocks_total=blocks,
            blocks_skipped=blocks,
            rows_total=rows,
            rows_skipped=rows,
            bytes_total=rows * row_width,
        )
        self._record_scan(counters)
        if sink is not None:
            sink.record_scan(counters)
            # Zone-skipped rows are provably non-matching: they count toward
            # observed selectivity the same way the estimate counts them.
            sink.record_filter(rows, 0)

    def _record_scan(self, counters: ScanCounters) -> None:
        with self._scan_lock:
            self._scan_totals.merge(counters)

    def absorb_scan(self, counters: ScanCounters) -> None:
        """Merge scan counters computed elsewhere (process-backend workers).

        Worker processes accumulate scan work in their own executors; the
        parent merges their shipped snapshots here so lifetime totals match
        what the thread path would have recorded.
        """
        self._record_scan(counters)

    @property
    def scan_stats(self) -> dict[str, int]:
        """Lifetime zone-mapped scan counters (thread-safe snapshot)."""
        with self._scan_lock:
            return self._scan_totals.as_dict()

    # -- public API -----------------------------------------------------------
    def execute(
        self,
        plan: Plannable,
        data: Table,
        context: ExecutionContext | None = None,
        confidence: float | None = None,
        num_partitions: int | None = None,
    ) -> QueryResult:
        """Execute ``plan`` against ``data`` under the given context.

        ``num_partitions`` splits the input into that many row ranges, runs
        the partial-aggregation stage per partition, and merges the states —
        the result is the same as the single-partition path (up to
        floating-point rounding of the merges).
        """
        plan = LogicalPlan.of(plan)
        context = context or ExecutionContext(exact=True)

        weights = context.weights
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != data.num_rows:
                raise ExecutionError("weights length does not match table row count")

        rows_read = context.rows_read if context.rows_read is not None else data.num_rows
        if context.population_read is not None:
            population_read = context.population_read
        elif weights is not None:
            population_read = float(np.sum(weights))
        else:
            population_read = float(rows_read)

        sink = context.scan_sink
        if num_partitions is None or num_partitions <= 1:
            partial = self.partial_aggregate(plan, data, weights, sink=sink)
        else:
            partial = None
            for partition in data.partitions(weights=weights, num_partitions=num_partitions):
                piece = self.partial_aggregate_partition(plan, partition, sink=sink)
                partial = piece if partial is None else partial.merge(piece)
            assert partial is not None

        return self.finalize(
            plan,
            partial,
            context,
            confidence,
            rows_read=rows_read,
            population_read=population_read,
        )

    # -- stage 1: per-partition partial aggregation ------------------------------------
    def partial_aggregate_partition(
        self, plan: Plannable, partition: TablePartition, sink: ScanSink | None = None
    ) -> PartialAggregation:
        """Partial-aggregate one zero-copy partition (its rows and weights)."""
        return self.partial_aggregate(
            plan, partition.table, partition.weights, origin=partition, sink=sink
        )

    def partial_aggregate(
        self,
        plan: Plannable,
        data: Table,
        weights: np.ndarray | None = None,
        origin: TablePartition | None = None,
        sink: ScanSink | None = None,
    ) -> PartialAggregation:
        """Prune -> join -> filter -> group -> fold one partition into states.

        ``origin`` identifies ``data`` as a zero-copy row-range view of a
        source table, which lets the accelerated filter consult the source's
        block zone maps; without it ``data`` is treated as its own source.
        """
        plan = LogicalPlan.of(plan)
        has_weights = weights is not None
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != data.num_rows:
                raise ExecutionError("weights length does not match table row count")

        rows_scanned = data.num_rows
        weight_scanned = float(np.sum(weights)) if weights is not None else float(rows_scanned)

        # 0. Column pruning: materialize only the columns the plan touches.
        # The pre-prune table anchors the kernel cache and zone maps — it is
        # the stable object (a sample resolution or base table), while the
        # pruned projection is rebuilt per call.
        unpruned = data
        data = self.prune(plan, data)

        # 1. Joins against dimension tables.
        working, weights = self._apply_joins(plan, data, weights)

        # 1b. Run-weighted fold: a global aggregate over RLE-encoded columns
        # can skip the gather/decode of the aggregate stage entirely.
        if not plan.group_by and not plan.joins:
            folded = self._run_fold_partial(
                plan,
                working,
                weights,
                origin=origin,
                fallback_source=unpruned,
                sink=sink,
                rows_scanned=rows_scanned,
                weight_scanned=weight_scanned,
                has_weights=has_weights,
            )
            if folded is not None:
                return folded

        # 2. WHERE: zone-mapped kernel scan when possible, mask fallback else.
        matched, matched_weights = self._filter_stage(
            plan, working, weights, origin=origin, fallback_source=unpruned, sink=sink
        )

        # 3. Group assignment (plan.group_by is already canonical).
        group_columns = list(plan.group_by)
        if group_columns:
            matched.schema.validate_columns(group_columns)
            codes, keys = matched.group_codes(group_columns)
        else:
            codes = np.zeros(matched.num_rows, dtype=np.int64)
            keys = [()]

        # Resolve every aggregate's input column once for the partition.
        columns: dict[str, np.ndarray] = {}
        for call in plan.aggregates:
            if call.function is AggregateFunction.COUNT and call.column is None:
                continue
            if call.column is None:
                raise PlanningError(f"aggregate {call.function.value} requires a column")
            if call.column.name not in columns:
                columns[call.column.name] = matched.column(call.column.name).numeric()

        if matched_weights is None:
            matched_weights = np.ones(matched.num_rows, dtype=np.float64)

        partial = PartialAggregation(
            group_columns=tuple(group_columns),
            rows_scanned=rows_scanned,
            weight_scanned=weight_scanned,
            has_weights=has_weights,
        )

        # 4. Per-group folds via a single argsort-of-codes partitioning pass
        #    (one O(n log n) sort instead of one O(n) mask per group).  Each
        #    group's weights are reduced once, whatever the number of
        #    aggregates.
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        boundaries = np.searchsorted(sorted_codes, np.arange(len(keys) + 1))
        for group_id, key in enumerate(keys):
            rows = order[boundaries[group_id]:boundaries[group_id + 1]]
            weights_fold = WeightFold(matched_weights[rows])
            group = GroupPartial(key=key, states=self._make_states(plan))
            group.observe_weights(weights_fold.moments)
            for call, state in zip(plan.aggregates, group.states):
                if call.function is AggregateFunction.COUNT and call.column is None:
                    state.fold(weights_fold, None)
                    continue
                assert call.column is not None
                values = columns[call.column.name][rows]
                state.fold(weights_fold, ColumnFold(values, weights_fold))
            partial.groups[key] = group
        return partial

    # -- stage 1b: run-weighted encoded fold ---------------------------------------------
    def _run_fold_partial(
        self,
        plan: LogicalPlan,
        working: Table,
        weights: np.ndarray | None,
        *,
        origin: TablePartition | None,
        fallback_source: Table | None,
        sink: ScanSink | None,
        rows_scanned: int,
        weight_scanned: float,
        has_weights: bool,
    ) -> PartialAggregation | None:
        """Fold a global aggregate directly over encoded columns, or ``None``.

        Applies when the plan is join-free with no GROUP BY and every
        aggregate input column is an :class:`EncodedColumn` with at least one
        RLE block among them.  Matching rows inside an RLE block collapse to
        (value, run_length, weight) triples fed to
        :meth:`~repro.engine.accumulators.AggregateState.update_runs` —
        SUM over a run is value × length × weight, so the aggregate stage
        never expands the runs.  Per-run weights must be constant within
        each run (true for samples sorted by φ); non-constant runs fall back
        to a run-value gather, still never decoding a full block.  Returns
        ``None`` whenever inapplicable so the caller uses the general path.
        """
        columns: dict[str, EncodedColumn] = {}
        any_runs = False
        for call in plan.aggregates:
            # Quantile sketches are granularity-sensitive: feeding them
            # per-block batches shifts when compression triggers, so plans
            # carrying one stay on the general path end to end.
            if call.function in (AggregateFunction.QUANTILE, AggregateFunction.MEDIAN):
                return None
            if call.function is AggregateFunction.COUNT and call.column is None:
                continue
            if call.column is None or call.column.name not in working.schema:
                return None
            name = call.column.name
            column = working.column(name)
            if not isinstance(column, EncodedColumn):
                return None
            if not (column.ctype.is_numeric or column.ctype is ColumnType.BOOL):
                return None
            columns[name] = column
            if any(isinstance(b, RleBlock) for b in column.encoding.blocks):
                any_runs = True
        if not columns or not any_runs:
            return None

        if plan.where is None:
            selection = np.arange(working.num_rows, dtype=np.int64)
            if sink is not None:
                sink.record_filter(working.num_rows, working.num_rows)
        else:
            selection = self._accelerated_selection(plan, working, origin, fallback_source, sink)

        weights_fold = WeightFold(
            weights[selection]
            if weights is not None
            else np.ones(selection.shape[0], dtype=np.float64)
        )
        group = GroupPartial(key=(), states=self._make_states(plan))
        group.observe_weights(weights_fold.moments)
        for call, state in zip(plan.aggregates, group.states):
            if call.function is AggregateFunction.COUNT and call.column is None:
                state.fold(weights_fold, None)
                continue
            assert call.column is not None
            self._fold_encoded_column(
                state, columns[call.column.name], selection, weights
            )
        partial = PartialAggregation(
            group_columns=(),
            rows_scanned=rows_scanned,
            weight_scanned=weight_scanned,
            has_weights=has_weights,
        )
        partial.groups[()] = group
        return partial

    @staticmethod
    def _fold_encoded_column(
        state: AggregateState,
        column: EncodedColumn,
        selection: np.ndarray,
        weights: np.ndarray | None,
    ) -> None:
        """Feed the selected rows of one encoded column into ``state``.

        Walks the selection block by block: RLE blocks collapse consecutive
        selected rows of the same run into one ``update_runs`` segment;
        other encodings gather just the selected values (never a whole
        block).
        """
        encoding = column.encoding
        offset = column.offset
        idx = selection + offset if offset else selection
        n = int(idx.shape[0])
        if n == 0:
            return

        runs = encoding.run_view()
        if runs is not None:
            # All-RLE column: one global searchsorted collapses the whole
            # selection into run segments — a single update_runs call
            # instead of a per-block Python walk.
            values, starts, _ = runs
            run_ids = np.searchsorted(starts, idx, side="right") - 1
            change = np.flatnonzero(run_ids[1:] != run_ids[:-1]) + 1
            seg_starts = np.concatenate(([0], change))
            lengths = np.diff(np.concatenate((seg_starts, [n])))
            run_values = values[run_ids[seg_starts]].astype(np.float64)
            if weights is None:
                state.update_runs(run_values, lengths, np.ones(seg_starts.shape[0]))
                return
            w_sel = weights[selection]
            w_min = np.minimum.reduceat(w_sel, seg_starts)
            w_max = np.maximum.reduceat(w_sel, seg_starts)
            if np.array_equal(w_min, w_max):
                state.update_runs(run_values, lengths, w_min)
            else:
                # Weights vary inside a run: expand via a run-value gather
                # (O(selected), still no block decode).
                state.update(values[run_ids].astype(np.float64), w_sel)
            return

        block_rows = encoding.block_rows
        # Mixed encodings: walk the blocks but batch the segments, so the
        # accumulator is fed once per fold rather than once per block.
        batch_runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        batch_rows: list[tuple[np.ndarray, np.ndarray | None]] = []
        pos = 0
        while pos < n:
            b = int(idx[pos]) // block_rows
            end = int(np.searchsorted(idx, (b + 1) * block_rows, side="left"))
            local = idx[pos:end] - b * block_rows
            w_seg = weights[selection[pos:end]] if weights is not None else None
            block = encoding.blocks[b]
            if isinstance(block, RleBlock):
                run_ids = np.searchsorted(block.starts, local, side="right") - 1
                change = np.flatnonzero(run_ids[1:] != run_ids[:-1]) + 1
                seg_starts = np.concatenate(([0], change))
                lengths = np.diff(np.concatenate((seg_starts, [run_ids.shape[0]])))
                run_values = block.values[run_ids[seg_starts]].astype(np.float64)
                if w_seg is None:
                    batch_runs.append(
                        (run_values, lengths, np.ones(seg_starts.shape[0]))
                    )
                else:
                    w_min = np.minimum.reduceat(w_seg, seg_starts)
                    w_max = np.maximum.reduceat(w_seg, seg_starts)
                    if np.array_equal(w_min, w_max):
                        batch_runs.append((run_values, lengths, w_min))
                    else:
                        # Weights vary inside a run: expand via a run-value
                        # gather (O(selected), still no block decode).
                        batch_rows.append(
                            (block.values[run_ids].astype(np.float64), w_seg)
                        )
            else:
                batch_rows.append((block.gather(local).astype(np.float64), w_seg))
            pos = end
        if batch_runs:
            state.update_runs(
                np.concatenate([p[0] for p in batch_runs]),
                np.concatenate([p[1] for p in batch_runs]),
                np.concatenate([p[2] for p in batch_runs]),
            )
        if batch_rows:
            values = np.concatenate([p[0] for p in batch_rows])
            if weights is None:
                w_all = np.ones(values.shape[0], dtype=np.float64)
            else:
                w_all = np.concatenate([p[1] for p in batch_rows])
            state.update(values, w_all)

    # -- stage 0: column pruning --------------------------------------------------------
    def prune(self, plan: LogicalPlan, data: Table) -> Table:
        """Project ``data`` down to the plan's referenced columns (zero-copy).

        Columns satisfied by a joined dimension table are simply absent from
        ``data``'s schema and are skipped; a plan that touches no column at
        all (``COUNT(*)`` with no filters) keeps one carrier column so the
        row count survives.
        """
        names = self._pruned_names(plan, data)
        if len(names) == len(data.schema.names):
            return data
        return data.project(names)

    @staticmethod
    def _pruned_names(plan: LogicalPlan, data: Table) -> list[str]:
        """The columns :meth:`prune` keeps, in schema order."""
        referenced = plan.referenced_columns
        names = [n for n in data.schema.names if n in referenced]
        return names or data.schema.names[:1]

    # -- stage 2: WHERE filtering --------------------------------------------------------
    def _filter_stage(
        self,
        plan: LogicalPlan,
        working: Table,
        weights: np.ndarray | None,
        origin: TablePartition | None,
        fallback_source: Table | None = None,
        sink: ScanSink | None = None,
    ) -> tuple[Table, np.ndarray | None]:
        """The rows of ``working`` matching the plan's WHERE clause.

        A join-free WHERE takes the kernel path: the predicate is compiled
        once per (source table, predicate), each zone block is triaged
        (skip / take-all / evaluate), and the rows are gathered by selection
        vector.  With joins, a mask over the joined ``working`` selects the
        same rows in the same order.
        """
        if plan.where is None:
            return working, weights
        # Columns the WHERE clause alone references are dead after this
        # stage: project them away *before* gathering matched rows so the
        # take never materialises (or decodes) values nothing will read.
        survivors = working
        needed = set(plan.group_by)
        for call in plan.aggregates:
            if call.column is not None:
                needed.add(call.column.name)
        names = [n for n in working.schema.names if n in needed]
        if len(names) < len(working.schema.names):
            # COUNT(*)-only plans keep one carrier column for the row count.
            survivors = working.project(names or working.schema.names[:1])
        if self._accelerable(plan):
            selection = self._accelerated_selection(plan, working, origin, fallback_source, sink)
            matched = survivors.take(selection)
            matched_weights = weights[selection] if weights is not None else None
            return matched, matched_weights
        mask = evaluate_predicate(plan.where, working)
        matched = survivors.filter(mask)
        if sink is not None:
            sink.record_filter(working.num_rows, matched.num_rows)
        matched_weights = weights[mask] if weights is not None else None
        return matched, matched_weights

    def count_matching(self, plan: Plannable, data: Table, record: bool = True) -> int:
        """Number of rows of ``data`` matching the plan's WHERE clause.

        The probing phase uses this instead of materializing a full-width
        mask: skip and take-all blocks contribute their row counts without
        any predicate evaluation.  A plan with joins counts its matches on
        the pruned, joined rows, as :meth:`partial_aggregate` filters them
        (its WHERE may name dimension columns).  ``record=False`` leaves the
        lifetime scan counters untouched (for callers that already accounted
        the scan).
        """
        plan = LogicalPlan.of(plan)
        if plan.where is None:
            return data.num_rows
        if self._accelerable(plan):
            return int(self._accelerated_selection(plan, data, record=record).size)
        working = data
        if plan.joins:
            working, _ = self._apply_joins(plan, self.prune(plan, data), None)
        return int(np.count_nonzero(evaluate_predicate(plan.where, working)))

    def _accelerated_selection(
        self,
        plan: LogicalPlan,
        working: Table,
        origin: TablePartition | None = None,
        fallback_source: Table | None = None,
        sink: ScanSink | None = None,
        record: bool = True,
    ) -> np.ndarray:
        """The compiled kernel's selection vector of the plan's WHERE over
        ``working``, which must map 1:1 onto a row range of its source.

        The source is ``origin``'s table and row range, else
        ``fallback_source`` (or ``working`` itself) over all its rows.  The
        scan is recorded at the width of the columns :meth:`prune` keeps —
        all of an already pruned ``working`` — so a count and an execute
        over the same rows book the same bytes: in the lifetime counters
        unless ``record`` is false, and in ``sink`` when given.
        """
        if origin is not None:
            source = origin.source
            row_start = origin.block.row_start
            row_end = origin.block.row_end
        else:
            source = fallback_source if fallback_source is not None else working
            row_start, row_end = 0, working.num_rows
        if row_end - row_start != working.num_rows:
            raise ExecutionError(
                f"partition of {working.num_rows} rows does not match its source "
                f"range [{row_start}, {row_end})"
            )
        kernel = self.predicate_kernel(plan.where, source)
        row_width = sum(working.schema.width_of(n) for n in self._pruned_names(plan, working))
        counters = ScanCounters()
        selection = kernel.select_range(
            working, row_start, row_end, counters=counters, row_width=row_width
        )
        if record:
            self._record_scan(counters)
        if sink is not None:
            sink.record_scan(counters)
            sink.record_filter(row_end - row_start, selection.size)
        return selection

    # -- stage 3: merged states -> estimates ---------------------------------------------
    def finalize(
        self,
        plan: Plannable,
        partial: PartialAggregation,
        context: ExecutionContext | None = None,
        confidence: float | None = None,
        *,
        rows_read: int | None = None,
        population_read: float | None = None,
        weight_scale: float = 1.0,
    ) -> QueryResult:
        """Turn merged partial states into a :class:`QueryResult`.

        ``weight_scale`` is the anytime coverage correction: when only a
        subset of the partitions was merged, scaling every weight by the
        inverse covered fraction keeps COUNT/SUM unbiased while the reduced
        ``rows_read``/``sample_rows`` widen the error bars.  A partially
        covered result is never marked exact.
        """
        plan = LogicalPlan.of(plan)
        context = context or ExecutionContext(exact=True)
        confidence = self._reporting_confidence(plan, confidence)
        if rows_read is None:
            rows_read = partial.rows_scanned
        if population_read is None:
            population_read = weight_scale * partial.weight_scanned

        full_coverage = weight_scale == 1.0
        groups_partial = dict(partial.groups)
        if not plan.group_by and () not in groups_partial:
            # A global aggregate always reports one group, even with no rows.
            groups_partial[()] = GroupPartial(key=(), states=self._make_states(plan))

        groups: list[GroupResult] = []
        for key, group in groups_partial.items():
            group_exact = (context.exact and full_coverage) or (
                context.unit_weight_exact
                and partial.has_weights
                and group.unit_weight(weight_scale)
            )
            aggregates: dict[str, AggregateValue] = {}
            for call, state in zip(plan.aggregates, group.states):
                estimate = state.finalize(
                    rows_read,
                    population_read,
                    exact=group_exact,
                    weight_scale=weight_scale,
                )
                name = call.output_name()
                aggregates[name] = AggregateValue(name, estimate, confidence)
            groups.append(GroupResult(key=key, aggregates=aggregates))

        groups.sort(key=lambda g: tuple(str(k) for k in g.key))
        if plan.limit is not None:
            groups = groups[: plan.limit]

        return QueryResult(
            group_by=plan.group_by,
            groups=tuple(groups),
            rows_read=rows_read,
            sample_name=context.sample_name,
        )

    # -- internals ---------------------------------------------------------------
    def _make_states(self, plan: LogicalPlan) -> list[AggregateState]:
        return [
            make_state(_FUNCTION_NAMES[call.function], call.quantile)
            for call in plan.aggregates
        ]

    def _reporting_confidence(self, plan: LogicalPlan, override: float | None) -> float:
        if override is not None:
            return override
        if plan.error_bound is not None:
            return plan.error_bound.confidence
        return 0.95

    def _apply_joins(
        self, plan: LogicalPlan, data: Table, weights: np.ndarray | None
    ) -> tuple[Table, np.ndarray | None]:
        working = data
        for join in plan.joins:
            right = self._tables.get(join.right_table)
            if right is None:
                raise PlanningError(
                    f"join references unknown dimension table {join.right_table!r}"
                )
            left_key = join.left_column.name
            right_key = join.right_column.name
            if left_key not in working.schema and right_key in working.schema:
                # The user wrote the keys in the other order; swap them.
                left_key, right_key = right_key, left_key
            right = self._prune_dimension(plan, right, right_key)
            working, left_rows = hash_join(working, right, left_key, right_key)
            if weights is not None:
                weights = weights[left_rows]
        return working, weights

    def _prune_dimension(self, plan: LogicalPlan, right: Table, right_key: str) -> Table:
        """Prune a dimension table to the join key plus referenced columns.

        A dimension column is kept when the plan references it by its own
        name or by the collision-prefixed name ``{table}_{column}`` that
        :func:`~repro.engine.operators.hash_join` assigns on name clashes.
        """
        referenced = plan.referenced_columns
        names = [
            n
            for n in right.schema.names
            if n == right_key or n in referenced or f"{right.name}_{n}" in referenced
        ]
        if len(names) == len(right.schema.names):
            return right
        return right.project(names)


def execute_exact(
    plan: Plannable,
    table: Table,
    dimension_tables: Mapping[str, Table] | None = None,
) -> QueryResult:
    """Execute a plan exactly against the full base table."""
    executor = QueryExecutor(dimension_tables)
    return executor.execute(plan, table, ExecutionContext(exact=True, sample_name=None))
