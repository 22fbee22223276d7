"""An online-aggregation (OLA) style baseline.

Online aggregation (Hellerstein et al. [20] and the MapReduce ports [15, 24])
streams the input in *random order*, continuously refining the estimate and
its confidence interval until the user stops the query or a target error is
reached.  Compared with BlinkDB it has two structural disadvantages the paper
calls out (§1, §7):

* the data must be read in random order, which defeats sequential disk
  bandwidth and any clustering of the input — modelled here by a
  random-I/O throughput penalty relative to a sequential scan, and
* nothing is precomputed, so rare subgroups converge as slowly as they would
  under uniform sampling (there is no stratification to lean on).

The baseline answers two questions used in Fig. 7(c)-style comparisons: what
error is reached after scanning N rows, and how many rows (and therefore how
much simulated time) are needed to reach a target error.

True to OLA's streaming nature, each estimate is maintained *incrementally*:
a per-query stream folds newly arrived rows into mergeable accumulator
states (:mod:`repro.engine.accumulators`), so asking for a longer prefix
extends the previous state instead of re-executing the query from scratch —
a full convergence curve over ``n`` rows costs O(n) instead of O(n²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.cost_model import CostModel
from repro.common.config import ClusterConfig
from repro.common.rng import make_rng
from repro.engine.accumulators import PartialAggregation
from repro.engine.executor import ExecutionContext, Plannable, QueryExecutor
from repro.engine.result import QueryResult
from repro.planner.logical import LogicalPlan
from repro.storage.block import Block, TablePartition
from repro.storage.table import Table

#: Random-order reads achieve a fraction of sequential disk bandwidth; OLA
#: implementations mitigate but do not remove this (the paper's motivation
#: for precomputed, clustered samples).
RANDOM_IO_PENALTY = 0.25


@dataclass(frozen=True)
class OnlineAggregationStep:
    """Estimate quality after scanning a prefix of the randomised input."""

    rows_scanned: int
    worst_relative_error: float
    result: QueryResult


@dataclass
class _QueryStream:
    """The incremental state of one plan over the randomised row stream."""

    plan: LogicalPlan
    partial: PartialAggregation | None = None
    rows_consumed: int = 0


class OnlineAggregationBaseline:
    """Simulates OLA over a table at laptop scale with a priced latency model."""

    #: Streams kept alive per baseline instance (one per distinct query).
    _MAX_STREAMS = 16

    def __init__(
        self,
        table: Table,
        cluster: ClusterConfig | None = None,
        simulated_rows: int | None = None,
        seed: int = 29,
        cached_fraction: float = 0.0,
    ) -> None:
        self.table = table
        self.cluster = cluster or ClusterConfig()
        self.cost_model = CostModel(self.cluster)
        self.simulated_rows = simulated_rows or table.num_rows
        self.cached_fraction = cached_fraction
        self._executor = QueryExecutor()
        rng = make_rng(seed)
        self._order = rng.permutation(table.num_rows)
        self._randomized: Table | None = None
        self._streams: dict[str, _QueryStream] = {}

    # -- estimate quality -----------------------------------------------------------
    def step(self, query: Plannable, rows_scanned: int) -> OnlineAggregationStep:
        """The estimate after the first ``rows_scanned`` rows of the random order.

        Growing prefixes extend the plan's accumulator stream with only the
        newly arrived rows; asking for a shorter prefix than already consumed
        restarts the stream (OLA cannot un-see rows).
        """
        plan = LogicalPlan.of(query)
        rows_scanned = int(min(max(1, rows_scanned), self.table.num_rows))

        stream = self._stream_for(plan)
        if stream.partial is None or rows_scanned < stream.rows_consumed:
            stream.partial = None
            stream.rows_consumed = 0
        if rows_scanned > stream.rows_consumed:
            # A row-range view of the one randomized table: the executor's
            # zone maps and kernel are built for that table once, not per chunk.
            chunk = TablePartition(
                source=self._randomized_table(),
                block=Block(
                    dataset=self.table.name,
                    index=0,
                    row_start=stream.rows_consumed,
                    row_end=rows_scanned,
                    size_bytes=rows_scanned - stream.rows_consumed,
                ),
            )
            piece = self._executor.partial_aggregate_partition(plan, chunk)
            stream.partial = (
                piece if stream.partial is None else stream.partial.merge(piece)
            )
            stream.rows_consumed = rows_scanned

        assert stream.partial is not None
        population = float(self.table.num_rows)
        context = ExecutionContext(
            exact=False,
            sample_name=f"{self.table.name}/ola/{rows_scanned}",
        )
        result = self._executor.finalize(
            plan,
            stream.partial,
            context,
            rows_read=rows_scanned,
            population_read=population,
            # Every scanned row stands for N/n rows of the stream's remainder.
            weight_scale=population / rows_scanned,
        )
        return OnlineAggregationStep(
            rows_scanned=rows_scanned,
            worst_relative_error=_worst_error(result),
            result=result,
        )

    def _stream_for(self, plan: LogicalPlan) -> _QueryStream:
        # Keyed by the logical-plan fingerprint: equivalent query texts
        # (whitespace, predicate order, GROUP BY order) share one stream.
        key = plan.fingerprint()
        stream = self._streams.get(key)
        if stream is None:
            if len(self._streams) >= self._MAX_STREAMS:
                self._streams.pop(next(iter(self._streams)))
            stream = _QueryStream(plan=plan)
            self._streams[key] = stream
        return stream

    def _randomized_table(self) -> Table:
        """The table in stream order (materialised once per baseline)."""
        if self._randomized is None:
            self._randomized = self.table.take(self._order)
        return self._randomized

    def rows_to_reach_error(
        self, query: Plannable, target_relative_error: float, grid_points: int = 18
    ) -> int | None:
        """Rows of random-order input needed to reach the target error."""
        budgets = np.unique(
            np.geomspace(200, self.table.num_rows, num=grid_points).astype(int)
        )
        for budget in budgets:
            step = self.step(query, int(budget))
            if step.worst_relative_error <= target_relative_error:
                return int(budget)
        return None

    # -- latency pricing -----------------------------------------------------------------
    def latency_for_rows(self, rows_scanned: int, output_groups: int = 1) -> float:
        """Simulated latency of a random-order scan of ``rows_scanned`` rows.

        Rows are converted to the simulated scale, and the disk bandwidth is
        de-rated by :data:`RANDOM_IO_PENALTY` to reflect the random access
        order OLA requires.
        """
        if self.table.num_rows == 0:
            return 0.0
        scale = self.simulated_rows / self.table.num_rows
        bytes_scanned = int(rows_scanned * scale * self.table.row_width_bytes)
        # Only the disk-resident share pays the random-I/O penalty; the cached
        # share is charged at memory bandwidth.  The cost model splits its
        # input by `cached_fraction` again, so express the penalty by
        # inflating the disk share of the bytes and re-deriving the cached
        # fraction of the *inflated* total — applying the discount exactly
        # once.
        cached_bytes = bytes_scanned * self.cached_fraction
        disk_bytes = bytes_scanned - cached_bytes
        effective_bytes = int(disk_bytes / RANDOM_IO_PENALTY + cached_bytes)
        effective_cached_fraction = (
            cached_bytes / effective_bytes if effective_bytes > 0 else 0.0
        )
        estimate = self.cost_model.estimate(
            bytes_scanned=effective_bytes,
            cached_fraction=effective_cached_fraction,
            output_groups=output_groups,
        )
        return estimate.total_seconds

    def time_to_reach_error(
        self, query: Plannable, target_relative_error: float
    ) -> float | None:
        """Simulated seconds OLA needs to reach the target error (None if never)."""
        plan = LogicalPlan.of(query)
        rows = self.rows_to_reach_error(plan, target_relative_error)
        if rows is None:
            return None
        step = self.step(plan, rows)
        return self.latency_for_rows(rows, output_groups=max(1, len(step.result.groups)))


def _worst_error(result: QueryResult) -> float:
    errors = [
        aggregate.relative_error
        for group in result.groups
        for aggregate in group.aggregates.values()
    ]
    if not errors:
        return math.inf
    finite = [e for e in errors if math.isfinite(e)]
    if len(finite) == len(errors):
        return max(errors)
    return math.inf
