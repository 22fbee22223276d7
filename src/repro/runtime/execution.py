"""The end-to-end BlinkDB runtime (paper §4): plan, then dispatch.

:class:`BlinkDBRuntime` receives a BlinkQL query (raw text, parsed AST, or
an already-normalized :class:`~repro.planner.logical.LogicalPlan`) and
answers it on one path, :meth:`BlinkDBRuntime._run`.  The three entry
points differ only in which :class:`~repro.planner.planner.QueryPlanner`
call binds the :class:`~repro.planner.physical.PhysicalPlan`:
:meth:`~BlinkDBRuntime.execute` (``plan``), :meth:`~BlinkDBRuntime.
execute_partitioned` (``plan_partitioned``, explicit partition layout) and
:meth:`~BlinkDBRuntime.execute_exact` (``plan_exact``).  ``_run`` opens the
trace and scan sink, stamps the table generation, plans under the ``plan``
span, counts the query and enforces ``strict_bounds``, then dispatches on
the plan's shape:

* ``EXACT`` plans scan the full base table (the no-sampling baseline);
* ``DISJUNCTIVE`` plans run one sub-plan per disjoint OR branch and combine
  the partial answers with propagated uncertainty (§4.1.2);
* a plan with a partition layout runs through the partition pipeline
  (anytime deadline cuts, progressive snapshots);
* any other plan runs serially on its chosen sample resolution.

Single-family answers carry one :class:`RuntimeDecision` (with the ELP's
predictions for the chosen resolution); every answer is observed into the
metrics and the accuracy ledger after the trace is finished.

All decision logic — family selection (§4.1), Error-Latency-Profile
resolution sizing (§4.2), anytime partition layout, column pruning — lives
in the planner; the runtime only executes plans and attaches simulated
cluster latencies (§4.4).  :meth:`BlinkDBRuntime.explain` returns the
PhysicalPlan without executing it (the ``EXPLAIN`` statement).

Thread safety
-------------
:meth:`BlinkDBRuntime.execute` is reentrant: every per-query decision lives
in the plan and the per-call :class:`~repro.engine.executor.ExecutionContext`
— the planner, selector, sizer, and executor are stateless after
construction apart from the probe memo (internally locked), and the
catalog/simulator are only read.  The service layer (:mod:`repro.service`)
therefore shares one runtime across its whole worker pool; the only other
synchronised state here is the lifetime statistics counter.  Mutations of
the catalog (sample rebuilds) are serialised against queries by the facade's
read/write state lock, not by the runtime — the facade discards the runtime
(and with it the probe memo) whenever samples or data change.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from repro.common.clock import monotonic
from repro.common.config import BlinkDBConfig
from repro.common.errors import ConstraintUnsatisfiableError
from repro.cluster.simulator import ClusterSimulator
from repro.engine.executor import ExecutionContext, Plannable, QueryExecutor
from repro.engine.kernels import ScanSink
from repro.engine.result import AggregateValue, GroupResult, QueryResult
from repro.estimation.propagation import combine_sum
from repro.obs.ledger import template_label_of
from repro.obs.observability import Observability
from repro.obs.trace import AnySpan, AnyTrace
from repro.planner.logical import LogicalPlan
from repro.planner.physical import BranchPlan, PhysicalPlan, PlanMode
from repro.planner.planner import QueryPlanner
from repro.runtime.partitioned import Offload, PartitionPipeline, ProgressCallback
from repro.runtime.procpool import ProcessPartitionPool
from repro.runtime.sizing import ErrorLatencyProfile
from repro.storage.catalog import Catalog
from repro.storage.table import Table

#: A plan bound to one sample resolution: a single-family physical plan or
#: one branch of a disjunctive plan (both carry logical, selection, probe
#: and resolution).
Bound = PhysicalPlan | BranchPlan


@dataclass(frozen=True)
class RuntimeDecision:
    """Everything the runtime decided while answering one query."""

    family_key: tuple[str, ...] | None
    family_reason: str
    resolution_name: str
    resolution_rows: int
    bound_satisfied: bool
    predicted_relative_error: float | None = None
    predicted_latency_seconds: float | None = None
    profile: ErrorLatencyProfile | None = field(default=None, compare=False)
    probed_families: tuple[str, ...] = ()
    branches: int = 1
    #: Partition-pipeline provenance: how many partitions executed, whether
    #: the answer is an anytime (deadline-cut) answer, and what fraction of
    #: the sample's represented population the merged partitions cover.
    partitions: int = 1
    anytime: bool = False
    coverage_fraction: float = 1.0
    #: The physical plan the answer was computed from (EXPLAIN provenance).
    plan: PhysicalPlan | None = field(default=None, compare=False)


class BlinkDBRuntime:
    """Answers BlinkQL queries from the samples registered in a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        config: BlinkDBConfig | None = None,
        simulator: ClusterSimulator | None = None,
        dimension_tables: Mapping[str, Table] | None = None,
        observability: Observability | None = None,
        procpool: ProcessPartitionPool | None = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or BlinkDBConfig()
        self.simulator = simulator
        # Shared with the facade/service when passed in, so traces, metrics,
        # and the accuracy ledger survive runtime rebuilds (sample refreshes).
        self.obs = observability or Observability(self.config)
        self.executor = QueryExecutor(
            dimension_tables,
            zone_block_rows=self.config.zone_block_rows,
        )
        self.planner = QueryPlanner(
            catalog, self.executor, config=self.config, simulator=simulator
        )
        # Shared with the planner: the selector (probe memo) and sizer are
        # planner-owned; the runtime exposes them for tests and tooling.
        self.selector = self.planner.selector
        self.sizer = self.planner.sizer
        self.pipeline = PartitionPipeline(
            self.executor,
            straggler_spread=self.config.straggler_spread,
            seed=self.config.seed,
        )
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # Facade-owned process pool (shared across runtime rebuilds); this
        # runtime's shm exports live under its own epoch, released on close()
        # — the facade closes the runtime on every append/load/build, which
        # is exactly the generation fence the segments need.
        self._procpool = procpool
        self._procpool_epoch = procpool.new_epoch() if procpool is not None else None
        self._stats_lock = threading.Lock()
        self._queries_executed = 0
        self._exact_queries_executed = 0
        self._disjunctive_queries_executed = 0
        self._anytime_queries_executed = 0

    # -- public API -------------------------------------------------------------------
    def explain(self, query: Plannable) -> PhysicalPlan:
        """Plan a query without executing it (the ``EXPLAIN`` statement)."""
        logical = LogicalPlan.of(query)
        return self.planner.plan(logical)

    def execute(
        self,
        query: Plannable,
        progress: ProgressCallback | None = None,
        *,
        trace: AnyTrace | None = None,
        scan_sink: ScanSink | None = None,
        wall_timeout_seconds: float | None = None,
    ) -> QueryResult:
        """Answer a query approximately, honouring its error/time bound.

        ``progress`` — when given — routes the execution through the
        partition pipeline and receives one
        :class:`~repro.runtime.partitioned.ProgressiveSnapshot` per partition
        merge (disjunctive queries fall back to a single final snapshot-less
        answer).

        ``trace`` lets a caller (the service layer, EXPLAIN ANALYZE) supply a
        pre-opened :class:`~repro.obs.trace.QueryTrace` — e.g. one that
        already carries an admission-wait span; when omitted the runtime's
        tracer decides sampling.  ``scan_sink`` similarly overrides the
        per-query scan-actuals accumulator.  A sampled trace is attached to
        ``result.metadata["trace"]`` and the sink (when present) to
        ``result.metadata["scan_actuals"]``.

        ``wall_timeout_seconds`` bounds the *wall-clock* time the process
        backend may spend on this query (the service layer passes the
        query's admission deadline here), so a hung worker cannot hold a
        ``WITHIN``-bounded query past its bound; the thread path is
        unaffected.
        """
        return self._run(
            query,
            lambda logical, span: self.planner.plan(
                logical, progressive=progress is not None, span=span
            ),
            trace=trace,
            scan_sink=scan_sink,
            progress=progress,
            wall_timeout_seconds=wall_timeout_seconds,
        )

    def execute_partitioned(
        self,
        query: Plannable,
        *,
        num_partitions: int | None = None,
        sim_workers: int | None = None,
        reference_workers: int | None = None,
        deadline_seconds: float | None = None,
        progress: ProgressCallback | None = None,
        trace: AnyTrace | None = None,
        scan_sink: ScanSink | None = None,
    ) -> QueryResult:
        """Answer a query through the partition pipeline with explicit knobs.

        ``sim_workers`` is the number of per-query task slots the simulated
        cluster grants the query; ``reference_workers`` calibrates which slot
        count corresponds to the cluster simulator's full-scan latency
        (defaults to ``sim_workers``).  Used by benchmarks to measure
        partition-parallel speedup and anytime error/deadline trade-offs.
        """
        return self._run(
            query,
            lambda logical, span: self.planner.plan_partitioned(
                logical,
                num_partitions=num_partitions,
                sim_workers=sim_workers,
                reference_workers=reference_workers,
                deadline_seconds=deadline_seconds,
                span=span,
            ),
            trace=trace,
            scan_sink=scan_sink,
            progress=progress,
        )

    def execute_exact(
        self,
        query: Plannable,
        *,
        trace: AnyTrace | None = None,
        scan_sink: ScanSink | None = None,
    ) -> QueryResult:
        """Answer a query exactly from the base table (the no-sampling baseline)."""
        return self._run(
            query,
            lambda logical, span: self.planner.plan_exact(logical),
            trace=trace,
            scan_sink=scan_sink,
        )

    def _run(
        self,
        query: Plannable,
        bind: Callable[[LogicalPlan, AnySpan], PhysicalPlan],
        *,
        trace: AnyTrace | None,
        scan_sink: ScanSink | None,
        progress: ProgressCallback | None = None,
        wall_timeout_seconds: float | None = None,
    ) -> QueryResult:
        """The one traced execute path: bind a plan, dispatch it by shape, observe."""
        logical = LogicalPlan.of(query)
        if trace is None:
            trace = self.obs.tracer.begin(table=logical.table)
        sink = scan_sink if scan_sink is not None else (
            ScanSink() if trace.sampled else None
        )
        started = monotonic()
        try:
            # Captured before planning/execution; the caller's read lock keeps
            # it consistent with every row read below, so the stamped answer
            # is a single-generation answer by construction.
            generation = self.catalog.generation(logical.table)
            with trace.span("plan") as plan_span:
                plan = bind(logical, plan_span)
            self._count_and_check(plan)
            if plan.mode is PlanMode.EXACT:
                result = self._run_exact(plan, trace, sink)
            elif plan.mode is PlanMode.DISJUNCTIVE:
                result = self._execute_disjunctive(plan, trace, sink)
            elif plan.partitioning is not None:
                result = self._run_pipeline(
                    plan, progress, trace, sink, wall_timeout_seconds
                )
            else:
                result = self._run_serial(plan, trace, sink)
            result.metadata["plan"] = plan
            result.metadata["generation"] = generation
        finally:
            trace.finish()
        self._observe(plan, result, trace, sink, monotonic() - started)
        return result

    def _count_and_check(self, plan: PhysicalPlan) -> None:
        """Count a planned query by its shape, then enforce ``strict_bounds``."""
        with self._stats_lock:
            if plan.mode is PlanMode.EXACT:
                self._exact_queries_executed += 1
            else:
                self._queries_executed += 1
                if plan.mode is PlanMode.DISJUNCTIVE:
                    self._disjunctive_queries_executed += 1
        if plan.bound_satisfied or not self.config.strict_bounds:
            return
        if plan.mode is PlanMode.DISJUNCTIVE:
            raise ConstraintUnsatisfiableError(
                "one or more disjunctive branches cannot satisfy the requested bound"
            )
        logical = plan.logical
        raise ConstraintUnsatisfiableError(
            f"no resolution of family {plan.family_key} satisfies the "
            f"requested bound for query: {logical.raw_sql or logical.describe()}"
        )

    def _observe(
        self,
        plan: PhysicalPlan,
        result: QueryResult,
        trace: AnyTrace,
        sink: ScanSink | None,
        measured_seconds: float,
    ) -> None:
        """Attach trace/scan actuals and feed the unified metrics + ledger."""
        if trace.sampled:
            result.metadata["trace"] = trace
        if sink is not None:
            result.metadata["scan_actuals"] = sink
        decision = result.metadata.get("decision")
        predicted_latency = (
            decision.predicted_latency_seconds if decision is not None else None
        )
        predicted_error = (
            decision.predicted_relative_error if decision is not None else None
        )
        realized = result.max_relative_error()
        if realized is not None and not math.isfinite(realized):
            realized = None
        self.obs.observe_query(
            template_label_of(plan.logical),
            mode=plan.mode.value,
            predicted_latency_s=predicted_latency,
            actual_latency_s=result.simulated_latency_seconds,
            predicted_relative_error=predicted_error,
            realized_relative_error=realized,
            measured_seconds=measured_seconds,
        )

    @property
    def stats(self) -> dict[str, int]:
        """Lifetime execution counters (thread-safe snapshot).

        Includes the zone-mapped scan counters (``blocks_total`` /
        ``blocks_skipped`` / ``bytes_scanned`` …) accumulated by the
        executor's accelerated filter path.
        """
        with self._stats_lock:
            counters = {
                "queries_executed": self._queries_executed,
                "exact_queries_executed": self._exact_queries_executed,
                "disjunctive_queries_executed": self._disjunctive_queries_executed,
                "anytime_queries_executed": self._anytime_queries_executed,
            }
        counters.update(self.selector.probe_cache_stats)
        counters.update(self.executor.scan_stats)
        return counters

    # -- internals: dispatch by plan shape ---------------------------------------------
    def _run_exact(
        self, plan: PhysicalPlan, trace: AnyTrace, sink: ScanSink | None
    ) -> QueryResult:
        """Scan the full base table (``EXACT`` plans)."""
        table = self.catalog.table(plan.logical.table)
        context = ExecutionContext(exact=True, sample_name=None, scan_sink=sink)
        with trace.span("dispatch", mode="exact", table=table.name) as dispatch:
            result = self.executor.execute(plan.logical, table, context)
            if self.simulator is not None and self.simulator.has_dataset(table.name):
                with dispatch.span("estimate"):
                    execution = self.simulator.simulate_scan(
                        table.name, output_groups=max(1, len(result.groups))
                    )
                    result = replace(
                        result, simulated_latency_seconds=execution.latency_seconds
                    )
        return result

    def _run_serial(
        self, plan: PhysicalPlan, trace: AnyTrace, sink: ScanSink | None
    ) -> QueryResult:
        """Run a single-family plan on its resolution in one pass."""
        assert plan.resolution is not None
        with trace.span("dispatch", mode="serial", sample=plan.resolution.name) as dispatch:
            result = self._run_on_resolution(plan, sink)
            with dispatch.span("estimate"):
                result = self._attach_latency(result, plan)
        result.metadata["decision"] = self._decision(plan)
        return result

    def _run_pipeline(
        self,
        plan: PhysicalPlan,
        progress: ProgressCallback | None,
        trace: AnyTrace,
        sink: ScanSink | None,
        wall_timeout_seconds: float | None,
    ) -> QueryResult:
        """Run a single-family plan's partition layout through the pipeline."""
        spec = plan.partitioning
        resolution = plan.resolution
        assert spec is not None and resolution is not None
        with trace.span(
            "partition-dispatch",
            partitions=spec.num_partitions,
            sample=resolution.name,
        ) as dispatch:
            result = self.pipeline.run(
                plan.logical,
                resolution.table,
                self._context(plan, sink),
                num_partitions=spec.num_partitions,
                sim_workers=spec.sim_workers,
                reference_workers=spec.reference_workers,
                scan_latency_seconds=spec.scan_latency_seconds,
                task_overhead_seconds=spec.task_overhead_seconds,
                deadline_seconds=spec.deadline_seconds,
                pool=self._partition_pool(),
                offload=self._offload(plan, wall_timeout_seconds),
                progress=progress,
                trace_span=dispatch,
            )
        stats = result.metadata["partitions"]
        decision = self._decision(
            plan,
            partitions=stats.num_partitions,
            coverage=stats.coverage_population_fraction,
        )
        if decision.anytime:
            with self._stats_lock:
                self._anytime_queries_executed += 1
        result.metadata["decision"] = decision
        return result

    @staticmethod
    def _decision(
        plan: PhysicalPlan, *, partitions: int = 1, coverage: float = 1.0
    ) -> RuntimeDecision:
        """The decision record of a single-family plan.

        ``anytime`` marks only answers that are *actually* partial: a
        deadline the schedule happened to fit completely is a full answer.
        """
        assert plan.selection is not None and plan.resolution is not None
        predicted_error = predicted_latency = None
        if plan.profile is not None:
            entry = plan.profile.entry_for(plan.resolution)
            predicted_error = entry.predicted_relative_error
            predicted_latency = entry.predicted_latency_seconds
        return RuntimeDecision(
            family_key=plan.family_key,
            family_reason=plan.selection.reason,
            resolution_name=plan.resolution.name,
            resolution_rows=plan.resolution.num_rows,
            bound_satisfied=plan.bound_satisfied,
            predicted_relative_error=predicted_error,
            predicted_latency_seconds=predicted_latency,
            profile=plan.profile,
            probed_families=plan.probed_resolutions,
            partitions=partitions,
            anytime=plan.anytime and coverage < 1.0,
            coverage_fraction=coverage,
            plan=plan,
        )

    @staticmethod
    def _context(bound: Bound, sink: ScanSink | None) -> ExecutionContext:
        """How the executor reads a bound plan's sample resolution."""
        resolution = bound.resolution
        return ExecutionContext(
            weights=resolution.weights,
            exact=False,
            unit_weight_exact=bound.selection.covers_query,
            rows_read=resolution.num_rows,
            population_read=resolution.represented_rows,
            sample_name=resolution.name,
            scan_sink=sink,
        )

    def _run_on_resolution(self, bound: Bound, sink: ScanSink | None) -> QueryResult:
        return self.executor.execute(
            bound.logical, bound.resolution.table, self._context(bound, sink)
        )

    def _offload(
        self, plan: PhysicalPlan, wall_timeout_seconds: float | None
    ) -> Offload | None:
        """The process pool's partition stage bound to ``plan``'s resolution.

        ``None`` when the facade owns no pool (it creates one only for
        ``execution_backend="processes"``).  Whether a query may actually
        use the workers is decided per call by ``map_partitions``, which
        names its reason whenever it declines.  ``wall_timeout_seconds``
        becomes the call's wall-clock deadline, so a hung worker cannot hold
        a ``WITHIN``-bounded query past its bound.
        """
        if self._procpool is None:
            return None
        resolution = plan.resolution
        assert resolution is not None
        deadline = None
        if wall_timeout_seconds is not None:
            deadline = monotonic() + wall_timeout_seconds
        return functools.partial(
            self._procpool.map_partitions,
            epoch=self._procpool_epoch,
            key=f"{plan.logical.table}:{resolution.name}",
            table=resolution.table,
            weights=resolution.weights,
            executor=self.executor,
            deadline=deadline,
        )

    def _partition_pool(self) -> ThreadPoolExecutor | None:
        """The shared partial-aggregation pool (None when configured inline)."""
        if self.config.partition_workers <= 1:
            return None
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.config.partition_workers,
                        thread_name_prefix="blinkdb-partition",
                    )
        return self._pool

    def close(self) -> None:
        """Shut down the partial-aggregation pool (idempotent).

        The facade calls this whenever it discards a runtime (sample
        rebuilds, data reloads) so partition worker threads never outlive
        the runtime that started them.  The process pool itself is
        facade-owned and survives; only this runtime's epoch of shm exports
        is released — that is the generation fence that keeps appends and
        ``load_table`` from leaking segments.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)
        procpool, epoch = self._procpool, self._procpool_epoch
        if procpool is not None and epoch is not None:
            procpool.release_epoch(epoch)

    def _attach_latency(self, result: QueryResult, bound: Bound) -> QueryResult:
        resolution = bound.resolution
        if self.simulator is None or not self.simulator.has_dataset(resolution.name):
            return result
        rows_to_read, reuse_rows = self.planner.scan_parameters(
            bound.selection, resolution, bound.probe, bound.logical
        )
        execution = self.simulator.simulate_scan(
            resolution.name,
            rows_to_read=rows_to_read,
            output_groups=max(1, len(result.groups)),
            reuse_rows=reuse_rows,
        )
        return replace(result, simulated_latency_seconds=execution.latency_seconds)

    # -- internals: disjunctive path (§4.1.2) --------------------------------------------------
    def _execute_disjunctive(
        self, plan: PhysicalPlan, trace: AnyTrace, sink: ScanSink | None
    ) -> QueryResult:
        branch_results: list[QueryResult] = []
        total_rows_read = 0
        total_latency = 0.0
        any_latency = False

        for index, branch_plan in enumerate(plan.branch_plans):
            with trace.span(
                "branch", index=index, sample=branch_plan.resolution.name
            ):
                result = self._run_on_resolution(branch_plan, sink)
                result = self._attach_latency(result, branch_plan)
            branch_results.append(result)
            total_rows_read += result.rows_read
            if result.simulated_latency_seconds is not None:
                any_latency = True
                # Branches execute in parallel on the cluster; the slowest
                # branch dominates.
                total_latency = max(total_latency, result.simulated_latency_seconds)

        logical = plan.logical
        confidence = (
            logical.error_bound.confidence if logical.error_bound is not None else 0.95
        )
        aggregates: dict[str, AggregateValue] = {}
        for call in logical.aggregates:
            name = call.output_name()
            estimates = [r.groups[0].aggregates[name].estimate for r in branch_results if r.groups]
            combined = combine_sum(estimates)
            aggregates[name] = AggregateValue(name, combined, confidence)
        group = GroupResult(key=(), aggregates=aggregates)
        result = QueryResult(
            group_by=(),
            groups=(group,),
            rows_read=total_rows_read,
            sample_name="union",
            simulated_latency_seconds=total_latency if any_latency else None,
        )
        result.metadata["decision"] = RuntimeDecision(
            family_key=None,
            family_reason="disjunctive-union",
            resolution_name="union",
            resolution_rows=total_rows_read,
            bound_satisfied=plan.bound_satisfied,
            branches=len(plan.branch_plans),
            plan=plan,
        )
        return result
