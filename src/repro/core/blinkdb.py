"""The BlinkDB facade: load → register workload → build samples → query.

Example
-------
>>> from repro import BlinkDB
>>> from repro.workloads.conviva import generate_sessions_table
>>> db = BlinkDB()
>>> sessions = generate_sessions_table(num_rows=50_000, seed=7)
>>> db.load_table(sessions, simulated_rows=5_000_000)
>>> db.register_workload([
...     "SELECT COUNT(*) FROM sessions WHERE city = 'city_0003' GROUP BY os",
... ])
>>> plan = db.build_samples(storage_budget_fraction=0.5)
>>> result = db.query(
...     "SELECT COUNT(*) FROM sessions WHERE city = 'city_0003' "
...     "GROUP BY os ERROR WITHIN 10% AT CONFIDENCE 95%"
... )
>>> for group in result:            # doctest: +SKIP
...     print(group.key, group.aggregates)
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Sequence

from repro.common.clock import monotonic
from repro.common.concurrency import ReadWriteLock
from repro.common.config import BlinkDBConfig
from repro.common.errors import CatalogError, PlanningError
from repro.cluster.simulator import ClusterSimulator
from repro.engine.kernels import ScanSink
from repro.engine.result import QueryResult
from repro import faults
from repro.ingest.batch import batch_num_rows, columns_from_rows
from repro.ingest.ingestion import TableIngest
from repro.obs.analyze import AnalyzeResult, analyze_text
from repro.obs.ledger import template_label_of
from repro.obs.observability import Observability
from repro.optimizer.planner import SamplePlan, SampleSelectionPlanner
from repro.planner.logical import LogicalPlan
from repro.planner.physical import ExplainResult, PhysicalPlan
from repro.runtime.execution import BlinkDBRuntime
from repro.runtime.procpool import ProcessPartitionPool
from repro.sampling.builder import BuildReport, SampleBuilder
from repro.sampling.maintenance import MaintenanceAction, SampleMaintenance
from repro.sql.ast import ExplainQuery, Query
from repro.sql.parser import parse_query, parse_statement
from repro.sql.templates import QueryTemplate, extract_template, normalize_weights, templates_from_trace
from repro.storage.catalog import Catalog
from repro.storage.encodings import encode_table
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - service imports are lazy at runtime
    from repro.ingest.controller import IngestController
    from repro.ingest.ingestion import AppendReport
    from repro.service.server import QueryService
    from repro.service.session import ClientSession, SessionDefaults


class BlinkDB:
    """A sampling-based approximate query engine with bounded errors/latencies.

    Parameters
    ----------
    config:
        Sampling, cluster, and runtime configuration.  The defaults give a
        laptop-scale setup with a simulated 100-node cluster.
    """

    def __init__(self, config: BlinkDBConfig | None = None) -> None:
        self.config = config or BlinkDBConfig()
        if self.config.fault_plan:
            # Scriptable chaos: install the configured fault plan process-
            # globally so every instrumented layer consults it.  Disabled
            # (the default) costs each layer one module-global None check.
            faults.install(
                faults.FaultPlan.parse(self.config.fault_plan, seed=self.config.fault_seed)
            )
        self.catalog = Catalog()
        self.simulator = ClusterSimulator(self.config.cluster)
        #: Shared observability spine — tracer, metrics registry, accuracy
        #: ledger.  Owned by the facade (not the runtime) so traces, metric
        #: series, and the ledger's calibration history survive runtime
        #: invalidations (sample rebuilds, data reloads).
        self.obs = Observability(self.config)
        #: Facade-owned process-parallel worker pool (lazy; only when
        #: ``execution_backend="processes"``).  One pool outlives every
        #: runtime rebuild: runtimes rent shm-export *epochs* from it, and
        #: sample builds + ingest maintenance fan out on the same workers.
        self._procpool: ProcessPartitionPool | None = None
        self._procpool_lock = threading.Lock()
        self._closed = False
        self._builder = SampleBuilder(
            catalog=self.catalog,
            config=self.config.sampling,
            simulator=self.simulator,
            scale_factor=1.0,
            cluster_config=self.config.cluster,
            procpool_provider=self._partition_procpool,
        )
        self._dimension_tables: dict[str, Table] = {}
        self._templates: dict[str, list[QueryTemplate]] = {}
        self._plans: dict[str, SamplePlan] = {}
        # Per-table streaming-ingest state (created lazily on first append);
        # mutated only under the exclusive state lock.
        self._ingest_states: dict[str, TableIngest] = {}
        self._runtime: BlinkDBRuntime | None = None
        self._runtime_lock = threading.Lock()
        #: Readers (queries) share this lock; sample builds/re-plans hold it
        #: exclusively.  The service layer's workers take the read side.
        self.state_lock = ReadWriteLock()
        self._data_version = 0
        self._services: list["QueryService"] = []
        self._services_lock = threading.Lock()
        self._default_service: "QueryService" | None = None
        # Serialises default-service creation in connect(); separate from
        # _services_lock because serve() re-enters the latter via attach.
        self._connect_lock = threading.Lock()
        #: Network front doors started via serve_network(); closed with the
        #: facade (socket first, then their owned services).
        self._network_servers: list[object] = []

    # -- data loading ------------------------------------------------------------------
    def load_table(
        self,
        table: Table,
        simulated_rows: int | None = None,
        cache: bool | float = False,
    ) -> None:
        """Register a fact table.

        ``simulated_rows`` declares how many rows the table stands in for at
        the simulated cluster scale (e.g. an in-memory table of 10⁶ rows may
        represent the paper's 5.5 × 10⁹-row Conviva table); latencies reported
        by the simulator use the simulated size while answers are computed on
        the in-memory rows.  ``cache`` controls whether the *base* table is
        held in the simulated cluster's memory (the paper's Shark-with-caching
        configuration).
        """
        if table.num_rows == 0:
            raise PlanningError(f"table {table.name!r} is empty")
        scale = 1.0
        if simulated_rows is not None:
            if simulated_rows < table.num_rows:
                raise ValueError("simulated_rows must be >= the table's actual row count")
            scale = simulated_rows / table.num_rows
        with self.state_lock.write_locked():
            self._builder.scale_factor = scale
            # A (re)load replaces the table wholesale; ingest state anchored
            # on the old rows is meaningless afterwards.
            self._ingest_states.pop(table.name, None)
            # Build the zone maps and the per (column, block) encoding once,
            # at load time, so the first query pays only O(num_blocks)
            # triage work and kernels execute on the encoded form without
            # decoding.
            table = encode_table(table, self.config.zone_block_rows)
            self._builder.register_base_table(table, cache=cache)
            self._invalidate_runtime()

    def load_dimension_table(self, table: Table) -> None:
        """Register a dimension table (joined to fact tables, never sampled)."""
        with self.state_lock.write_locked():
            self._dimension_tables[table.name] = table
            if not self.catalog.has_table(table.name):
                self.catalog.register_table(table)
            self._invalidate_runtime()

    # -- workload registration -------------------------------------------------------------
    def register_workload(
        self,
        queries: Sequence[str | Query] | None = None,
        templates: Sequence[QueryTemplate] | None = None,
        table: str | None = None,
    ) -> list[QueryTemplate]:
        """Register the historical workload used for sample selection.

        Either a query trace (``queries``) or pre-aggregated ``templates`` may
        be given.  Returns the normalised templates per fact table touched.
        """
        if (queries is None) == (templates is None):
            raise ValueError("provide exactly one of queries or templates")
        if queries is not None:
            derived = templates_from_trace(list(queries), table=table)
        else:
            derived = normalize_weights(list(templates or []))
        if not derived:
            raise ValueError("the workload produced no query templates")
        by_table: dict[str, list[QueryTemplate]] = {}
        for template in derived:
            by_table.setdefault(template.table, []).append(template)
        with self.state_lock.write_locked():
            for table_name, table_templates in by_table.items():
                self._templates[table_name] = normalize_weights(table_templates)
        return derived

    def templates_for(self, table_name: str) -> list[QueryTemplate]:
        return list(self._templates.get(table_name, []))

    # -- sample creation --------------------------------------------------------------------
    def build_samples(
        self,
        table_name: str | None = None,
        storage_budget_fraction: float | None = None,
    ) -> SamplePlan:
        """Plan and build sample families for a fact table.

        When ``table_name`` is omitted and exactly one fact table has a
        registered workload, that table is used.
        """
        # Planning reads catalog statistics and templates, so it runs under
        # the same exclusive lock as the build itself: a concurrent
        # load_table()/register_workload() must not mutate them mid-plan.
        with self.state_lock.write_locked():
            table_name = table_name or self._sole_workload_table()
            table = self.catalog.table(table_name)
            templates = self._templates.get(table_name)
            if not templates:
                raise PlanningError(
                    f"no workload registered for table {table_name!r}; call register_workload first"
                )
            planner = SampleSelectionPlanner(table, self.config.sampling)
            plan = planner.plan(templates, storage_budget_fraction=storage_budget_fraction)
            self._plans[table_name] = plan
            self._builder.build_from_column_sets(table, plan.column_sets)
            # Zone maps and encodings are sample-build-time metadata: build
            # them for every resolution table now.  Samples are stored sorted
            # by φ, so stratified blocks have tight, skippable ranges and are
            # maximally RLE-friendly.  The resolution is a frozen value type;
            # swapping in the encoded table here is safe because the
            # exclusive build lock is held and no runtime has seen this
            # generation yet.
            for _, family in self.catalog.iter_families(table_name):
                for resolution in family.resolutions:
                    object.__setattr__(
                        resolution,
                        "table",
                        encode_table(resolution.table, self.config.zone_block_rows),
                    )
            state = self._ingest_states.get(table_name)
            if state is not None:
                state.reanchor(recompute_statistics=True)
            self._invalidate_runtime()
        return plan

    def build_report(self, table_name: str) -> BuildReport:
        """Storage actually used by the samples of a table."""
        report = BuildReport(table_name=table_name)
        uniform = self.catalog.uniform_family(table_name)
        if uniform is not None:
            report.uniform_rows = uniform.largest.num_rows
            report.uniform_storage_bytes = uniform.storage_bytes
        for columns, family in self.catalog.stratified_families(table_name).items():
            report.stratified[columns] = family.storage_bytes
        return report

    # -- querying -------------------------------------------------------------------------------
    def query(
        self, sql: str | Query | ExplainQuery
    ) -> QueryResult | ExplainResult | AnalyzeResult:
        """Answer a BlinkQL statement approximately using the built samples.

        ``EXPLAIN SELECT ...`` statements return an
        :class:`~repro.planner.physical.ExplainResult` (the rendered
        physical plan) without executing; ``EXPLAIN ANALYZE SELECT ...``
        executes with tracing forced on and returns an
        :class:`~repro.obs.analyze.AnalyzeResult` (estimated vs actual plus
        the span tree); everything else returns a
        :class:`~repro.engine.result.QueryResult`.  Safe to call from many
        threads at once; queries share the state lock with sample builds so
        an in-flight query never sees a half-rebuilt catalog.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(statement, ExplainQuery):
            if statement.analyze:
                return self.explain_analyze(statement.query)
            return self.explain_plan(statement.query)
        with self.state_lock.read_locked():
            return self.runtime.execute(statement)

    def query_exact(self, sql: str | Query) -> QueryResult:
        """Answer a query exactly from the base table (no sampling)."""
        with self.state_lock.read_locked():
            return self.runtime.execute_exact(sql)

    def explain_plan(self, sql: str | Query) -> ExplainResult:
        """Plan a query without executing it (what ``EXPLAIN SELECT`` returns)."""
        with self.state_lock.read_locked():
            plan: PhysicalPlan = self.runtime.explain(sql)
        return ExplainResult(plan=plan, text=plan.render())

    def explain(self, sql: str | Query) -> dict[str, object]:
        """Run a query and return the physical plan alongside the answer.

        For planning without execution, use :meth:`explain_plan` (or the
        ``EXPLAIN SELECT ...`` statement).
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(statement, ExplainQuery):
            # explain() always runs the query; an EXPLAIN wrapper only asks
            # for the plan, which the returned dict carries anyway.
            statement = statement.query
        result = self.query(statement)
        assert isinstance(result, QueryResult)
        decision = result.metadata.get("decision")
        plan = result.metadata.get("plan")
        return {
            "result": result,
            "sample": result.sample_name,
            "rows_read": result.rows_read,
            "simulated_latency_seconds": result.simulated_latency_seconds,
            "decision": decision,
            "plan": plan,
            "plan_text": plan.render() if plan is not None else None,
        }

    # -- observability ---------------------------------------------------------------------------
    def explain_analyze(
        self,
        sql: str | Query,
        *,
        exact: bool = False,
        partitioned: bool = False,
    ) -> AnalyzeResult:
        """Execute ``sql`` with tracing forced on; estimated vs actual report.

        ``exact`` runs the no-sampling baseline; ``partitioned`` forces the
        progressive partition pipeline.  Equivalent to the
        ``EXPLAIN ANALYZE SELECT ...`` statement (which takes the default
        approximate path).
        """
        query = parse_query(sql) if isinstance(sql, str) else sql
        with self.state_lock.read_locked():
            return self._explain_analyze_locked(
                query, exact=exact, partitioned=partitioned
            )

    def _explain_analyze_locked(
        self,
        query: Query,
        *,
        exact: bool = False,
        partitioned: bool = False,
        trace=None,
    ) -> AnalyzeResult:
        """EXPLAIN ANALYZE body; the caller holds the read side of the state lock.

        Split out so the service layer's workers — which already hold the
        read lock around every ticket — can run analyze statements without
        re-acquiring it (they pass their pre-opened ``trace``, which already
        carries the admission-wait span).
        """
        runtime = self.runtime
        if trace is None:
            trace = self.obs.tracer.begin(force=True, table=query.table)
        sink = ScanSink()
        started = monotonic()
        if exact:
            result = runtime.execute_exact(query, trace=trace, scan_sink=sink)
        elif partitioned:
            # A progress callback (even a no-op) routes planning through the
            # partition pipeline, exercising triage/dispatch/merge spans.
            result = runtime.execute(
                query, progress=lambda snapshot: None, trace=trace, scan_sink=sink
            )
        else:
            result = runtime.execute(query, trace=trace, scan_sink=sink)
        measured = monotonic() - started
        plan: PhysicalPlan = result.metadata["plan"]
        scan_estimate = plan.scan_estimate
        if scan_estimate is None and exact:
            # The planner only costs sample scans; the exact path scanned the
            # base table, so its estimate is taken there.
            scan_estimate = runtime.planner.scan_estimate(
                plan.logical, self.catalog.table(plan.logical.table)
            )
        text = analyze_text(
            plan,
            result,
            sink=sink,
            trace=trace,
            measured_seconds=measured,
            ledger=self.obs.ledger,
            template=template_label_of(plan.logical),
            scan_estimate=scan_estimate,
        )
        return AnalyzeResult(plan=plan, result=result, trace=trace, text=text)

    def metrics(self, collect: bool = True) -> dict[str, object]:
        """A JSON-friendly snapshot of every registered metric."""
        self._register_facade_collectors()
        return self.obs.registry.describe(collect=collect)

    def metrics_text(self, collect: bool = True) -> str:
        """The metrics in Prometheus text exposition format."""
        self._register_facade_collectors()
        return self.obs.registry.render_text(collect=collect)

    def _register_facade_collectors(self) -> None:
        """Absorb the facade's pull-style stats surfaces into the registry.

        Idempotent: :meth:`Observability.register_stats` replaces a
        previously registered collector of the same metric name.
        """
        self.obs.register_stats(
            "runtime_counters",
            "Lifetime runtime execution, probe-cache, and scan counters.",
            lambda: self.runtime.stats,
        )

        def ingest_flat() -> dict[str, object]:
            flat: dict[str, object] = {}
            for table_name, stats in self.ingest_stats().items():
                for key, value in stats.items():
                    flat[f"{table_name}.{key}"] = value
            return flat

        self.obs.register_stats(
            "ingest_counters",
            "Per-table streaming-ingest gauges (rows appended, escalations, staleness).",
            ingest_flat,
        )

        def storage_flat() -> dict[str, object]:
            flat: dict[str, object] = {}
            total_raw = 0
            total_encoded = 0
            for name in self.catalog.table_names():
                stats = self.catalog.table(name).encoding_stats()
                if stats is None:
                    continue
                flat[f"{name}.raw_bytes"] = stats["raw_bytes"]
                flat[f"{name}.encoded_bytes"] = stats["encoded_bytes"]
                flat[f"{name}.compression_ratio"] = stats["compression_ratio"]
                total_raw += int(stats["raw_bytes"])  # type: ignore[arg-type]
                total_encoded += int(stats["encoded_bytes"])  # type: ignore[arg-type]
                for _, family in self.catalog.iter_families(name):
                    for resolution in family.resolutions:
                        res_stats = resolution.table.encoding_stats()
                        if res_stats is None:
                            continue
                        total_raw += int(res_stats["raw_bytes"])  # type: ignore[arg-type]
                        total_encoded += int(res_stats["encoded_bytes"])  # type: ignore[arg-type]
            if total_encoded:
                flat["total.raw_bytes"] = total_raw
                flat["total.encoded_bytes"] = total_encoded
                flat["total.compression_ratio"] = total_raw / total_encoded
            scan = self.runtime.executor.scan_stats
            flat["rows_decode_avoided"] = scan.get("rows_decode_avoided", 0)
            flat["bytes_encoded_scanned"] = scan.get("bytes_encoded", 0)
            return flat

        self.obs.register_stats(
            "storage",
            "Compressed-execution gauges: per-table footprint, compression "
            "ratios, and rows aggregated without decoding.",
            storage_flat,
        )

        def tenants_flat() -> dict[str, object]:
            flat: dict[str, object] = {}
            with self._services_lock:
                services = list(self._services)
            for service in services:
                registry = getattr(service, "tenants", None)
                if registry is None:
                    continue
                for key, value in registry.stats().items():
                    # Sum across services: one tenant may talk to several.
                    flat[key] = float(flat.get(key, 0.0)) + value  # type: ignore[arg-type]
            return flat

        self.obs.register_stats(
            "tenants",
            "Per-tenant admission counters: submitted/completed/shed-quota, "
            "in-flight slots, rows charged to the rows/s bucket, fair-share "
            "weight.",
            tenants_flat,
        )

        def procpool_stats() -> dict[str, object]:
            procpool = self._procpool  # never *create* the pool for a scrape
            if procpool is None:
                return {"workers": 0, "started": 0, "available": 0}
            return dict(procpool.stats())

        self.obs.register_stats(
            "procpool",
            "Process-parallel backend gauges: worker pool state, shm segments "
            "exported, and partial-state bytes shipped across the IPC boundary.",
            procpool_stats,
        )

        def faults_stats() -> dict[str, object]:
            flat: dict[str, object] = {}
            injector = faults.active()
            if injector is not None:
                flat.update(injector.stats())
            with self._services_lock:
                services = list(self._services)
            for service in services:
                flat[f"service.{service.name}.retries"] = service.metrics.retries.value
            return flat

        self.obs.register_stats(
            "faults",
            "Fault injection: injector arrivals/fires per point, and "
            "per-service query retries (the process pool's healing counters "
            "are series of the procpool metric).",
            faults_stats,
        )

    def audit_accuracy(self, sql: str | Query) -> dict[str, object]:
        """Run ``sql`` approximately *and* exactly; score the error bars.

        Both runs happen under one read lock, so they see the same data
        generation.  For every aggregate in every group the exact value is
        checked against the approximate answer's confidence interval, and
        each outcome is recorded in the accuracy ledger's coverage track —
        over a seeded workload the covered fraction should be at least the
        queries' configured confidence.
        """
        query = parse_query(sql) if isinstance(sql, str) else sql
        with self.state_lock.read_locked():
            approx = self.runtime.execute(query)
            exact = self.runtime.execute_exact(query)
        template = template_label_of(LogicalPlan.of(query))
        audits = 0
        covered = 0
        for group in approx.groups:
            try:
                exact_group = exact.group(group.key)
            except KeyError:
                # A group the sample saw but the base table did not (or vice
                # versa) has no exact reference value to audit against.
                continue
            for name, aggregate in group.aggregates.items():
                reference = exact_group.aggregates.get(name)
                if reference is None or aggregate.estimate.exact:
                    continue
                if not math.isfinite(reference.value):
                    # An empty selection has no reference value; that is not
                    # a missed error bar.
                    continue
                interval = aggregate.interval
                is_covered = interval.low <= reference.value <= interval.high
                self.obs.ledger.record_coverage(template, is_covered)
                audits += 1
                covered += 1 if is_covered else 0
        return {
            "template": template,
            "audits": audits,
            "covered": covered,
            "coverage": covered / audits if audits else None,
            "approximate": approx,
            "exact": exact,
        }

    # -- maintenance -------------------------------------------------------------------------------
    def maintenance(self) -> SampleMaintenance:
        """The maintenance manager for drift detection, re-planning, and refresh."""
        return SampleMaintenance(self.catalog, self._builder, self.config.sampling)

    def replan_samples(
        self,
        table_name: str,
        templates: Sequence[QueryTemplate] | None = None,
        churn_fraction: float | None = None,
        apply: bool = True,
    ) -> tuple[SamplePlan, list[MaintenanceAction]]:
        """Re-solve sample selection under the churn cap and optionally apply it."""
        # Like build_samples: re-planning reads the catalog's current families
        # and statistics, so the whole replan(+apply) is exclusive.
        with self.state_lock.write_locked():
            table = self.catalog.table(table_name)
            workload = (
                list(templates) if templates is not None else self._templates.get(table_name)
            )
            if not workload:
                raise PlanningError(f"no workload registered for table {table_name!r}")
            manager = self.maintenance()
            churn = (
                churn_fraction
                if churn_fraction is not None
                else self.config.maintenance_churn_fraction
            )
            plan, actions = manager.replan(table, workload, churn_fraction=churn)
            if apply:
                manager.apply_actions(table, actions)
                self._plans[table_name] = plan
                state = self._ingest_states.get(table_name)
                if state is not None:
                    state.reanchor(recompute_statistics=True)
                self._invalidate_runtime()
        return plan, actions

    # -- streaming ingestion -----------------------------------------------------------------------
    def append(self, table_name: str, rows) -> "AppendReport":
        """Append a batch of rows to a fact table, maintaining its samples.

        ``rows`` is a sequence of row dictionaries or a columnar mapping.
        The whole step — cache/probe fences, storage append (new immutable
        blocks, extended zone maps), incremental statistics merge,
        reservoir-style sample maintenance, and the generation bump — runs
        under the exclusive state lock, so concurrent queries (read lock)
        always see one consistent (table, samples, zone maps) generation.
        When a family's staleness exceeds ``config.ingest_staleness_budget``
        the append escalates: drifted data triggers the §3.2.3 MILP re-plan,
        otherwise the families are refreshed at the grown size.

        Only the appended table is fenced: attached services drop that
        table's cached answers (and refuse in-flight inserts against the old
        generation) while other tables keep serving from cache, and only that
        table's memoized probes are discarded.
        """
        with self.state_lock.write_locked():
            table = self.catalog.table(table_name)
            batch = columns_from_rows(rows, table.schema)
            state = self._ingest_states.get(table_name)
            if state is None:
                state = TableIngest(
                    self.catalog,
                    table_name,
                    simulator=self.simulator,
                    scale_factor=self._builder.scale_factor,
                    staleness_budget=self.config.ingest_staleness_budget,
                    procpool_provider=self._partition_procpool,
                )
                self._ingest_states[table_name] = state
            if batch_num_rows(batch) == 0:
                return state.append(batch)  # no-op report; nothing to fence
            # Fence *before* publishing: a cache lookup racing this append
            # either sees the old generation's answer (the append has not
            # completed) or misses and recomputes on the new one — never a
            # stale answer after the new generation is visible.
            self._fence_table(table_name)
            report = state.append(batch)
            if report.staleness_exceeded and self.config.ingest_auto_escalate:
                report.escalation = self._escalate_ingest(table_name, state)
                report.escalated = True
            self._data_version += 1
        return report

    def ingest_controller(
        self,
        table_name: str,
        batch_rows: int | None = None,
        max_pending_rows: int | None = None,
        background: bool = True,
    ) -> "IngestController":
        """A batching, backpressured producer endpoint over :meth:`append`."""
        from repro.ingest.controller import IngestController

        # Unset sizes keep the controller's own defaults.
        sizes = {"batch_rows": batch_rows, "max_pending_rows": max_pending_rows}
        return IngestController(
            self,
            table_name,
            background=background,
            flush_retries=self.config.ingest_flush_retries,
            **{name: rows for name, rows in sizes.items() if rows is not None},
        )

    def ingest_stats(self) -> dict[str, dict[str, object]]:
        """Per-table ingest gauges (rows appended, batches, escalations, staleness)."""
        return {
            name: state.counters.describe()
            for name, state in list(self._ingest_states.items())
        }

    def table_generation(self, table_name: str) -> int:
        """The table's data generation (bumped by every append/reload)."""
        return self.catalog.generation(table_name)

    def _escalate_ingest(self, table_name: str, state: TableIngest) -> str:
        """Incremental maintenance exceeded its budget: re-plan or refresh.

        Called under the write lock.  Data drift (measured against the
        family anchor's statistics snapshot, with merged-estimate slack)
        escalates to the churn-capped MILP re-plan; otherwise the existing
        families are re-drawn from the grown table.  Either way the uniform
        family is rebuilt at the new size and the ingest state re-anchored
        on fresh full-rescan statistics.
        """
        table = self.catalog.table(table_name)
        manager = self.maintenance()
        templates = self._templates.get(table_name)
        drifted = manager.detect_data_drift(
            state.anchor_statistics, self.catalog.statistics(table_name)
        )
        if drifted and templates:
            plan, actions = manager.replan(
                table, templates, churn_fraction=self.config.maintenance_churn_fraction
            )
            manager.apply_actions(table, actions)
            self._plans[table_name] = plan
            kind = "replan"
        else:
            manager.refresh_families(table)
            kind = "refresh"
        if self.catalog.uniform_family(table_name) is not None:
            self._builder.build_uniform_family(table)
        state.counters.escalations += 1
        state.sync_simulator()
        state.reanchor(recompute_statistics=True)
        return kind

    def _fence_table(self, table_name: str) -> None:
        """Per-table invalidation: result caches and memoized probes only."""
        with self._runtime_lock:
            runtime = self._runtime
        if runtime is not None:
            runtime.selector.invalidate_table(table_name)
        with self._services_lock:
            services = list(self._services)
        for service in services:
            service.invalidate_cache_table(table_name, reason="table-append")

    # -- serving ------------------------------------------------------------------------------------
    def serve(self, num_workers: int = 4, **service_kwargs: object) -> "QueryService":
        """Start a concurrent query service over this instance.

        Returns a :class:`~repro.service.server.QueryService` whose worker
        pool answers queries submitted through tickets/sessions.  The service
        registers itself with the facade, so sample rebuilds
        (:meth:`build_samples`, :meth:`replan_samples`) and data reloads
        invalidate its result cache automatically.
        """
        from repro.service.server import QueryService

        return QueryService(self, num_workers=num_workers, **service_kwargs)  # type: ignore[arg-type]

    def serve_network(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs: object,
    ):
        """Start the wire-protocol front door (HTTP/JSON over a real socket).

        Returns a :class:`~repro.net.server.NetworkServer` bound to
        ``host:port`` (``port=0`` picks an ephemeral port — read
        ``server.port``).  The server creates its own tenant-aware
        :class:`~repro.service.server.QueryService` unless one is passed via
        ``service=``; both the socket and an owned service are shut down by
        ``server.close()`` or :meth:`close`.  Talk to it with
        :class:`repro.client.Client`.
        """
        from repro.net.server import NetworkServer

        server = NetworkServer(self, host=host, port=port, **server_kwargs)  # type: ignore[arg-type]
        with self._services_lock:
            self._network_servers.append(server)
        return server

    def connect(
        self,
        name: str | None = None,
        defaults: "SessionDefaults | None" = None,
        **default_kwargs: object,
    ) -> "ClientSession":
        """Open a client session on the default service (started on demand)."""
        with self._connect_lock:
            with self._services_lock:
                service = self._default_service
            if service is None or service._closed:
                service = self.serve()
                with self._services_lock:
                    self._default_service = service
        return service.connect(name=name, defaults=defaults, **default_kwargs)

    @property
    def data_version(self) -> int:
        """Monotonic generation counter; bumps whenever samples/data change."""
        return self._data_version

    def _attach_service(self, service: "QueryService") -> None:
        with self._services_lock:
            self._services.append(service)

    def _detach_service(self, service: "QueryService") -> None:
        with self._services_lock:
            if service in self._services:
                self._services.remove(service)
            if self._default_service is service:
                self._default_service = None

    # -- plumbing -----------------------------------------------------------------------------------
    @property
    def runtime(self) -> BlinkDBRuntime:
        if self._runtime is None:
            with self._runtime_lock:
                if self._runtime is None:
                    self._runtime = BlinkDBRuntime(
                        catalog=self.catalog,
                        config=self.config,
                        simulator=self.simulator,
                        dimension_tables=self._dimension_tables,
                        observability=self.obs,
                        procpool=self._partition_procpool(),
                    )
        return self._runtime

    def _partition_procpool(self) -> ProcessPartitionPool | None:
        """The facade-owned process pool (lazy; ``None`` on the threads backend)."""
        if self.config.execution_backend != "processes" or self._closed:
            return None
        if self._procpool is None:
            with self._procpool_lock:
                if self._procpool is None:
                    self._procpool = ProcessPartitionPool(
                        self.config.procpool_workers or None,
                        zone_block_rows=self.config.zone_block_rows,
                        task_timeout_seconds=self.config.procpool_task_timeout_seconds,
                        retry_attempts=self.config.procpool_retry_attempts,
                        retry_backoff_seconds=self.config.procpool_retry_backoff_seconds,
                        breaker_threshold=self.config.procpool_breaker_threshold,
                        breaker_cooldown_seconds=self.config.procpool_breaker_cooldown_seconds,
                    )
        return self._procpool

    def close(self) -> None:
        """Tear down services, pools, and shared-memory segments (idempotent).

        Closes attached services (their worker threads), the cached runtime
        (its partition thread pool and its epoch of shm exports), and the
        process pool itself (worker processes plus any remaining segments).
        The facade stays queryable afterwards — a fresh runtime falls back
        to the thread backend — but the intended use is terminal, typically
        via ``with BlinkDB(...) as db:``.
        """
        if self._closed:
            return
        self._closed = True
        with self._services_lock:
            network_servers = list(self._network_servers)
            self._network_servers.clear()
        for server in network_servers:
            server.close()  # type: ignore[attr-defined]
        with self._services_lock:
            services = list(self._services)
        for service in services:
            service.close()
        with self._runtime_lock:
            runtime, self._runtime = self._runtime, None
        if runtime is not None:
            runtime.close()
        with self._procpool_lock:
            procpool, self._procpool = self._procpool, None
        if procpool is not None:
            procpool.close()

    def __enter__(self) -> "BlinkDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def describe(self) -> dict[str, object]:
        """A JSON-friendly snapshot of tables, samples, and simulator state."""
        with self._services_lock:
            services = [service.name for service in self._services]
        return {
            "catalog": self.catalog.describe(),
            "simulator": self.simulator.describe(),
            "data_version": self._data_version,
            "ingest": self.ingest_stats(),
            "services": services,
            "plans": {
                name: {
                    "families": [list(f.columns) for f in plan.families],
                    "total_storage_bytes": plan.total_storage_bytes,
                }
                for name, plan in self._plans.items()
            },
        }

    # -- internals -------------------------------------------------------------------------------------
    def _sole_workload_table(self) -> str:
        if len(self._templates) == 1:
            return next(iter(self._templates))
        raise CatalogError(
            "multiple (or zero) tables have registered workloads; pass table_name explicitly"
        )

    def _invalidate_runtime(self) -> None:
        """Discard the cached runtime and fence every attached service's cache.

        Called whenever the samples or base data change (``load_table``,
        ``build_samples``, ``replan_samples``): answers computed against the
        old samples must not be served afterwards.
        """
        with self._runtime_lock:
            old_runtime, self._runtime = self._runtime, None
        if old_runtime is not None:
            old_runtime.close()
        self._data_version += 1
        with self._services_lock:
            services = list(self._services)
        for service in services:
            service.invalidate_cache(reason="samples-rebuilt")

    # -- convenience -------------------------------------------------------------------------------------
    @staticmethod
    def template_of(sql: str | Query, weight: float = 1.0) -> QueryTemplate:
        """Extract the query template of a single query (helper for workloads)."""
        query = parse_query(sql) if isinstance(sql, str) else sql
        return extract_template(query, weight)
