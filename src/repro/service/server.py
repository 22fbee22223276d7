"""The multi-client query service.

:class:`QueryService` turns a :class:`~repro.core.blinkdb.BlinkDB` instance
into a concurrent server: a pool of worker threads drains a deadline-aware
EDF queue (:mod:`repro.service.scheduler`) and answers each query on the
shared, reentrant :class:`~repro.runtime.execution.BlinkDBRuntime`.  Clients
get a :class:`QueryTicket` back immediately — a future carrying per-query
metrics (queue wait, cache hit, sample chosen, predicted vs. simulated
latency) — and block on it only when they want the answer.

Consistency with sample maintenance is handled two ways:

* queries hold the facade's read lock while executing, so
  ``build_samples()`` / ``replan_samples()`` (write lock) never observe a
  half-executed query, and
* the result cache is generation-fenced: rebuilds bump the generation, which
  both drops all cached answers and refuses inserts from workers that
  started before the rebuild.

A worker is busy for as long as the host takes to answer; simulated cluster
latency is reported on the ticket, never slept.  A test that needs a slow
worker installs a :class:`~repro.faults.FaultPlan` with the
``service.slow_worker`` point.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.clock import Clock, monotonic
from repro.common.errors import QueryRejectedError
from repro.engine.result import QueryResult
from repro.faults.injector import active as _fault_active
from repro.obs.analyze import AnalyzeResult
from repro.planner.physical import ExplainResult
from repro.runtime.partitioned import ProgressiveSnapshot
from repro.service.cache import ResultCache, cache_key, template_label
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import (
    Admission,
    DeadlineScheduler,
    FairShareScheduler,
    ScheduledItem,
    SchedulerClosed,
)
from repro.service.session import ClientSession, QueryRecord, SessionDefaults
from repro.service.tenancy import DEFAULT_TENANT, TenantRegistry
from repro.sql.ast import ExplainQuery, Query
from repro.sql.parser import parse_statement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports service lazily)
    from repro.core.blinkdb import BlinkDB

_ticket_ids = itertools.count(1)
_service_ids = itertools.count(1)


@dataclass
class TicketMetrics:
    """Per-query serving metrics, filled in as the ticket progresses."""

    admission: str = "pending"
    cache_hit: bool = False
    queue_wait_seconds: float | None = None
    service_seconds: float | None = None
    total_seconds: float | None = None
    predicted_latency_seconds: float | None = None
    simulated_latency_seconds: float | None = None
    sample_name: str | None = None
    worker: str | None = None
    tenant: str | None = None

    def describe(self) -> dict[str, object]:
        return {
            "admission": self.admission,
            "cache_hit": self.cache_hit,
            "queue_wait_s": self.queue_wait_seconds,
            "service_s": self.service_seconds,
            "total_s": self.total_seconds,
            "predicted_latency_s": self.predicted_latency_seconds,
            "simulated_latency_s": self.simulated_latency_seconds,
            "sample": self.sample_name,
            "worker": self.worker,
            "tenant": self.tenant,
        }


class QueryTicket:
    """A future for one submitted query.

    A *progressive* ticket (``service.submit(..., progressive=True)``)
    additionally exposes the partition pipeline's refining answers: one
    :class:`~repro.runtime.partitioned.ProgressiveSnapshot` lands per state
    merge (partial result plus fraction-of-partitions-merged), readable at
    any time through :meth:`snapshots` / :meth:`latest_snapshot` while the
    query is still running.  Cache hits resolve instantly and carry no
    snapshots.
    """

    def __init__(
        self,
        sql: str,
        query: Query,
        session: ClientSession | None,
        progressive: bool = False,
        clock: Clock = monotonic,
        tenant: str | None = None,
        request_id: str | None = None,
    ) -> None:
        self.ticket_id = next(_ticket_ids)
        self.sql = sql
        self.query = query
        self.session = session
        self.progressive = progressive
        self.clock = clock
        self.submitted_at = clock()
        self.tenant = tenant
        #: Wire-level request id (propagated into the trace root by _serve).
        self.request_id = request_id
        self.metrics = TicketMetrics(tenant=tenant)
        self._done = threading.Event()
        self._result: QueryResult | ExplainResult | AnalyzeResult | None = None
        self._error: BaseException | None = None
        self._snapshots: list[ProgressiveSnapshot] = []
        self._snapshots_lock = threading.Lock()
        # Set by QueryService.submit for queued tickets; what cancel() removes.
        self._service: "QueryService | None" = None
        self._scheduled_item: ScheduledItem | None = None
        #: True while the ticket holds one of its tenant's in-flight slots.
        self._quota_held = False

    # -- future API --------------------------------------------------------------
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(
        self, timeout: float | None = None
    ) -> QueryResult | ExplainResult | AnalyzeResult:
        """Block until the answer is ready; raises if the query was shed/failed.

        EXPLAIN tickets resolve with an
        :class:`~repro.planner.physical.ExplainResult`, EXPLAIN ANALYZE
        tickets with an :class:`~repro.obs.analyze.AnalyzeResult`; everything
        else with a :class:`~repro.engine.result.QueryResult`.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"ticket {self.ticket_id} not finished within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        self._done.wait(timeout)
        return self._error

    @property
    def status(self) -> str:
        if not self._done.is_set():
            return "pending"
        if self._error is None:
            return "completed"
        if isinstance(self._error, QueryRejectedError):
            return "cancelled" if self._error.reason == "cancelled" else "shed"
        return "failed"

    def cancel(self) -> bool:
        """Remove this ticket from the queue if it has not started executing.

        Returns ``True`` when the ticket was cancelled (it then resolves with
        a :class:`~repro.common.errors.QueryRejectedError` whose reason is
        ``"cancelled"``), ``False`` when it already finished or a worker
        already picked it up — a running query is never interrupted.
        """
        service = self._service
        if service is None:
            return False
        return service.cancel_ticket(self)

    # -- progressive snapshots ------------------------------------------------------
    def snapshots(self) -> list[ProgressiveSnapshot]:
        """All progressive snapshots observed so far (oldest first)."""
        with self._snapshots_lock:
            return list(self._snapshots)

    def latest_snapshot(self) -> ProgressiveSnapshot | None:
        """The most recent progressive snapshot, or ``None`` before the first merge."""
        with self._snapshots_lock:
            return self._snapshots[-1] if self._snapshots else None

    @property
    def progress_fraction(self) -> float:
        """Fraction of partitions merged (1.0 once the ticket has an answer).

        A shed or failed ticket reports the progress it actually made (its
        last snapshot's fraction, or 0.0), never a misleading 1.0.
        """
        snapshot = self.latest_snapshot()
        if self._done.is_set() and self._error is None:
            return 1.0
        return snapshot.fraction_merged if snapshot is not None else 0.0

    def _on_progress(self, snapshot: ProgressiveSnapshot) -> None:
        with self._snapshots_lock:
            self._snapshots.append(snapshot)

    # -- tracing ------------------------------------------------------------------
    def trace(self):
        """The span tree of the served query, or ``None``.

        Present once the ticket resolved, when the execution was traced —
        always for EXPLAIN ANALYZE tickets, by sampling otherwise.  Cache
        hits carry the trace of the execution that populated the cache.
        """
        if not self._done.is_set() or self._error is not None:
            return None
        result = self._result
        if isinstance(result, AnalyzeResult):
            return result.trace
        metadata = getattr(result, "metadata", None)
        if metadata is None:
            return None
        return metadata.get("trace")

    # -- resolution (service-internal) --------------------------------------------
    def _resolve(self, result: QueryResult | ExplainResult | AnalyzeResult) -> None:
        self.metrics.total_seconds = self.clock() - self.submitted_at
        self._result = result
        self._done.set()
        self._record()

    def _fail(self, error: BaseException) -> None:
        self.metrics.total_seconds = self.clock() - self.submitted_at
        self._error = error
        self._done.set()
        self._record()

    def _record(self) -> None:
        if self.session is None:
            return
        self.session.record(
            QueryRecord(
                ticket_id=self.ticket_id,
                sql=self.sql,
                submitted_at=self.submitted_at,
                status=self.status,
                cache_hit=self.metrics.cache_hit,
                queue_wait_seconds=self.metrics.queue_wait_seconds,
                total_seconds=self.metrics.total_seconds,
                simulated_latency_seconds=self.metrics.simulated_latency_seconds,
                sample_name=self.metrics.sample_name,
                error=str(self._error) if self._error is not None else None,
            )
        )

    def describe(self) -> dict[str, object]:
        return {
            "ticket_id": self.ticket_id,
            "sql": self.sql,
            "status": self.status,
            "session": self.session.name if self.session is not None else None,
            "progressive": self.progressive,
            "progress_fraction": self.progress_fraction,
            "metrics": self.metrics.describe(),
        }


@dataclass
class _WorkItem:
    """What travels through the scheduler for one admitted query."""

    ticket: QueryTicket
    key: str
    label: str
    progressive: bool = False
    #: EXPLAIN ANALYZE: execute with tracing forced on and resolve with an
    #: AnalyzeResult; never served from (or inserted into) the result cache.
    analyze: bool = False


class QueryService:
    """A thread-pool query server over one BlinkDB instance."""

    def __init__(
        self,
        db: "BlinkDB",
        num_workers: int = 4,
        cache: ResultCache | bool | None = True,
        max_queue_depth: int | None = 256,
        deadline_slack: float = 0.25,
        default_predicted_seconds: float = 1.0,
        ewma_alpha: float = 0.3,
        name: str | None = None,
        autostart: bool = True,
        clock: Clock = monotonic,
        retries: int | None = None,
        retry_backoff_seconds: float | None = None,
        tenants: TenantRegistry | bool | None = None,
        fair_share_quantum: float = 0.25,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.db = db
        # Queries are read-only, hence idempotent: a failed execution may be
        # re-submitted verbatim.  Defaults come from the facade config;
        # admission rejections are never retried.
        self.retries = db.config.service_retries if retries is None else max(0, retries)
        self.retry_backoff_seconds = (
            db.config.service_retry_backoff_seconds
            if retry_backoff_seconds is None
            else max(0.0, retry_backoff_seconds)
        )
        self.name = name or f"blinkdb-service-{next(_service_ids)}"
        self.num_workers = num_workers
        #: Monotonic time source for queue-wait/service-time measurement;
        #: injectable so tests can drive ticket timing deterministically.
        self.clock = clock
        if cache is True:
            self.cache: ResultCache | None = ResultCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        # Tenancy: ``True`` (or a TenantRegistry) turns on per-tenant quotas
        # and deficit-round-robin fair share; ``None``/``False`` keeps the
        # plain single-queue EDF scheduler with zero overhead.
        if tenants is True:
            tenants = TenantRegistry(clock=clock)
        self.tenants: TenantRegistry | None = tenants or None
        if self.tenants is not None:
            self.scheduler: DeadlineScheduler = FairShareScheduler(
                num_workers=num_workers,
                max_queue_depth=max_queue_depth,
                deadline_slack=deadline_slack,
                clock=clock,
                tenants=self.tenants,
                quantum_seconds=fair_share_quantum,
            )
        else:
            self.scheduler = DeadlineScheduler(
                num_workers=num_workers,
                max_queue_depth=max_queue_depth,
                deadline_slack=deadline_slack,
                clock=clock,
            )
        self.metrics = ServiceMetrics(db.obs.registry, self.name)
        self.default_predicted_seconds = default_predicted_seconds
        self._ewma_alpha = ewma_alpha
        self._ewma_lock = threading.Lock()
        self._predicted_by_template: dict[str, float] = {}
        self._sessions: list[ClientSession] = []
        self._sessions_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self.started_at = time.time()
        db._attach_service(self)
        if autostart:
            self.start()

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in range(self.num_workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"{self.name}-worker-{index}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()

    def close(self, timeout: float | None = 30.0) -> None:
        """Stop accepting queries and join the workers — deterministically.

        Graceful drain: running workers finish everything already queued
        before stopping.  Tickets that can never run — the service was never
        started, or work is still queued after the join timeout — resolve
        immediately with a :class:`~repro.common.errors.QueryRejectedError`
        (reason ``"closed"``), so no ticket ever outlives the facade
        unresolved.
        """
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        if not self._workers:
            self._fail_queued(self.scheduler.drain())
        for worker in self._workers:
            worker.join(timeout)
        # Anything still queued after the join (e.g. workers timed out) is
        # failed rather than silently dropped.
        self._fail_queued(self.scheduler.drain())
        self.db._detach_service(self)
        self.metrics.close()

    def _fail_queued(self, items: list[ScheduledItem]) -> None:
        for item in items:
            work = item.payload
            if not isinstance(work, _WorkItem):
                continue
            ticket = work.ticket
            self._release_ticket_quota(ticket, completed=False)
            self.metrics.failed.inc()
            ticket._fail(
                QueryRejectedError(
                    "query service closed before this query started",
                    reason="closed",
                )
            )

    def __enter__(self) -> "QueryService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- sessions ----------------------------------------------------------------
    def connect(
        self,
        name: str | None = None,
        defaults: SessionDefaults | None = None,
        tenant: str | None = None,
        **default_kwargs: object,
    ) -> ClientSession:
        """Open a client session; ``default_kwargs`` build :class:`SessionDefaults`.

        ``tenant`` pins every query submitted through the session to that
        tenant's quotas and fair-share weight (when tenancy is enabled).
        """
        if defaults is None and default_kwargs:
            defaults = SessionDefaults(**default_kwargs)  # type: ignore[arg-type]
        session = ClientSession(self, name=name, defaults=defaults, tenant=tenant)
        with self._sessions_lock:
            self._sessions.append(session)
        return session

    def sessions(self) -> list[ClientSession]:
        with self._sessions_lock:
            return list(self._sessions)

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        sql: "str | Query | ExplainQuery",
        session: ClientSession | None = None,
        progressive: bool = False,
        tenant: str | None = None,
        request_id: str | None = None,
    ) -> QueryTicket:
        """Parse, admit, and enqueue one statement; returns its ticket immediately.

        Cache hits resolve the ticket synchronously without touching the
        queue.  Shed queries resolve synchronously with a
        :class:`~repro.common.errors.QueryRejectedError`.  ``progressive``
        routes the execution through the partition pipeline so the ticket
        streams :class:`~repro.runtime.partitioned.ProgressiveSnapshot`
        updates while it runs.  An ``EXPLAIN SELECT ...`` statement resolves
        synchronously with an
        :class:`~repro.planner.physical.ExplainResult` — the rendered
        physical plan — without executing or queueing anything.  An
        ``EXPLAIN ANALYZE SELECT ...`` statement *does* execute: it travels
        through the queue like a real query (its admission wait lands in the
        trace), bypasses the result cache, and resolves with an
        :class:`~repro.obs.analyze.AnalyzeResult`.
        """
        if self._closed:
            raise QueryRejectedError("query service is closed", reason="closed")
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        analyze = False
        if isinstance(statement, ExplainQuery):
            if not statement.analyze:
                return self._explain(sql, statement, session)
            analyze = True
            statement = statement.query
        query = statement
        if session is not None:
            query = session.apply_defaults(query)
        if tenant is None:
            tenant = session.tenant if session is not None else None
        if tenant is None:
            tenant = DEFAULT_TENANT
        raw = sql if isinstance(sql, str) else (query.raw_sql or str(query))
        ticket = QueryTicket(
            raw,
            query,
            session,
            progressive=progressive,
            clock=self.clock,
            tenant=tenant,
            request_id=request_id,
        )
        ticket._service = self
        self.metrics.submitted.inc()

        key = cache_key(query)
        label = template_label(query)
        if self.cache is not None and not analyze:
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.cache_hits.inc()
                self.metrics.completed.inc()
                self.metrics.record_template(label, cache_hit=True)
                ticket.metrics.admission = "cache-hit"
                ticket.metrics.cache_hit = True
                ticket.metrics.queue_wait_seconds = 0.0
                ticket.metrics.service_seconds = 0.0
                ticket.metrics.sample_name = cached.sample_name
                ticket.metrics.simulated_latency_seconds = cached.simulated_latency_seconds
                self.metrics.total_latency.observe(self.clock() - ticket.submitted_at)
                ticket._resolve(cached)
                return ticket
            self.metrics.cache_misses.inc()

        time_bound = query.time_bound.seconds if query.time_bound is not None else None
        predicted = self._predict_seconds(label, time_bound)
        ticket.metrics.predicted_latency_seconds = predicted

        # Per-tenant quota gate (in-flight cap + rows/s bucket) ahead of the
        # global EDF admission check: quota sheds are the tenant's own fault
        # and carry a retry-after hint, scheduler sheds are global pressure.
        if self.tenants is not None:
            verdict = self.tenants.try_acquire(tenant)
            if not verdict.admitted:
                self.metrics.shed_quota.inc()
                self.metrics.record_template(label, cache_hit=False)
                ticket.metrics.admission = Admission.SHED_QUOTA.value
                ticket._fail(
                    QueryRejectedError(
                        f"query shed: {verdict.reason}",
                        reason=Admission.SHED_QUOTA.value,
                        retry_after_seconds=verdict.retry_after_seconds,
                    )
                )
                return ticket
            ticket._quota_held = True

        work = _WorkItem(
            ticket=ticket, key=key, label=label, progressive=progressive, analyze=analyze
        )
        try:
            admission, item = self.scheduler.try_admit(
                work,
                predicted_seconds=predicted,
                time_bound_seconds=time_bound,
                tenant=tenant,
            )
        except SchedulerClosed:
            # close() raced this submission past the _closed check above.
            self._release_ticket_quota(ticket, completed=False)
            raise QueryRejectedError("query service is closed", reason="closed") from None
        ticket.metrics.admission = admission.value
        if not admission.admitted:
            self._release_ticket_quota(ticket, completed=False)
            if admission is Admission.SHED_DEADLINE:
                self.metrics.shed_deadline.inc()
                reason = (
                    f"predicted completion ({self.scheduler.predicted_backlog_seconds() / self.num_workers + predicted:.2f}s) "
                    f"misses the {time_bound:.2f}s deadline"
                )
            else:
                self.metrics.shed_queue_full.inc()
                reason = "queue full"
            self.metrics.record_template(label, cache_hit=False)
            ticket._fail(QueryRejectedError(f"query shed: {reason}", reason=admission.value))
            return ticket
        ticket._scheduled_item = item
        self.metrics.admitted.inc()
        return ticket

    def _release_ticket_quota(self, ticket: QueryTicket, *, completed: bool, rows_read: int = 0) -> None:
        """Return the ticket's tenant slot (idempotent) and charge rows read."""
        if not ticket._quota_held:
            return
        ticket._quota_held = False
        if self.tenants is not None and ticket.tenant is not None:
            self.tenants.release(ticket.tenant, rows_read=rows_read, completed=completed)

    # -- cancellation -------------------------------------------------------------
    def cancel_ticket(self, ticket: QueryTicket) -> bool:
        """Remove a queued ticket from the EDF queue (see :meth:`QueryTicket.cancel`)."""
        if ticket.done():
            return False
        item = ticket._scheduled_item
        if item is None or not self.scheduler.cancel(item):
            return False
        self._release_ticket_quota(ticket, completed=False)
        if self.tenants is not None and ticket.tenant is not None:
            self.tenants.record_cancelled(ticket.tenant)
        self.metrics.cancelled.inc()
        self.metrics.record_template(
            template_label(ticket.query), cache_hit=False
        )
        ticket._fail(
            QueryRejectedError("query cancelled before execution", reason="cancelled")
        )
        return True

    def _explain(
        self,
        sql: "str | Query | ExplainQuery",
        statement: ExplainQuery,
        session: ClientSession | None,
    ) -> QueryTicket:
        """Resolve an EXPLAIN statement synchronously with its rendered plan.

        Planning probes at most the smallest resolution of each family
        (memoized), so EXPLAIN is answered inline instead of queueing behind
        real queries; the read lock still fences it against sample rebuilds.
        """
        query = statement.query
        if session is not None:
            query = session.apply_defaults(query)
        raw = sql if isinstance(sql, str) else (statement.raw_sql or str(statement))
        ticket = QueryTicket(raw, query, session, progressive=False, clock=self.clock)
        self.metrics.submitted.inc()
        ticket.metrics.admission = "explain"
        started = self.clock()
        try:
            with self.db.state_lock.read_locked():
                plan = self.db.runtime.explain(query)
        except Exception as error:  # noqa: BLE001 - the ticket transports the error
            self.metrics.failed.inc()
            ticket._fail(error)
            return ticket
        ticket.metrics.service_seconds = self.clock() - started
        ticket.metrics.queue_wait_seconds = 0.0
        self.metrics.explained.inc()
        ticket._resolve(ExplainResult(plan=plan, text=plan.render()))
        return ticket

    def execute(
        self,
        sql: "str | Query | ExplainQuery",
        session: ClientSession | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Submit and block for the answer (convenience wrapper)."""
        return self.submit(sql, session=session).result(timeout=timeout)

    # -- cache invalidation (called by the facade) --------------------------------
    def invalidate_cache(self, reason: str = "samples-rebuilt") -> int:
        """Drop all cached results; called when samples/data change."""
        if self.cache is None:
            return 0
        dropped = self.cache.invalidate(reason)
        self.metrics.cache_invalidations.inc()
        return dropped

    def invalidate_cache_table(self, table: str, reason: str = "table-append") -> int:
        """Drop one table's cached results (the streaming-ingest fence).

        Appends only invalidate the appended table: its generation is bumped
        (dropping its entries and refusing in-flight inserts computed against
        the previous generation) while every other table's answers keep
        serving from cache.
        """
        if self.cache is None:
            return 0
        dropped = self.cache.invalidate_table(table, reason)
        self.metrics.cache_invalidations.inc()
        return dropped

    # -- worker loop ---------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self.scheduler.pop(timeout=0.5)
            if item is None:
                if self.scheduler.closed and self.scheduler.depth() == 0:
                    return
                continue
            work = item.payload
            assert isinstance(work, _WorkItem)
            try:
                self._serve(work, item)
            finally:
                # Release the item's in-flight charge so admission ETAs see
                # only work that is actually pending.
                self.scheduler.task_done(item)

    def _serve(self, work: _WorkItem, item: ScheduledItem) -> None:
        ticket = work.ticket
        queue_wait = self.clock() - item.enqueued_at
        ticket.metrics.queue_wait_seconds = queue_wait
        ticket.metrics.worker = threading.current_thread().name
        self.metrics.queue_wait.observe(queue_wait)
        generation = (
            self.cache.generation_for(ticket.query.table) if self.cache is not None else 0
        )
        started = self.clock()
        progress = ticket._on_progress if work.progressive else None
        trace_attrs: dict[str, object] = {"table": ticket.query.table}
        if ticket.request_id is not None:
            # Wire-level request id: ties the server's span tree back to the
            # client's X-Request-Id header for cross-process correlation.
            trace_attrs["request_id"] = ticket.request_id
        trace = self.db.obs.tracer.begin(force=work.analyze, **trace_attrs)
        if trace.sampled:
            # The queue wait predates the trace: backdate the root to the
            # submission instant and attach the measured interval, so the
            # span tree covers the query's whole service lifecycle.
            trace.root.start_s = min(trace.root.start_s, ticket.submitted_at)
            trace.root.record_span(
                "admission-wait",
                ticket.submitted_at,
                started,
                admission=ticket.metrics.admission,
                tenant=ticket.tenant,
            )
        analyzed: AnalyzeResult | None = None
        # Queries are read-only, so a failed execution is safe to re-submit
        # verbatim (progressive snapshots simply restart).  Admission
        # rejections are final — re-running cannot change the verdict.
        attempt = 0
        while True:
            injector = _fault_active()
            if injector is not None:
                decision = injector.check("service.slow_worker")
                if decision is not None and decision.latency_seconds > 0.0:
                    time.sleep(decision.latency_seconds)
            try:
                with self.db.state_lock.read_locked():
                    if work.analyze:
                        analyzed = self.db._explain_analyze_locked(ticket.query, trace=trace)
                        result = analyzed.result
                    else:
                        result = self.db.runtime.execute(
                            ticket.query,
                            progress=progress,
                            trace=trace,
                            # The admitted time bound caps how long the
                            # process backend may hold this query (a hung
                            # worker must not push a WITHIN bound).
                            wall_timeout_seconds=item.time_bound_seconds,
                        )
                break
            except QueryRejectedError as error:
                ticket.metrics.service_seconds = self.clock() - started
                self.metrics.failed.inc()
                self.metrics.record_template(work.label, cache_hit=False)
                self._release_ticket_quota(ticket, completed=False)
                ticket._fail(error)
                return
            except Exception as error:  # noqa: BLE001 - the ticket transports the error
                if attempt < self.retries:
                    attempt += 1
                    self.metrics.retries.inc()
                    if trace.sampled:
                        now = self.clock()
                        trace.root.record_span(
                            "retry",
                            now,
                            now,
                            attempt=attempt,
                            error=f"{type(error).__name__}: {error}",
                        )
                    time.sleep(
                        self.retry_backoff_seconds * (2.0 ** (attempt - 1))
                    )
                    continue
                ticket.metrics.service_seconds = self.clock() - started
                self.metrics.failed.inc()
                self.metrics.record_template(work.label, cache_hit=False)
                self._release_ticket_quota(ticket, completed=False)
                ticket._fail(error)
                return

        simulated = result.simulated_latency_seconds
        service_seconds = self.clock() - started
        ticket.metrics.service_seconds = service_seconds
        ticket.metrics.sample_name = result.sample_name
        ticket.metrics.simulated_latency_seconds = simulated
        decision = result.metadata.get("decision")
        if decision is not None and getattr(decision, "predicted_latency_seconds", None) is not None:
            ticket.metrics.predicted_latency_seconds = decision.predicted_latency_seconds

        if self.cache is not None and not work.analyze:
            self.cache.put(work.key, result, table=ticket.query.table, generation=generation)
        self._observe_service_time(work.label, simulated, service_seconds)
        self.metrics.service_time.observe(service_seconds)
        if simulated is not None:
            self.metrics.simulated_latency.observe(simulated)
        self.metrics.completed.inc()
        self.metrics.record_template(work.label, cache_hit=False)
        self.metrics.total_latency.observe(self.clock() - ticket.submitted_at)
        self._release_ticket_quota(
            ticket, completed=True, rows_read=int(result.rows_read or 0)
        )
        ticket._resolve(analyzed if analyzed is not None else result)

    # -- latency prediction ---------------------------------------------------------
    def _predict_seconds(self, label: str, time_bound: float | None) -> float:
        """Predicted (simulated) service seconds for admission control.

        Per-template EWMA of observed simulated latencies, seeded with
        ``default_predicted_seconds``.  A time-bounded query never predicts
        above its own bound: the runtime picks a resolution that fits the
        bound when one exists, so the bound caps the expected service time.
        """
        with self._ewma_lock:
            predicted = self._predicted_by_template.get(label, self.default_predicted_seconds)
        if time_bound is not None:
            predicted = min(predicted, time_bound)
        return predicted

    def _observe_service_time(
        self, label: str, simulated: float | None, wall_seconds: float
    ) -> None:
        observed = simulated if simulated is not None else wall_seconds
        with self._ewma_lock:
            previous = self._predicted_by_template.get(label)
            if previous is None:
                self._predicted_by_template[label] = observed
            else:
                alpha = self._ewma_alpha
                self._predicted_by_template[label] = alpha * observed + (1 - alpha) * previous

    # -- introspection ----------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """A JSON-friendly snapshot of the service, its queue, and its cache."""
        return {
            "name": self.name,
            "num_workers": self.num_workers,
            "started": self._started,
            "closed": self._closed,
            "sessions": len(self.sessions()),
            "scheduler": self.scheduler.describe(),
            "cache": self.cache.describe() if self.cache is not None else None,
            "metrics": self.metrics.describe(self.db.runtime.stats, self.db.ingest_stats()),
            "tenants": self.tenants.describe() if self.tenants is not None else None,
        }
