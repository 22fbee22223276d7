"""Process-parallel partition execution over shared-memory blocks.

The partition pipeline's thread pool keeps the *schedule* honest but not the
wall clock: CPython threads share one GIL, so fanning CPU-bound partial
aggregation over threads buys nothing.  This module is the escape hatch —
a persistent spawn-based :class:`ProcessPartitionPool` whose workers

* **attach** exported tables by shared-memory handle
  (:mod:`repro.storage.shm`): the O(rows) column data never crosses the
  process boundary, only the small picklable handle does;
* **execute** the filter + partial-aggregation stage with their own
  :class:`~repro.engine.executor.QueryExecutor` (zone maps and kernels
  included — the exporter ships its zone-map metadata in the handle);
* **ship back** only the compact serialized
  :class:`~repro.engine.accumulators.PartialAggregation` states —
  O(groups × aggregates) bytes per partition, never O(rows).

The pool is deliberately dumb about *what* it runs.  The runtime binds
:meth:`ProcessPartitionPool.map_partitions` to one sample resolution and
hands it to :class:`~repro.runtime.partitioned.PartitionPipeline` as its
optional offload callable.  The call returns ``(partials or None,
backend_info)``, and it alone decides every decline — a plan with joins, an
unavailable pool, a single partition, an open breaker, a failed export, a
stale handle, a fault that left nothing computed — naming the reason in
``backend_info["fallback_reason"]``.  On ``None`` the pipeline runs the
partitions on its thread pool with identical semantics: the process backend
can degrade, never break, a query.

Failure model: worker faults are *expected*, not terminal.  One round loop
(:meth:`ProcessPartitionPool._run_rounds`) submits the tasks, waits under
the per-task and per-call deadlines, recycles the pool (respawn) when a
dead worker breaks the round, and re-dispatches the failed tasks with capped
exponential backoff + seeded jitter for a bounded number of rounds.  A hung
worker's task is cancelled at its deadline and the pool recycled, which
terminates the worker; :meth:`~ProcessPartitionPool.map_partitions` then
recomputes that chunk, and any chunk that exhausted its retries, on the
calling thread one partition at a time.  A partition that still cannot be
computed is **surrendered** — returned as a ``None`` hole for the pipeline's
anytime/coverage machinery to scale around, never silently wrong.  A
:class:`~repro.faults.breaker.CircuitBreaker` sits in front of admission:
repeated faulted queries trip the backend to threads entirely, with a
half-open probe after a cooldown.  Only spawn-time platform failures retire
the pool permanently.

Segment lifecycle is *epoch*-fenced: each runtime generation takes an epoch
(:meth:`ProcessPartitionPool.new_epoch`), registers its table exports under
it, and releases the whole epoch when the facade invalidates the runtime
(append / ``load_table`` / sample rebuild).  Workers only ever close their
attach-side mappings; the parent owns every unlink, so no segment outlives
the generation that exported it — even when workers died uncleanly,
``close()`` unlinks first and only then tears the pool down.

Beyond queries, :meth:`ProcessPartitionPool.map_calls` runs arbitrary
module-level functions on the same workers and heals in the same rounds —
sample builds fan per-stratum permutation work out through it, and ingest
maintenance fans its per-family batch preparation — so writes scale on the
same pool as reads.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.common.clock import monotonic
from repro.common.rng import index_uniforms
from repro.engine.accumulators import PartialAggregation
from repro.engine.executor import QueryExecutor
from repro.engine.kernels import ScanCounters, ScanSink
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.injector import active as _fault_active
from repro.faults.plan import FaultInjectedError
from repro.obs.trace import NULL_SPAN, AnySpan
from repro.planner.logical import LogicalPlan
from repro.storage import shm
from repro.storage.block import Block, TablePartition
from repro.storage.table import Table

#: How many attached segments each worker keeps mapped (LRU).  A segment is
#: attached once per worker and reused across every query of its generation;
#: the cache only matters when many tables/resolutions rotate through.
_SEGMENT_CACHE = 8

#: Ceiling of the retry backoff between re-dispatch rounds.
_MAX_BACKOFF_SECONDS = 1.0


# -- worker side --------------------------------------------------------------------
#
# Workers are spawned (never forked: fork would snapshot the parent's locks,
# kernel caches, and numpy state) with `_worker_init` as the initializer.
# All worker state lives in this module-global dict, keyed per process.

_WORKER: dict[str, Any] = {}


def _worker_init(executor_options: dict[str, Any]) -> None:
    """Per-process initializer: a private executor + an attach cache."""
    _WORKER["executor"] = QueryExecutor(**executor_options)
    _WORKER["segments"] = OrderedDict()


def _attached(handle: shm.SharedTableHandle) -> shm.AttachedTable:
    """Attach ``handle``'s segment (cached per worker, LRU-evicted)."""
    segments: OrderedDict[str, shm.AttachedTable] = _WORKER["segments"]
    cached = segments.get(handle.segment)
    if cached is not None:
        segments.move_to_end(handle.segment)
        return cached
    attached = shm.attach_table(handle)
    segments[handle.segment] = attached
    while len(segments) > _SEGMENT_CACHE:
        _, evicted = segments.popitem(last=False)
        evicted.close()
    return attached


def _warm() -> int:
    """No-op task used to force worker spawn + import cost up front."""
    return os.getpid()


def _run_partition_chunk(
    handle: shm.SharedTableHandle,
    plan_blob: bytes,
    ranges: Sequence[tuple[int, int, int, int, int]],
    fault: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Partial-aggregate a chunk of row-range partitions of one shared table.

    ``ranges`` holds ``(position, block_index, row_start, row_end,
    size_bytes)`` tuples — ``position`` is the caller's slot for the partial,
    the rest rebuild the zero-copy :class:`TablePartition` over the attached
    table exactly as the parent's ``table.partitions()`` would.

    ``fault`` is a directive evaluated by the *parent's* fault injector at
    submit time (workers carry no injector): ``crash`` hard-exits the
    process, ``hang`` sleeps past the parent's task deadline, and
    ``attach_fail`` raises a picklable :class:`FaultInjectedError`.

    Returns a small dict: serialized partials, span records relative to the
    task's own clock (the parent re-anchors them into the query trace), the
    worker's scan-counter snapshot, and its pid.
    """
    if fault is not None:
        kind = fault.get("kind")
        if kind == "crash":
            os._exit(1)
        elif kind == "hang":
            time.sleep(float(fault.get("seconds", 1.0)))
        elif kind == "attach_fail":
            raise FaultInjectedError(
                f"injected fault at shm.attach_fail (worker attach of {handle.segment!r})"
            )
    t0 = time.monotonic()
    executor: QueryExecutor = _WORKER["executor"]
    attached = _attached(handle)
    plan = pickle.loads(plan_blob)
    sink = ScanSink()
    partials: list[tuple[int, bytes]] = []
    spans: list[tuple[str, float, float, dict[str, Any]]] = []
    for position, block_index, row_start, row_end, size_bytes in ranges:
        started = time.monotonic() - t0
        block = Block(handle.name, block_index, row_start, row_end, size_bytes)
        weights = (
            attached.weights[row_start:row_end]
            if attached.weights is not None
            else None
        )
        partition = TablePartition(source=attached.table, block=block, weights=weights)
        partial = executor.partial_aggregate_partition(plan, partition, sink=sink)
        spans.append(
            (
                "partition",
                started,
                time.monotonic() - t0,
                {"rows": row_end - row_start, "backend": "process"},
            )
        )
        partials.append((position, partial.to_bytes()))
    return {
        "partials": partials,
        "spans": spans,
        "elapsed": time.monotonic() - t0,
        "scan": sink.as_dict(),
        "pid": os.getpid(),
    }


def stratum_permutations_task(
    handle: shm.SharedTableHandle, columns: tuple[str, ...]
) -> tuple:
    """Worker task: per-stratum permutations of one shared table.

    :func:`~repro.sampling.stratified.stratum_permutations` is deterministic
    in (table name, column set) — ``stable_rng``-seeded — so the result is
    bit-identical to the parent computing it; only the O(rows) group-and-sort
    work moves off the parent.  Imported lazily: the sampling layer is not a
    dependency of the pool itself.
    """
    from repro.sampling.stratified import stratum_permutations

    attached = _attached(handle)
    return stratum_permutations(attached.table, tuple(columns))


# -- parent side --------------------------------------------------------------------


@dataclass
class _Rounds:
    """What :meth:`ProcessPartitionPool._run_rounds` leaves behind.

    ``results`` maps task index to result in gather order; ``hedged`` holds
    the tasks cancelled at their deadline and ``pending`` the ones still
    failing when the rounds ran out.  ``fault`` describes the first fault and
    ``error`` names the type of the first exception.
    """

    pending: list[int]
    results: dict[int, Any] = field(default_factory=dict)
    hedged: list[int] = field(default_factory=list)
    fault: str | None = None
    error: str | None = None
    retries: int = 0
    tasks: int = 0

    def fail(self, cause: BaseException | str) -> None:
        """Note a fault; only the first one is kept."""
        if isinstance(cause, BaseException):
            self.error = self.error or type(cause).__name__
            cause = f"{type(cause).__name__}: {cause}"
        self.fault = self.fault or cause


class ProcessPartitionPool:
    """A persistent spawn-based worker pool over shared-memory table exports.

    Owned by the facade (one pool for the process, surviving runtime
    rebuilds); runtimes rent *epochs* from it and register their table
    exports under the epoch, so releasing the epoch unlinks exactly the
    segments of that generation.  All entry points degrade by returning
    ``None``/``False`` instead of raising — the caller always has a
    same-semantics thread or inline path to fall back to.  Worker faults
    heal in place (respawn + retry + hedge); only spawn-time platform
    failures retire the pool.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        zone_block_rows: int | None = None,
        task_timeout_seconds: float | None = 30.0,
        retry_attempts: int = 2,
        retry_backoff_seconds: float = 0.05,
        breaker_threshold: int = 3,
        breaker_cooldown_seconds: float = 5.0,
        thread_redispatch: bool = True,
    ) -> None:
        cpu = os.cpu_count() or 1
        self.max_workers = max(1, int(max_workers) if max_workers else cpu)
        self._executor_options = {"zone_block_rows": zone_block_rows}
        self.task_timeout_seconds = task_timeout_seconds
        self.retry_attempts = max(0, int(retry_attempts))
        self.retry_backoff_seconds = max(0.0, retry_backoff_seconds)
        self.thread_redispatch = thread_redispatch
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown_seconds,
        )
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._failure: str | None = None
        self._epoch_counter = 0
        self._exports: dict[tuple[int, str], shm.TableExport] = {}
        # Lifetime counters (exposed as db.metrics()["procpool"] gauges).
        self._queries = 0
        self._tasks = 0
        self._partials_shipped = 0
        self._bytes_shipped_total = 0
        self._bytes_shipped_last = 0
        self._segments_exported = 0
        self._bytes_exported = 0
        # Healing counters.
        self._retries = 0
        self._respawns = 0
        self._hedges = 0
        self._surrendered = 0
        self._thread_redispatches = 0
        self._fallbacks: dict[str, int] = {}

    # -- availability --------------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether the process backend can run here (or has permanently failed)."""
        return self.fallback_reason is None

    @property
    def fallback_reason(self) -> str | None:
        """Why the backend is unavailable, or ``None`` when it is usable."""
        if self._closed:
            return "pool closed"
        if self._failure is not None:
            return self._failure
        if not shm.shared_memory_available():
            return "shared memory unavailable"
        return None

    def _record_fallback(self, reason: str) -> None:
        """Count one thread-fallback event under a short reason slug."""
        slug = reason.strip().lower().replace(" ", "_")[:64] or "unknown"
        with self._lock:
            self._fallbacks[slug] = self._fallbacks.get(slug, 0) + 1

    def _decline(self, reason: str) -> tuple[None, dict[str, Any]]:
        """Count a fallback under ``reason`` and hand the query back to threads."""
        self._record_fallback(reason)
        return None, {"fallback_reason": reason}

    def _mark_failed(self, exc: BaseException) -> None:
        """Record a *permanent* platform failure and retire the pool.

        Reserved for spawn-time problems (no fork support, resource limits).
        Worker deaths and task faults go through :meth:`_recycle_pool`
        instead — those heal.
        """
        with self._lock:
            if self._failure is None:
                self._failure = f"{type(exc).__name__}: {exc}"
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        with self._lock:
            if self._closed or self._failure is not None:
                return None
            if self._pool is None:
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.max_workers,
                        mp_context=get_context("spawn"),
                        initializer=_worker_init,
                        initargs=(dict(self._executor_options),),
                    )
                except Exception as exc:  # pragma: no cover - platform-specific
                    self._failure = f"{type(exc).__name__}: {exc}"
                    return None
            return self._pool

    def _recycle_pool(self) -> None:
        """Tear down a broken/hung pool so the next round respawns fresh.

        Unlike :meth:`_mark_failed` this keeps the backend available:
        ``_ensure_pool`` spawns a new executor on the next use.  Lingering
        worker processes (a hung worker sleeps through ``shutdown``) are
        terminated so they can't pin attach-side segment mappings.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                self._respawns += 1
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:  # pragma: no cover - raced process exit
                pass

    def worker_pids(self) -> list[int]:
        """Pids of the currently spawned workers (for chaos tests)."""
        with self._lock:
            pool = self._pool
        if pool is None:
            return []
        return [
            proc.pid
            for proc in getattr(pool, "_processes", {}).values()
            if proc.pid is not None
        ]

    def warm(self, timeout: float | None = 60.0) -> bool:
        """Spawn all workers now (spawn + import cost off the first query)."""
        if not self.available:
            return False
        pool = self._ensure_pool()
        if pool is None:
            return False
        try:
            futures = [pool.submit(_warm) for _ in range(self.max_workers)]
            for future in futures:
                future.result(timeout=timeout)
        except Exception as exc:
            self._mark_failed(exc)
            return False
        return True

    # -- epoch-fenced exports ------------------------------------------------------
    def new_epoch(self) -> int:
        """A fresh export epoch (one per runtime generation)."""
        with self._lock:
            self._epoch_counter += 1
            return self._epoch_counter

    def ensure_export(
        self, epoch: int, key: str, table, weights=None
    ) -> shm.SharedTableHandle | None:
        """Export ``table`` under ``(epoch, key)`` once; return its handle.

        Idempotent per key: repeated calls for the same resolution reuse the
        first export.  Returns ``None`` when exporting is impossible (shm
        unavailable / pool closed) or fails — the caller then falls back.
        """
        return self._export(epoch, key, table, weights)[0]

    def _export(
        self, epoch: int, key: str, table, weights
    ) -> tuple[shm.SharedTableHandle | None, dict[str, Any]]:
        """:meth:`ensure_export`, plus why it declined when it did.

        An export failure (e.g. memory pressure on ``/dev/shm``) counts
        against the breaker but does not retire the pool: the segment may
        well fit next time.
        """
        if not self.available:
            return None, {"fallback_reason": self.fallback_reason}
        with self._lock:
            existing = self._exports.get((epoch, key))
            if existing is not None and not existing.closed:
                return existing.handle, {}
        try:
            export = shm.export_table(table, weights)
        except Exception as exc:
            self.breaker.record_failure()
            return self._decline(f"export_failed: {type(exc).__name__}")
        with self._lock:
            if self._closed:
                export.close()
                return None, {"fallback_reason": self.fallback_reason}
            raced = self._exports.get((epoch, key))
            if raced is not None and not raced.closed:
                export.close()
                return raced.handle, {}
            self._exports[(epoch, key)] = export
            self._segments_exported += 1
            self._bytes_exported += export.nbytes
        return export.handle, {}

    def release_epoch(self, epoch: int) -> None:
        """Close + unlink every segment exported under ``epoch`` (idempotent)."""
        with self._lock:
            keys = [k for k in self._exports if k[0] == epoch]
            exports = [self._exports.pop(k) for k in keys]
        for export in exports:
            export.close()

    # -- execution -----------------------------------------------------------------
    def _chunk_fault_directive(
        self, injector: FaultInjector | None
    ) -> dict[str, Any] | None:
        """Evaluate worker-directed fault points for one chunk submission.

        Workers have no injector installed (they are spawned fresh), so the
        parent draws the verdict here — one arrival per point per chunk, in
        a fixed order, keeping the fault schedule deterministic — and ships
        the directive with the task.
        """
        if injector is None:
            return None
        decision = injector.check("procpool.worker_crash")
        if decision is not None:
            return {"kind": "crash"}
        decision = injector.check("procpool.worker_hang")
        if decision is not None:
            return {"kind": "hang", "seconds": decision.latency_seconds or 1.0}
        decision = injector.check("shm.attach_fail")
        if decision is not None:
            return {"kind": "attach_fail"}
        return None

    def _retry_delay(self, round_number: int, salt: int) -> float:
        """Capped exponential backoff with deterministic jitter in [0.5, 1.5)."""
        base = min(
            self.retry_backoff_seconds * (2.0 ** (round_number - 1)),
            _MAX_BACKOFF_SECONDS,
        )
        jitter = index_uniforms(
            np.array([round_number], dtype=np.int64), "procpool", "backoff", salt
        )[0]
        return base * (0.5 + float(jitter))

    def _run_rounds(
        self,
        submit: Callable[[ProcessPoolExecutor, int], Future],
        num_tasks: int,
        *,
        task_timeout: float | None,
        deadline: float | None,
    ) -> _Rounds:
        """Run tasks ``0 .. num_tasks - 1`` on the pool in healing rounds.

        Each round submits every pending task through ``submit`` and waits
        for each under ``task_timeout`` and the call's ``deadline``
        (``monotonic()`` scale).  A task past its deadline is cancelled and
        set aside as *hedged*; a broken pool cancels the round's remaining
        futures at once, keeps any that already finished and re-pends the
        rest; a task that raised is re-pended alone.  After a broken or hung
        round the pool is recycled (terminating the hung worker) so the next
        round respawns it, and the loop sleeps a capped, jittered backoff.
        At most ``retry_attempts`` rounds follow the first.
        """
        out = _Rounds(pending=list(range(num_tasks)))
        round_number = 0
        while out.pending and round_number <= self.retry_attempts:
            if deadline is not None and monotonic() >= deadline:
                break
            round_number += 1
            pool = self._ensure_pool()
            if pool is None:
                out.fail(self._failure or "pool unavailable")
                break

            broken = hung = False
            submitted: list[tuple[int, Future]] = []
            for task in out.pending:
                try:
                    submitted.append((task, submit(pool, task)))
                except Exception as exc:
                    # The pool broke between rounds (a worker died while
                    # idle): unsubmitted tasks stay pending for the respawn.
                    out.fail(exc)
                    broken = True
                    break
            out.tasks += len(submitted)
            submitted_ids = {task for task, _ in submitted}
            next_pending = [task for task in out.pending if task not in submitted_ids]

            for slot, (task, future) in enumerate(submitted):
                wait = task_timeout
                if deadline is not None:
                    remaining = deadline - monotonic()
                    wait = remaining if wait is None else min(wait, remaining)
                try:
                    if wait is not None and wait <= 0.0:
                        raise FuturesTimeoutError()
                    out.results[task] = future.result(timeout=wait)
                except FuturesTimeoutError:
                    future.cancel()
                    hung = True
                    out.fail("worker hang: task deadline exceeded")
                    out.hedged.append(task)
                except BrokenProcessPool as exc:
                    out.fail(exc)
                    broken = True
                    next_pending.append(task)
                    for other_task, other in submitted[slot + 1 :]:
                        other.cancel()
                        if other.done() and not other.cancelled():
                            try:
                                out.results[other_task] = other.result(timeout=0)
                                continue
                            except Exception:
                                pass
                        next_pending.append(other_task)
                    break
                except Exception as exc:
                    # Worker-raised (picklable) failure: only this task
                    # failed, the pool survives.
                    out.fail(exc)
                    next_pending.append(task)

            out.pending = next_pending
            if broken or hung:
                self._recycle_pool()
            if out.pending and round_number <= self.retry_attempts:
                out.retries += len(out.pending)
                delay = self._retry_delay(round_number, salt=len(out.pending))
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - monotonic()))
                if delay > 0.0:
                    time.sleep(delay)
        return out

    def map_partitions(
        self,
        plan: LogicalPlan,
        partitions: Sequence[TablePartition],
        *,
        epoch: int,
        key: str,
        table: Table,
        weights: np.ndarray | None = None,
        sink: ScanSink | None = None,
        executor: QueryExecutor | None = None,
        trace_span: AnySpan = NULL_SPAN,
        deadline: float | None = None,
    ) -> tuple[list[PartialAggregation | None] | None, dict[str, Any]]:
        """Partial-aggregate ``partitions`` of ``table`` in the workers.

        Returns ``(partials, backend_info)``.  ``partials`` is ``None`` when
        the query should run on threads instead, and ``backend_info`` then
        holds the one ``fallback_reason``; this method decides every such
        decline, in this order: ``joins`` (workers hold no dimension tables),
        an unavailable pool, ``single_partition``, ``breaker_open``,
        ``export_failed: <error>`` (``table`` is exported under
        ``(epoch, key)`` once per epoch), ``stale_handle``, and finally a
        fault that left nothing computed.

        Partitions are split into at most ``max_workers`` contiguous chunks
        (one task each: partitions are equal row ranges, so chunks are
        balanced); the plan is pickled once per query.  The chunks run in
        :meth:`_run_rounds`, which also applies ``deadline`` (``monotonic()``
        scale: the service's admission deadline lands here).  Chunks the
        rounds could not finish are recomputed on the calling thread via
        ``executor``, hung ones first; positions that still can't be computed
        come back as ``None`` holes for the caller's coverage machinery.
        Worker span records are re-anchored onto this process's monotonic
        clock (``gather_end - worker_elapsed``) and attached under
        ``trace_span``; worker scan counters merge into ``sink`` and
        ``executor``'s lifetime totals exactly as the thread path would have
        recorded them.  On success ``backend_info`` carries the call's
        healing accounting (retries / hedges / respawns / thread
        redispatches / surrendered, and the first ``fault``).
        """
        if plan.joins:
            return self._decline("joins")
        if not self.available:
            return None, {"fallback_reason": self.fallback_reason}
        if len(partitions) < 2:
            # Before admission: a query that never reaches the workers must
            # not take the half-open probe slot it could not report back on.
            return None, {"fallback_reason": "single_partition"}
        if not self.breaker.allow():
            return self._decline("breaker_open")
        handle, declined = self._export(epoch, key, table, weights)
        if handle is None:
            return None, declined
        if partitions[0].source.num_rows != handle.num_rows:
            # The table changed under its export.
            return self._decline("stale_handle")

        plan_blob = pickle.dumps(plan)
        total = len(partitions)
        num_chunks = min(total, self.max_workers)
        base, extra = divmod(total, num_chunks)
        chunks: list[list[tuple[int, int, int, int, int]]] = []
        position = 0
        for i in range(num_chunks):
            size = base + (1 if i < extra else 0)
            chunk = []
            for pos in range(position, position + size):
                block = partitions[pos].block
                chunk.append(
                    (pos, block.index, block.row_start, block.row_end, block.size_bytes)
                )
            chunks.append(chunk)
            position += size

        injector = _fault_active()

        def submit(pool: ProcessPoolExecutor, chunk_index: int) -> Future:
            directive = self._chunk_fault_directive(injector)
            return pool.submit(
                _run_partition_chunk, handle, plan_blob, chunks[chunk_index], directive
            )

        with self._lock:
            respawns_before = self._respawns
        rounds = self._run_rounds(
            submit,
            len(chunks),
            task_timeout=self.task_timeout_seconds,
            deadline=deadline,
        )

        # Process-side rounds are over; whatever is left goes to the calling
        # thread (hedged hung chunks first, then retry-exhausted ones).
        leftover_positions = [
            entry[0] for ci in rounds.hedged + rounds.pending for entry in chunks[ci]
        ]
        redispatched: list[tuple[int, PartialAggregation]] = []
        if leftover_positions and self.thread_redispatch and executor is not None:
            for pos in leftover_positions:
                if deadline is not None and monotonic() >= deadline:
                    continue
                started = monotonic()
                try:
                    partial = executor.partial_aggregate_partition(
                        plan, partitions[pos], sink=sink
                    )
                except Exception as exc:
                    rounds.fail(exc)
                    continue
                block = partitions[pos].block
                trace_span.record_span(
                    "partition",
                    started,
                    monotonic(),
                    rows=block.row_end - block.row_start,
                    backend="thread-redispatch",
                )
                redispatched.append((pos, partial))

        gather_end = monotonic()
        partials: list[PartialAggregation | None] = [None] * total
        shipped = 0
        for result in rounds.results.values():
            for pos, blob in result["partials"]:
                shipped += len(blob)
                partials[pos] = PartialAggregation.from_bytes(blob)
            # Worker clocks are not our clock: anchor each task's relative
            # span records so the task *ends* at its gather time here.
            anchor = gather_end - result["elapsed"]
            for name, rel_start, rel_end, attrs in result["spans"]:
                trace_span.record_span(
                    name, anchor + rel_start, anchor + rel_end,
                    pid=result["pid"], **attrs,
                )
            scan = dict(result["scan"])
            rows_in = scan.pop("rows_in", 0)
            rows_matched = scan.pop("rows_matched", 0)
            counters = ScanCounters(**scan)
            if executor is not None:
                executor.absorb_scan(counters)
            if sink is not None:
                sink.record_scan(counters)
                if rows_in:
                    sink.record_filter(rows_in, rows_matched)
        for pos, partial in redispatched:
            partials[pos] = partial
        surrendered = sum(1 for p in partials if p is None)

        with self._lock:
            self._queries += 1
            self._tasks += rounds.tasks
            self._partials_shipped += total - surrendered
            self._bytes_shipped_total += shipped
            self._bytes_shipped_last = shipped
            self._retries += rounds.retries
            self._hedges += len(rounds.hedged)
            self._surrendered += surrendered
            self._thread_redispatches += len(redispatched)
            respawns = self._respawns - respawns_before

        if rounds.fault is not None:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        if surrendered == total:
            # Nothing computed at all — wholesale fallback is strictly
            # better than an all-holes answer.
            return self._decline(rounds.fault or "no partitions computed")
        info: dict[str, Any] = {
            "backend": "processes",
            "retries": rounds.retries,
            "hedges": len(rounds.hedged),
            "respawns": respawns,
            "thread_redispatches": len(redispatched),
            "surrendered": surrendered,
        }
        if rounds.fault is not None:
            info["fault"] = rounds.fault
        return partials, info

    def map_calls(
        self, fn: Callable[..., Any], argses: Iterable[tuple]
    ) -> list[Any] | None:
        """Run ``fn(*args)`` per tuple on the pool; ``None`` → run inline.

        ``fn`` must be a module-level function (pickled by reference); its
        arguments typically include a :class:`SharedTableHandle` so the
        worker reads its O(rows) input from shared memory.  Used by sample
        builds and ingest maintenance.  The calls heal in the same rounds as
        :meth:`map_partitions` (respawn, retry, backoff) but carry no task
        deadline; when any call is still unfinished after the last round the
        whole batch returns ``None`` and the caller recomputes it inline.
        """
        calls = list(argses)
        if not calls:
            return []
        if not self.available:
            return None
        rounds = self._run_rounds(
            lambda pool, index: pool.submit(fn, *calls[index]),
            len(calls),
            task_timeout=None,
            deadline=None,
        )
        with self._lock:
            self._tasks += rounds.tasks
            self._retries += rounds.retries
        if rounds.pending or rounds.hedged:
            if rounds.error is not None:
                self._record_fallback(f"map_calls: {rounds.error}")
            return None
        return [rounds.results[index] for index in range(len(calls))]

    # -- observability / lifecycle -------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Pool/IPC gauges (``db.metrics()["procpool"]``); all numeric."""
        breaker_stats = self.breaker.stats()
        with self._lock:
            out = {
                "workers": self.max_workers,
                "started": int(self._pool is not None),
                "available": int(self.available),
                "queries": self._queries,
                "tasks": self._tasks,
                "partials_shipped": self._partials_shipped,
                "bytes_shipped_total": self._bytes_shipped_total,
                "bytes_shipped_last_query": self._bytes_shipped_last,
                "segments_exported": self._segments_exported,
                "segments_active": sum(
                    1 for e in self._exports.values() if not e.closed
                ),
                "bytes_exported": self._bytes_exported,
                "retries": self._retries,
                "respawns": self._respawns,
                "hedges": self._hedges,
                "surrendered": self._surrendered,
                "thread_redispatches": self._thread_redispatches,
            }
            for slug, count in self._fallbacks.items():
                out[f"fallbacks.{slug}"] = count
        out.update(breaker_stats)
        return out

    def close(self) -> None:
        """Unlink every live segment, then shut the workers down (idempotent).

        Unlink-first matters: a SIGKILLed worker can leave the executor's
        management thread wedged, and a ``wait=True`` shutdown before the
        unlink loop would leak every ``/dev/shm`` segment if teardown never
        returned.  POSIX unlink leaves existing worker mappings valid, so
        the order is safe; surviving workers are then terminated rather than
        waited on, and the executor's manager thread gets a *bounded* join —
        it holds the executor's queue semaphores, so reaping it here frees
        their ``/dev/shm`` entries now instead of at interpreter exit, while
        the timeout keeps a wedged manager from hanging ``close()``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            exports = list(self._exports.values())
            self._exports.clear()
        for export in exports:
            export.close()
        if pool is not None:
            procs = list(getattr(pool, "_processes", {}).values())
            manager = getattr(pool, "_executor_manager_thread", None)
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                try:
                    if proc.is_alive():
                        proc.terminate()
                except Exception:  # pragma: no cover - raced process exit
                    pass
            if manager is not None:
                manager.join(timeout=5.0)

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
