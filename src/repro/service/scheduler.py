"""Deadline-aware admission control and EDF scheduling.

BlinkQL queries carry an explicit latency contract (``WITHIN n SECONDS``), so
the service queue does not have to guess what the user wants: it can order
work by deadline (earliest-deadline-first) and refuse work whose contract is
already hopeless given the backlog — returning an immediate rejection is
strictly more useful to an interactive analyst than a late answer.

Deadlines and predicted service times live on the *simulated cluster* clock,
the same clock the Error-Latency-Profile predictions and the ``WITHIN``
bounds are expressed in.  The scheduler advances a virtual "dispatch clock"
as work leaves the queue: each item charges ``predicted / num_workers``
seconds, which is the steady-state drain rate of a pool of identical
workers.  This keeps admission decisions deterministic and unit-testable —
no wall-clock sleeps are involved.

Admission policy for a query with time bound ``t`` and predicted service
time ``p``:

    admit  iff  (backlog + in_flight) / num_workers + p  <=  t * (1 + slack)

where ``backlog`` is the predicted work still queued and ``in_flight`` the
predicted work of items already dispatched to workers but not yet reported
finished via :meth:`DeadlineScheduler.task_done`.

Unbounded queries are always admitted (subject to the queue-depth cap) with
an infinite deadline, so they drain after every deadline-bound query — the
EDF order degrades to FIFO among them via the submission sequence number.

Queued items can be *cancelled* (:meth:`DeadlineScheduler.cancel`): a
cancelled item is skipped by ``pop`` and its predicted charge is released
immediately, which is what wires the network protocol's ``cancel`` and the
service's graceful ``close`` to the queue.

:class:`FairShareScheduler` layers multi-tenant fairness on top: one EDF
sub-queue per tenant, served by deficit round-robin over predicted service
*seconds* (weighted by :meth:`~repro.service.tenancy.TenantRegistry.weight_of`).
Under contention every backlogged tenant receives service seconds in
proportion to its weight — a hot tenant fills only its own queue — while
within each tenant the EDF contract is unchanged.
"""

from __future__ import annotations

import enum
import heapq
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.common.clock import monotonic
from repro.service.tenancy import DEFAULT_TENANT, TenantRegistry


class Admission(enum.Enum):
    """Outcome of admission control for one submitted query."""

    ADMITTED = "admitted"
    SHED_DEADLINE = "shed-deadline"
    SHED_QUEUE_FULL = "shed-queue-full"
    SHED_QUOTA = "shed-quota"

    @property
    def admitted(self) -> bool:
        return self is Admission.ADMITTED


@dataclass
class ScheduledItem:
    """One queued query with its EDF ordering key.

    ``deadline`` is expressed on the scheduler's virtual clock (simulated
    seconds); ``enqueued_at`` is wall-clock time for queue-wait metrics.
    """

    seq: int
    deadline: float
    predicted_seconds: float
    time_bound_seconds: float | None
    payload: object
    enqueued_at: float = field(default_factory=monotonic)
    tenant: str = DEFAULT_TENANT
    #: Flipped by :meth:`DeadlineScheduler.cancel`; ``pop`` skips the item.
    cancelled: bool = False
    #: True while the item sits in a queue (False once popped/cancelled out).
    queued: bool = False


class SchedulerClosed(RuntimeError):
    """Raised when submitting to a scheduler that has been shut down."""


class DeadlineScheduler:
    """An EDF priority queue with deadline- and depth-based load shedding."""

    def __init__(
        self,
        num_workers: int = 1,
        max_queue_depth: int | None = 256,
        deadline_slack: float = 0.0,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None for unbounded)")
        if deadline_slack < 0:
            raise ValueError("deadline_slack must be >= 0")
        self.num_workers = num_workers
        self.max_queue_depth = max_queue_depth
        self.deadline_slack = deadline_slack
        self._clock = clock
        self._cond = threading.Condition()
        self._seq = 0
        self._pending = 0
        self._virtual_now = 0.0
        self._backlog_seconds = 0.0
        self._in_flight_seconds = 0.0
        self._closed = False
        self._heap: list[tuple[float, int, ScheduledItem]] = []

    # -- queue structure (overridden by FairShareScheduler) ------------------------
    def _enqueue(self, item: ScheduledItem) -> None:
        heapq.heappush(self._heap, (item.deadline, item.seq, item))

    def _dequeue(self) -> ScheduledItem | None:
        """Pop the next live item, discarding cancelled ones; lock held."""
        while self._heap:
            _, _, item = heapq.heappop(self._heap)
            if item.cancelled:
                continue
            return item
        return None

    # -- admission ---------------------------------------------------------------
    def try_admit(
        self,
        payload: object,
        predicted_seconds: float,
        time_bound_seconds: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> tuple[Admission, ScheduledItem | None]:
        """Apply the admission policy and enqueue on success."""
        predicted = max(0.0, float(predicted_seconds))
        with self._cond:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            if self.max_queue_depth is not None and self._pending >= self.max_queue_depth:
                return Admission.SHED_QUEUE_FULL, None
            if time_bound_seconds is not None:
                pending = self._backlog_seconds + self._in_flight_seconds
                eta = pending / self.num_workers + predicted
                if eta > time_bound_seconds * (1.0 + self.deadline_slack):
                    return Admission.SHED_DEADLINE, None
                deadline = self._virtual_now + time_bound_seconds
            else:
                deadline = math.inf
            self._seq += 1
            item = ScheduledItem(
                seq=self._seq,
                deadline=deadline,
                predicted_seconds=predicted,
                time_bound_seconds=time_bound_seconds,
                payload=payload,
                enqueued_at=self._clock(),
                tenant=tenant,
                queued=True,
            )
            self._enqueue(item)
            self._pending += 1
            self._backlog_seconds += predicted
            self._cond.notify()
            return Admission.ADMITTED, item

    # -- dispatch ----------------------------------------------------------------
    def pop(self, timeout: float | None = None) -> ScheduledItem | None:
        """Remove and return the next item, blocking while empty.

        Returns ``None`` when the scheduler is closed and drained, or when
        the timeout expires.  Cancelled items are discarded silently.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                while self._pending == 0:
                    if self._closed:
                        return None
                    remaining = None if deadline is None else deadline - self._clock()
                    if remaining is not None and remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                item = self._dequeue()
                if item is None:
                    # Every queued entry was cancelled; their charges were
                    # already released, so just reconcile the counter.
                    self._pending = 0
                    continue
                item.queued = False
                self._pending -= 1
                self._backlog_seconds = max(
                    0.0, self._backlog_seconds - item.predicted_seconds
                )
                self._in_flight_seconds += item.predicted_seconds
                self._virtual_now += item.predicted_seconds / self.num_workers
                return item

    def task_done(self, item: ScheduledItem) -> None:
        """Report a popped item finished, releasing its in-flight charge."""
        with self._cond:
            self._in_flight_seconds = max(
                0.0, self._in_flight_seconds - item.predicted_seconds
            )

    # -- cancellation ------------------------------------------------------------
    def cancel(self, item: ScheduledItem) -> bool:
        """Cancel a still-queued item; returns False if it already ran.

        The item stays in its queue (lazy deletion) but ``pop`` will skip
        it; its predicted charge is released immediately so admission ETAs
        stop counting it.
        """
        with self._cond:
            if item.cancelled or not item.queued:
                return False
            item.cancelled = True
            item.queued = False
            self._pending -= 1
            self._backlog_seconds = max(
                0.0, self._backlog_seconds - item.predicted_seconds
            )
            return True

    def drain(self) -> list[ScheduledItem]:
        """Remove and return every queued item (deterministic shutdown path).

        Charges are released; the caller is expected to fail each item's
        ticket.  Wakes blocked ``pop`` callers so a closing scheduler's
        workers observe the now-empty queue.
        """
        with self._cond:
            drained: list[ScheduledItem] = []
            while True:
                item = self._dequeue()
                if item is None:
                    break
                item.queued = False
                drained.append(item)
            self._pending = 0
            self._backlog_seconds = 0.0
            self._cond.notify_all()
            return drained

    # -- lifecycle / introspection -----------------------------------------------
    def close(self) -> None:
        """Stop accepting work; blocked ``pop`` calls drain the queue then return None."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def depth(self) -> int:
        with self._cond:
            return self._pending

    def predicted_backlog_seconds(self) -> float:
        with self._cond:
            return self._backlog_seconds

    def in_flight_seconds(self) -> float:
        with self._cond:
            return self._in_flight_seconds

    def virtual_now(self) -> float:
        with self._cond:
            return self._virtual_now

    def describe(self) -> dict[str, object]:
        with self._cond:
            return {
                "depth": self._pending,
                "backlog_predicted_s": round(self._backlog_seconds, 4),
                "in_flight_predicted_s": round(self._in_flight_seconds, 4),
                "virtual_now_s": round(self._virtual_now, 4),
                "num_workers": self.num_workers,
                "max_queue_depth": self.max_queue_depth,
                "deadline_slack": self.deadline_slack,
                "closed": self._closed,
            }


class FairShareScheduler(DeadlineScheduler):
    """Deficit-round-robin dispatch over per-tenant EDF queues.

    Each tenant owns an EDF heap; ``pop`` serves tenants in rotation,
    granting each visited tenant ``quantum_seconds * weight`` of *deficit*
    and dispatching its earliest-deadline item once the accumulated deficit
    covers the item's predicted service seconds.  A tenant whose queue
    empties forfeits its deficit (classic DRR), so idle time is never
    banked.  Fairness is therefore in predicted service seconds — the same
    currency as admission control — not in query counts, which is what makes
    one tenant's expensive scans unable to crowd out another's cheap
    lookups.

    Starvation-freedom: every backlogged tenant is visited once per
    rotation and gains a positive deficit each visit, so after at most
    ``ceil(max_predicted / (quantum * weight))`` rotations its head item is
    dispatched.
    """

    def __init__(
        self,
        num_workers: int = 1,
        max_queue_depth: int | None = 256,
        deadline_slack: float = 0.0,
        clock: Callable[[], float] = monotonic,
        tenants: TenantRegistry | None = None,
        quantum_seconds: float = 0.25,
    ) -> None:
        if quantum_seconds <= 0:
            raise ValueError("quantum_seconds must be positive")
        super().__init__(
            num_workers=num_workers,
            max_queue_depth=max_queue_depth,
            deadline_slack=deadline_slack,
            clock=clock,
        )
        self.tenants = tenants or TenantRegistry()
        self.quantum_seconds = quantum_seconds
        self._queues: dict[str, list[tuple[float, int, ScheduledItem]]] = {}
        self._rotation: deque[str] = deque()
        self._deficits: dict[str, float] = {}

    def _enqueue(self, item: ScheduledItem) -> None:
        queue = self._queues.get(item.tenant)
        if queue is None:
            queue = []
            self._queues[item.tenant] = queue
        if not queue:
            self._rotation.append(item.tenant)
            self._deficits.setdefault(item.tenant, 0.0)
        heapq.heappush(queue, (item.deadline, item.seq, item))

    def _head(self, tenant: str) -> ScheduledItem | None:
        """The tenant's earliest live item, discarding cancelled heads."""
        queue = self._queues.get(tenant)
        if not queue:
            return None
        while queue:
            item = queue[0][2]
            if item.cancelled:
                heapq.heappop(queue)
                continue
            return item
        return None

    def _retire(self, tenant: str) -> None:
        """Drop an emptied tenant from the rotation, forfeiting its deficit."""
        try:
            self._rotation.remove(tenant)
        except ValueError:
            pass
        self._deficits.pop(tenant, None)

    def _dequeue(self) -> ScheduledItem | None:
        while self._rotation:
            visited = 0
            dispatched: ScheduledItem | None = None
            rounds = len(self._rotation)
            while visited < rounds and self._rotation:
                tenant = self._rotation[0]
                head = self._head(tenant)
                if head is None:
                    self._retire(tenant)
                    continue
                cost = max(head.predicted_seconds, 1e-9)
                if self._deficits.get(tenant, 0.0) >= cost or len(self._rotation) == 1:
                    heapq.heappop(self._queues[tenant])
                    self._deficits[tenant] = max(
                        0.0, self._deficits.get(tenant, 0.0) - cost
                    )
                    if self._head(tenant) is None:
                        self._retire(tenant)
                    dispatched = head
                    break
                # Visit: grant the tenant its weighted quantum and move on.
                self._deficits[tenant] = self._deficits.get(
                    tenant, 0.0
                ) + self.quantum_seconds * self.tenants.weight_of(tenant)
                self._rotation.rotate(-1)
                visited += 1
            if dispatched is not None:
                return dispatched
            if not self._rotation:
                return None
            # Full rotation without a dispatch: deficits grew by one quantum
            # each, so looping again terminates (deficit is unbounded only
            # until it covers the cheapest head).
        return None

    def describe(self) -> dict[str, object]:
        base = super().describe()
        with self._cond:
            base["fair_share"] = {
                "quantum_seconds": self.quantum_seconds,
                "tenants_queued": {
                    tenant: sum(1 for _, _, item in queue if not item.cancelled)
                    for tenant, queue in self._queues.items()
                    if queue
                },
                "deficits": {
                    tenant: round(deficit, 4)
                    for tenant, deficit in self._deficits.items()
                },
            }
        return base
