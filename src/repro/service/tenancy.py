"""Per-tenant admission state: quotas, token buckets, and fair-share weights.

A *tenant* is one paying customer of the service — a namespace of client
sessions that shares quotas and a fair-share weight.  The data structures
here answer the two multi-tenant questions the network front door asks:

* **May this tenant submit right now?**  :meth:`TenantRegistry.try_acquire`
  enforces a per-tenant in-flight cap (queued + executing queries) and a
  rows-per-second token bucket.  The bucket is *post-paid*: queries are
  charged their actual ``rows_read`` on completion, so a tenant that burns
  through its row budget accumulates debt and is refused — with a computed
  ``retry_after_seconds`` — until the bucket refills.  Post-paying keeps
  admission O(1) and honest (no predicted row counts to game), at the cost
  of letting one burst overshoot by a single query.
* **Who is served next?**  :class:`~repro.service.scheduler.FairShareScheduler`
  consults :meth:`weight_of` to run deficit-round-robin over per-tenant EDF
  queues, so service *seconds* — not query counts — are shared in proportion
  to the configured weights and one hot tenant cannot starve the rest.

Everything is clock-injectable so quota arithmetic is unit-testable without
sleeping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.common.clock import Clock, monotonic

#: Tenant used when the caller does not name one (single-tenant setups).
DEFAULT_TENANT = "public"


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    Attributes
    ----------
    max_in_flight:
        Queries queued or executing at once; further submissions are shed
        with ``shed-quota`` until one completes.  ``None`` is unlimited.
    rows_per_second:
        Sustained scan budget.  Completed queries charge their ``rows_read``
        to a token bucket refilling at this rate (burst capacity
        ``rows_per_second * burst_seconds``); a tenant in debt is shed with
        a ``retry_after_seconds`` hint until the debt drains.  ``None`` is
        unlimited.
    burst_seconds:
        Bucket capacity expressed in seconds of sustained rate.
    weight:
        Fair-share weight for deficit-round-robin dispatch (2.0 gets twice
        the service seconds of 1.0 under contention).
    """

    max_in_flight: int | None = 8
    rows_per_second: float | None = None
    burst_seconds: float = 2.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 (or None for unlimited)")
        if self.rows_per_second is not None and self.rows_per_second <= 0:
            raise ValueError("rows_per_second must be positive (or None for unlimited)")
        if self.burst_seconds <= 0:
            raise ValueError("burst_seconds must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass
class QuotaVerdict:
    """Outcome of one admission check."""

    admitted: bool
    reason: str | None = None
    retry_after_seconds: float | None = None


class _TenantState:
    """Mutable per-tenant counters; guarded by the registry's lock."""

    __slots__ = (
        "quota",
        "in_flight",
        "tokens",
        "refill_at",
        "submitted",
        "completed",
        "shed_quota",
        "cancelled",
        "rows_charged",
    )

    def __init__(self, quota: TenantQuota, now: float) -> None:
        self.quota = quota
        self.in_flight = 0
        # Token bucket in *rows*; starts full and refills at rows_per_second.
        self.tokens = (
            quota.rows_per_second * quota.burst_seconds
            if quota.rows_per_second is not None
            else 0.0
        )
        self.refill_at = now
        self.submitted = 0
        self.completed = 0
        self.shed_quota = 0
        self.cancelled = 0
        self.rows_charged = 0

    def refill(self, now: float) -> None:
        rate = self.quota.rows_per_second
        if rate is None:
            return
        elapsed = max(0.0, now - self.refill_at)
        self.refill_at = now
        cap = rate * self.quota.burst_seconds
        self.tokens = min(cap, self.tokens + elapsed * rate)


class TenantRegistry:
    """Quota state and fair-share weights for every tenant of one service."""

    def __init__(
        self,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        clock: Clock = monotonic,
    ) -> None:
        #: Quota applied to tenants without an explicit entry.
        self.default_quota = default_quota or TenantQuota()
        self._clock = clock
        self._lock = threading.Lock()
        self._quotas: dict[str, TenantQuota] = dict(quotas or {})
        self._states: dict[str, _TenantState] = {}

    # -- configuration ------------------------------------------------------------
    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Install (or replace) one tenant's quota; live counters carry over."""
        with self._lock:
            self._quotas[tenant] = quota
            state = self._states.get(tenant)
            if state is not None:
                state.refill(self._clock())
                state.quota = quota
                if quota.rows_per_second is not None:
                    cap = quota.rows_per_second * quota.burst_seconds
                    state.tokens = min(state.tokens, cap)

    def weight_of(self, tenant: str) -> float:
        with self._lock:
            return self._quotas.get(tenant, self.default_quota).weight

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._states)

    def _state(self, tenant: str) -> _TenantState:
        state = self._states.get(tenant)
        if state is None:
            state = _TenantState(
                self._quotas.get(tenant, self.default_quota), self._clock()
            )
            self._states[tenant] = state
        return state

    # -- admission ----------------------------------------------------------------
    def try_acquire(self, tenant: str) -> QuotaVerdict:
        """Check quotas and, on success, take one in-flight slot."""
        with self._lock:
            state = self._state(tenant)
            state.submitted += 1
            quota = state.quota
            if quota.max_in_flight is not None and state.in_flight >= quota.max_in_flight:
                state.shed_quota += 1
                return QuotaVerdict(
                    False,
                    reason=f"tenant {tenant!r} at max_in_flight={quota.max_in_flight}",
                    # A slot frees when any in-flight query completes; the
                    # bucket horizon is the only deterministic hint we have.
                    retry_after_seconds=0.05,
                )
            if quota.rows_per_second is not None:
                state.refill(self._clock())
                if state.tokens < 0.0:
                    state.shed_quota += 1
                    retry_after = -state.tokens / quota.rows_per_second
                    return QuotaVerdict(
                        False,
                        reason=(
                            f"tenant {tenant!r} over its rows/s budget "
                            f"({quota.rows_per_second:g} rows/s)"
                        ),
                        retry_after_seconds=retry_after,
                    )
            state.in_flight += 1
            return QuotaVerdict(True)

    def release(self, tenant: str, rows_read: int = 0, completed: bool = True) -> None:
        """Return an in-flight slot; charge the rows the query actually read."""
        with self._lock:
            state = self._state(tenant)
            state.in_flight = max(0, state.in_flight - 1)
            if completed:
                state.completed += 1
            if rows_read and state.quota.rows_per_second is not None:
                state.refill(self._clock())
                state.tokens -= float(rows_read)
            if rows_read:
                state.rows_charged += int(rows_read)

    def record_cancelled(self, tenant: str) -> None:
        with self._lock:
            self._state(tenant).cancelled += 1

    # -- introspection ------------------------------------------------------------
    def in_flight(self, tenant: str) -> int:
        with self._lock:
            state = self._states.get(tenant)
            return state.in_flight if state is not None else 0

    def describe(self) -> dict[str, dict[str, object]]:
        """Per-tenant counters, JSON-friendly (see ``db.metrics()["tenants"]``)."""
        now = self._clock()
        with self._lock:
            out: dict[str, dict[str, object]] = {}
            for tenant in sorted(self._states):
                state = self._states[tenant]
                state.refill(now)
                quota = state.quota
                out[tenant] = {
                    "submitted": state.submitted,
                    "completed": state.completed,
                    "shed_quota": state.shed_quota,
                    "cancelled": state.cancelled,
                    "in_flight": state.in_flight,
                    "rows_charged": state.rows_charged,
                    "row_tokens": round(state.tokens, 2),
                    "weight": quota.weight,
                    "max_in_flight": quota.max_in_flight,
                    "rows_per_second": quota.rows_per_second,
                }
            return out

    def stats(self) -> dict[str, float]:
        """Flat ``{tenant.counter: number}`` view for the metrics registry."""
        flat: dict[str, float] = {}
        for tenant, described in self.describe().items():
            for key, value in described.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    flat[f"{tenant}.{key}"] = float(value)
        return flat
