"""The concurrent query service layer.

Turns the single-caller :class:`~repro.core.blinkdb.BlinkDB` library into a
multi-client service: client sessions with per-session bound defaults
(:mod:`~repro.service.session`), deadline-aware admission control and EDF
scheduling (:mod:`~repro.service.scheduler`), a template-keyed result cache
with generation-fenced invalidation (:mod:`~repro.service.cache`), a worker
pool serving tickets (:mod:`~repro.service.server`), load generators
(:mod:`~repro.service.loadgen`), and the service's handles into the
facade's metrics registry (:mod:`~repro.service.metrics`).

Entry points: ``BlinkDB.serve()`` and ``BlinkDB.connect()``.
"""

from repro.runtime.partitioned import ProgressiveSnapshot
from repro.service.cache import ResultCache, cache_key, template_label
from repro.service.loadgen import LoadReport, mixed_bound_trace, run_closed_loop, run_open_loop
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import Admission, DeadlineScheduler, ScheduledItem
from repro.service.server import QueryService, QueryTicket, TicketMetrics
from repro.service.session import ClientSession, QueryRecord, SessionDefaults

__all__ = [
    "Admission",
    "ClientSession",
    "DeadlineScheduler",
    "LoadReport",
    "ProgressiveSnapshot",
    "QueryRecord",
    "QueryService",
    "QueryTicket",
    "ResultCache",
    "ScheduledItem",
    "ServiceMetrics",
    "SessionDefaults",
    "TicketMetrics",
    "cache_key",
    "mixed_bound_trace",
    "run_closed_loop",
    "run_open_loop",
    "template_label",
]
