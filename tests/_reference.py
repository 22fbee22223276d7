"""Reference executors: the simplest scan paths, for equivalence tests.

The production :class:`~repro.engine.executor.QueryExecutor` runs every
join-free WHERE clause through zone-map kernels and folds global
aggregates run-wise over RLE-encoded columns.  The equivalence tests prove
those paths against the executors below, which differ from it in exactly
one overridden step each:

* :class:`MaskPathExecutor` evaluates every WHERE clause as a full-width
  boolean mask (no kernels, no zone-map skipping) and gathers decoded
  values for the aggregate stage (no run fold);
* :class:`GatherPathExecutor` keeps the kernels but gathers decoded values
  instead of folding runs, so over encoded storage it is the bitwise
  reference for the scan and the 1e-9 reference for the fold.
"""

from __future__ import annotations

from repro.engine.executor import QueryExecutor
from repro.planner.logical import LogicalPlan


class GatherPathExecutor(QueryExecutor):
    """Kernel scans, but no run-weighted fold over encoded columns."""

    def _run_fold_partial(self, *args, **kwargs):
        return None


class MaskPathExecutor(GatherPathExecutor):
    """Mask-evaluated WHERE clauses and gathered aggregates, everywhere."""

    def _accelerable(self, plan: LogicalPlan) -> bool:
        return False
