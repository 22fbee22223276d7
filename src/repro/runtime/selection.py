"""Run-time sample-family selection (paper §4.1).

Given a logical plan, the selector decides which family — the uniform family
or one of the stratified families — the query should run on:

1. If one or more stratified families exist whose column set is a superset of
   the plan's WHERE/GROUP BY column set φ, the one with the fewest columns
   is chosen (§4.1.1): its strata align with the query's filter, so answers
   converge fastest and rare groups are guaranteed present.
2. Otherwise the query's WHERE clause is counted on the *smallest*
   resolution of every family (they are small enough to fit in cluster
   memory), and the family with the highest ratio of rows selected to rows
   read wins: the response time grows with rows read while the error shrinks
   with rows selected.  Ties go to the family with fewer columns, then to
   the earlier one in catalog order.  Only the winner's smallest resolution
   then runs the full aggregate (filter, per-group fold, finalize), because
   only its answer is read: sizing takes its error and group count.  The
   losers contribute their counts alone.

Disjunctive WHERE clauses are already hoisted into disjoint conjunctive
branches by the logical plan (§4.1.2); each branch gets its own family
selection so the runtime can aggregate the partial answers.

Probe memoization
-----------------
Counts and aggregate probes are deterministic given the plan (sans bounds)
and the resolution, so both are memoized in one small LRU keyed by
``(plan.probe_fingerprint(), resolution.name, kind)``.  An aggregate probe
reuses the count that selection already took on its resolution.  The memo's
lifetime is the selector's — the facade discards the whole runtime (and
with it this selector) whenever samples are rebuilt — and a streaming
append drops the appended table's entries of both kinds
(:meth:`SampleFamilySelector.invalidate_table` matches the resolution name
in the key's second slot), so neither kind outlives the data generation it
measured.  Hit/miss counters per kind feed ``runtime.stats`` and the service
metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.common.errors import SampleNotFoundError
from repro.engine.executor import ExecutionContext, Plannable, QueryExecutor
from repro.engine.result import QueryResult
from repro.planner.logical import LogicalPlan
from repro.sampling.family import StratifiedSampleFamily, UniformSampleFamily
from repro.sampling.resolution import SampleResolution

from repro.storage.catalog import Catalog

#: Probe memo capacity; a count entry holds one int, an aggregate entry a
#: full QueryResult.
_PROBE_CACHE_ENTRIES = 512

#: Memo kinds, the third slot of a memo key.
_COUNT = "count"
_AGGREGATE = "aggregate"


@dataclass(frozen=True)
class ProbeResult:
    """Statistics gathered on one (small) resolution.

    Every probed family gets one from its count.  Only the chosen family's
    also carries ``result``, the query aggregated on the resolution, which
    is what ``num_groups`` and the error properties read.
    """

    resolution: SampleResolution
    rows_read: int
    rows_matched: int
    result: QueryResult | None = None
    num_groups: int = 0

    @property
    def selectivity(self) -> float:
        """Fraction of scanned rows the query's predicates selected."""
        if self.rows_read == 0:
            return 0.0
        return self.rows_matched / self.rows_read

    @property
    def worst_relative_error(self) -> float:
        """The largest (finite-preferred) relative error across groups/aggregates."""
        finite: list[float] = []
        has_infinite = False
        for group in self.result.groups:
            for aggregate in group.aggregates.values():
                error = aggregate.relative_error
                if np.isfinite(error):
                    finite.append(error)
                else:
                    has_infinite = True
        if finite:
            return max(finite)
        return float("inf") if has_infinite else 0.0


@dataclass(frozen=True)
class FamilySelection:
    """The outcome of family selection for one query (or one branch)."""

    family: UniformSampleFamily | StratifiedSampleFamily
    reason: str
    probe: ProbeResult | None = None
    probes: tuple[ProbeResult, ...] = ()

    @property
    def is_stratified(self) -> bool:
        return isinstance(self.family, StratifiedSampleFamily)

    @property
    def covers_query(self) -> bool:
        """True when the family's column set covers the query's φ (exact strata)."""
        return self.reason == "superset-match"


class SampleFamilySelector:
    """Implements the family-selection policy of §4.1 (probe-memoized)."""

    def __init__(self, catalog: Catalog, executor: QueryExecutor) -> None:
        self.catalog = catalog
        self.executor = executor
        self._probe_cache: OrderedDict[tuple[str, str, str], ProbeResult | int] = OrderedDict()
        self._probe_lock = threading.Lock()
        self._probe_hits = {_COUNT: 0, _AGGREGATE: 0}
        self._probe_misses = {_COUNT: 0, _AGGREGATE: 0}

    # -- public API ---------------------------------------------------------------
    def select(self, plan: Plannable, probe_on_miss: bool = True) -> FamilySelection:
        """Select the family for a plan, probing when no superset family exists."""
        plan = LogicalPlan.of(plan)
        columns = plan.template_columns()
        return self.select_for_columns(plan, columns, probe_on_miss)

    def select_for_columns(
        self, plan: Plannable, columns: set[str], probe_on_miss: bool = True
    ) -> FamilySelection:
        plan = LogicalPlan.of(plan)
        table_name = plan.table
        families = self._all_families(table_name)
        if not families:
            raise SampleNotFoundError(
                f"no samples exist for table {table_name!r}; build samples first"
            )

        # 1. Superset match: smallest column set wins (§4.1.1).
        stratified = [
            f for f in families if isinstance(f, StratifiedSampleFamily) and f.covers(columns)
        ]
        if columns and stratified:
            best = min(stratified, key=lambda f: (len(f.columns), f.columns))
            return FamilySelection(family=best, reason="superset-match")

        if not columns:
            # No filters or grouping at all: the uniform family is the natural
            # choice (every stratified family over-represents its tail).
            uniform = self._uniform_family(families)
            if uniform is not None:
                return FamilySelection(family=uniform, reason="no-filter-uniform")

        # 2. Probe every family's smallest resolution (§4.1.1, second half).
        if not probe_on_miss:
            uniform = self._uniform_family(families)
            fallback = uniform if uniform is not None else families[0]
            return FamilySelection(family=fallback, reason="fallback-no-probe")

        fingerprint = plan.probe_fingerprint()
        counts = [
            ProbeResult(
                resolution=family.smallest,
                rows_read=family.smallest.num_rows,
                rows_matched=self._count(plan, fingerprint, family.smallest, record=True),
            )
            for family in families
        ]
        winner = max(
            range(len(families)),
            key=lambda i: (counts[i].selectivity, -len(getattr(families[i], "columns", ()))),
        )
        probe = self.probe(plan, families[winner].smallest)
        counts[winner] = probe
        return FamilySelection(
            family=families[winner],
            reason="probe-best-ratio",
            probe=probe,
            probes=tuple(counts),
        )

    def probe(self, plan: Plannable, resolution: SampleResolution) -> ProbeResult:
        """Aggregate the plan on one resolution and collect its statistics.

        Memoized: identical plans (up to bounds) probing the same resolution
        return the cached outcome instead of re-executing.  The row count
        comes from the count memo when selection already took it.
        """
        plan = LogicalPlan.of(plan)
        fingerprint = plan.probe_fingerprint()
        key = (fingerprint, resolution.name, _AGGREGATE)
        cached = self._memo_get(key)
        if cached is not None:
            return cached
        context = ExecutionContext(
            weights=resolution.weights,
            exact=False,
            unit_weight_exact=False,
            rows_read=resolution.num_rows,
            population_read=resolution.represented_rows,
            sample_name=resolution.name,
        )
        result = self.executor.execute(plan, resolution.table, context)
        # execute() already accounted this scan in the lifetime counters, so
        # a count taken here (no selection counted this resolution first)
        # does not record it a second time.
        probe = ProbeResult(
            resolution=resolution,
            rows_read=resolution.num_rows,
            rows_matched=self._count(plan, fingerprint, resolution, record=False),
            result=result,
            num_groups=max(1, len(result.groups)),
        )
        self._memo_put(key, probe)
        return probe

    def _count(
        self, plan: LogicalPlan, fingerprint: str, resolution: SampleResolution, record: bool
    ) -> int:
        """Rows of the resolution matching the plan's WHERE clause (memoized).

        A kernel count: zone maps let skip/take-all blocks contribute
        without evaluation, and no full-width mask is materialized.
        """
        key = (fingerprint, resolution.name, _COUNT)
        cached = self._memo_get(key)
        if cached is not None:
            return cached
        rows_matched = self.executor.count_matching(plan, resolution.table, record=record)
        self._memo_put(key, rows_matched)
        return rows_matched

    def _memo_get(self, key: tuple[str, str, str]):
        with self._probe_lock:
            cached = self._probe_cache.get(key)
            if cached is None:
                self._probe_misses[key[2]] += 1
                return None
            self._probe_cache.move_to_end(key)
            self._probe_hits[key[2]] += 1
            return cached

    def _memo_put(self, key: tuple[str, str, str], value: ProbeResult | int) -> None:
        with self._probe_lock:
            self._probe_cache[key] = value
            self._probe_cache.move_to_end(key)
            while len(self._probe_cache) > _PROBE_CACHE_ENTRIES:
                self._probe_cache.popitem(last=False)

    def invalidate_table(self, table_name: str) -> int:
        """Drop memoized counts and probes of one table's resolutions (the ingest fence).

        Streaming appends change a table's data and samples without
        discarding the runtime, so counts and probes measured on the previous
        generation must not steer planning afterwards.  Resolution names are
        namespaced by table (``"<table>/uniform/…"``, ``"<table>/strat(…)"``)
        and sit in the second slot of every memo key, which is what the match
        keys on; other tables' entries survive.
        """
        prefix = f"{table_name}/"
        with self._probe_lock:
            stale = [key for key in self._probe_cache if key[1].startswith(prefix)]
            for key in stale:
                del self._probe_cache[key]
            return len(stale)

    @property
    def probe_cache_stats(self) -> dict[str, int]:
        """Thread-safe snapshot of the probe memo's hit/miss/size counters.

        ``probe_cache_hits`` / ``probe_cache_misses`` count aggregate probes
        (a miss executes the plan on a resolution); the ``count_`` pair counts
        the per-family row counts (a miss runs one kernel count).
        """
        with self._probe_lock:
            return {
                "probe_cache_hits": self._probe_hits[_AGGREGATE],
                "probe_cache_misses": self._probe_misses[_AGGREGATE],
                "probe_cache_count_hits": self._probe_hits[_COUNT],
                "probe_cache_count_misses": self._probe_misses[_COUNT],
                "probe_cache_entries": len(self._probe_cache),
            }

    # -- disjunctive branches (§4.1.2) ----------------------------------------------
    def disjunctive_branches(self, plan: Plannable):
        """The plan's disjoint conjunctive branches (hoisted by the logical plan)."""
        return list(LogicalPlan.of(plan).branches)

    def select_for_branch(
        self, plan: Plannable, branch, probe_on_miss: bool = True
    ) -> FamilySelection:
        """Family selection for one disjunctive branch (its own column set)."""
        plan = LogicalPlan.of(plan)
        return self.select_for_columns(
            plan.for_branch(branch), plan.branch_columns(branch), probe_on_miss
        )

    # -- internals -----------------------------------------------------------------------
    def _all_families(self, table_name: str) -> list[UniformSampleFamily | StratifiedSampleFamily]:
        families: list[UniformSampleFamily | StratifiedSampleFamily] = []
        for _, family in self.catalog.iter_families(table_name):
            families.append(family)  # type: ignore[arg-type]
        return families

    @staticmethod
    def _uniform_family(families) -> UniformSampleFamily | None:
        for family in families:
            if isinstance(family, UniformSampleFamily):
                return family
        return None
