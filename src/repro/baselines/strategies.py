"""Alternative sampling strategies compared against BlinkDB in §6.3.

The paper builds three sets of samples over the same data with the same 50%
storage budget and compares the error they reach in a fixed time budget
(Fig. 7(a)/(b)) and the time they need to reach a target error (Fig. 7(c)):

1. **Multi-dimensional stratified samples** — BlinkDB's own optimizer output
   (column sets of up to 3 columns).
2. **Single-dimensional stratified samples** — the same optimizer restricted
   to one column per family (the Babcock et al. [9] style baseline).
3. **Uniform samples** — a single uniform sample holding 50% of the data.

:class:`SamplingStrategy` wraps one such sample set and answers "what error
does a query reach if it may only read N rows?" and its inverse, which is all
the Fig. 7 benchmarks need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.common.config import SamplingConfig
from repro.common.rng import stable_rng
from repro.engine.executor import ExecutionContext, QueryExecutor
from repro.engine.result import QueryResult
from repro.optimizer.planner import SampleSelectionPlanner
from repro.runtime.selection import SampleFamilySelector
from repro.sampling.family import StratifiedSampleFamily, UniformSampleFamily
from repro.sampling.resolution import SampleResolution
from repro.sampling.uniform import build_uniform_resolution
from repro.sql.ast import Query
from repro.sql.parser import parse_query
from repro.sql.templates import QueryTemplate
from repro.storage.catalog import Catalog
from repro.storage.table import Table


@dataclass(frozen=True)
class StrategyAnswer:
    """Outcome of answering a query under a row budget."""

    result: QueryResult
    rows_read: int
    worst_relative_error: float
    groups_returned: int


class SamplingStrategy:
    """One sample set (uniform / 1-D stratified / multi-D stratified)."""

    def __init__(self, name: str, table: Table, catalog: Catalog) -> None:
        self.name = name
        self.table = table
        self.catalog = catalog
        self._executor = QueryExecutor()
        self._selector = SampleFamilySelector(catalog, self._executor)

    # -- storage accounting --------------------------------------------------------
    @property
    def storage_bytes(self) -> int:
        total = 0
        for _, family in self.catalog.iter_families(self.table.name):
            total += family.storage_bytes
        return total

    # -- query answering ----------------------------------------------------------------
    def answer(self, query: Query | str, row_budget: int | None = None) -> StrategyAnswer:
        """Answer a query reading at most ``row_budget`` sampled rows."""
        if isinstance(query, str):
            query = parse_query(query)
        selection = self._selector.select(query)
        family = selection.family
        if row_budget is None:
            resolution = family.largest
        else:
            resolution = family.largest_resolution_with_at_most_rows(row_budget)
        resolution, weights = self._clip_to_budget(resolution, row_budget)

        context = ExecutionContext(
            weights=weights,
            exact=False,
            unit_weight_exact=selection.covers_query,
            rows_read=resolution.num_rows,
            population_read=float(np.sum(weights)) if weights is not None else None,
            sample_name=resolution.name,
        )
        result = self._executor.execute(query, resolution.table, context)
        return StrategyAnswer(
            result=result,
            rows_read=resolution.num_rows,
            worst_relative_error=_worst_error(result),
            groups_returned=len(result.groups),
        )

    def rows_to_reach_error(
        self,
        query: Query | str,
        target_relative_error: float,
        grid_points: int = 18,
        min_rows: int = 200,
    ) -> int | None:
        """Smallest row budget at which the query's worst error meets the target.

        Evaluated on a geometric grid of budgets up to the strategy's largest
        available sample; ``None`` when even the full sample misses the
        target (uniform samples often cannot bound rare-group errors).
        """
        if isinstance(query, str):
            query = parse_query(query)
        selection = self._selector.select(query)
        max_rows = selection.family.largest.num_rows
        if max_rows <= 0:
            return None
        budgets = np.unique(
            np.geomspace(min(min_rows, max_rows), max_rows, num=grid_points).astype(int)
        )
        for budget in budgets:
            answer = self.answer(query, int(budget))
            if answer.worst_relative_error <= target_relative_error:
                return int(budget)
        return None

    def missing_groups(self, query: Query | str, reference: QueryResult,
                       row_budget: int | None = None) -> int:
        """Number of groups present in the exact answer but absent here (subset error)."""
        answer = self.answer(query, row_budget)
        reference_keys = {group.key for group in reference.groups}
        returned_keys = {group.key for group in answer.result.groups if group.aggregates}
        # A group only counts as returned if it had at least one matching row.
        populated = {
            group.key
            for group in answer.result.groups
            if any(agg.estimate.sample_rows > 0 for agg in group.aggregates.values())
        }
        return len(reference_keys - (returned_keys & populated))

    # -- internals -------------------------------------------------------------------------
    def _clip_to_budget(
        self, resolution: SampleResolution, row_budget: int | None
    ) -> tuple[SampleResolution, np.ndarray]:
        """Uniformly subsample a resolution that exceeds the row budget.

        Reading only part of a sample within a time budget is equivalent to a
        uniform subsample of it; the weights are scaled by the inverse of the
        kept fraction so the estimators stay unbiased.
        """
        weights = resolution.weights
        if row_budget is None or resolution.num_rows <= row_budget:
            return resolution, weights
        keep_fraction = row_budget / resolution.num_rows
        rng = stable_rng("strategy-clip", resolution.name, row_budget)
        keep = np.sort(rng.choice(resolution.num_rows, size=row_budget, replace=False))
        clipped_table = resolution.table.take(keep)
        clipped_weights = weights[keep] / keep_fraction
        clipped = SampleResolution(
            name=f"{resolution.name}/clip={row_budget}",
            table=clipped_table,
            weights=clipped_weights,
            row_indices=resolution.row_indices[keep],
            source_rows=resolution.source_rows,
            columns=resolution.columns,
            cap=resolution.cap,
            fraction=(resolution.fraction or 1.0) * keep_fraction
            if resolution.fraction is not None
            else None,
        )
        if clipped.cap is None and clipped.fraction is None:
            clipped = replace(clipped, fraction=keep_fraction)
        return clipped, clipped_weights


def _worst_error(result: QueryResult) -> float:
    errors = []
    for group in result.groups:
        for aggregate in group.aggregates.values():
            errors.append(aggregate.relative_error)
    if not errors:
        return math.inf
    finite = [e for e in errors if math.isfinite(e)]
    if len(finite) == len(errors):
        return max(errors)
    return math.inf


# -- strategy construction -------------------------------------------------------------------


def build_strategies(
    table: Table,
    templates: Sequence[QueryTemplate],
    config: SamplingConfig,
    storage_budget_fraction: float = 0.5,
) -> dict[str, SamplingStrategy]:
    """Build the three §6.3 sample sets over ``table`` with a common budget."""
    strategies: dict[str, SamplingStrategy] = {}

    # 1. Multi-dimensional stratified samples (BlinkDB).
    strategies["multi-dimensional"] = _stratified_strategy(
        "multi-dimensional", table, templates, config, storage_budget_fraction
    )

    # 2. Single-dimensional stratified samples.
    single_config = replace(config, max_columns_per_family=1)
    strategies["single-column"] = _stratified_strategy(
        "single-column", table, templates, single_config, storage_budget_fraction
    )

    # 3. A single uniform sample holding the whole storage budget.
    uniform_catalog = Catalog()
    uniform_catalog.register_table(table)
    fraction = min(1.0, storage_budget_fraction)
    resolution = build_uniform_resolution(table, fraction)
    small = build_uniform_resolution(table, max(fraction / 16, 1.0 / table.num_rows))
    uniform_family = UniformSampleFamily(
        table_name=table.name,
        resolutions=tuple(sorted([small, resolution], key=lambda r: r.num_rows)),
    )
    uniform_catalog.register_uniform_family(table.name, uniform_family)
    strategies["uniform"] = SamplingStrategy("uniform", table, uniform_catalog)

    return strategies


def _stratified_strategy(
    name: str,
    table: Table,
    templates: Sequence[QueryTemplate],
    config: SamplingConfig,
    storage_budget_fraction: float,
) -> SamplingStrategy:
    catalog = Catalog()
    catalog.register_table(table)
    planner = SampleSelectionPlanner(table, config)
    plan = planner.plan(templates, storage_budget_fraction=storage_budget_fraction)

    uniform_family = UniformSampleFamily.build(table, config)
    catalog.register_uniform_family(table.name, uniform_family)
    for column_set in plan.column_sets:
        family = StratifiedSampleFamily.build(table, column_set, config)
        catalog.register_stratified_family(table.name, family.key, family)
    return SamplingStrategy(name, table, catalog)
