"""Incremental sample maintenance under streaming appends (paper §4.5, live).

The offline builder draws every family from scratch; these maintainers keep
the same families statistically valid as batches of rows arrive, in work
proportional to the batch plus the maintained sample rows (stratified
resolutions re-materialise their — contiguous, stratum-sorted — tables each
append), never the full table.  Samples are a small fraction of the table by
construction, so appends stay cheap as the table grows.

Both maintainers share one mechanism: every ingested row gets a *persistent
uniform tag* in [0, 1), derived deterministically from the row's global index
(:func:`repro.common.rng.index_uniforms`).  Sample membership is then a pure
function of the tags:

* **Uniform families** — a row belongs to the resolution with fraction ``p``
  iff its tag is below ``p``.  Inclusion probability is exactly ``p`` for
  every row, and because ``p₁ < p₂`` implies a subset, the family's nesting
  invariant (§3.1/Fig. 4) is preserved for free.
* **Stratified families** — per stratum, the retained rows are the
  *bottom-K* by tag.  The bottom-K of i.i.d. uniform tags is a uniformly
  random K-subset — a reservoir — so each row of a stratum with frequency
  ``F`` survives with probability ``min(1, K/F)``, exactly the ``S(φ, K)``
  contract; smaller resolutions are tag-prefixes of larger ones, preserving
  nesting.  Strata unseen at build time are admitted on first appearance and
  stored in full until they outgrow the cap.

Because tags depend only on (table, family, row index), appending the same
rows in one batch or many produces bit-identical samples — the property the
hypothesis suite pins down as split-vs-whole equivalence.

Each maintainer also tracks a *staleness* score against its last anchor
(full build or re-plan): the fraction of rows that arrived since, and for
stratified families the fraction of strata born since.  The ingest layer
escalates to the :class:`~repro.sampling.maintenance.SampleMaintenance`
re-plan path when a family's staleness exceeds the configured budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import index_uniforms, stable_rng
from repro.ingest.batch import ColumnBatch, batch_num_rows
from repro.sampling.family import StratifiedSampleFamily, UniformSampleFamily
from repro.sampling.resolution import SampleResolution
from repro.storage.table import Table, decode_group_keys, group_ids


@dataclass
class MaintenanceDelta:
    """What one maintainer did with one batch (for reports and gauges)."""

    family: str
    rows_added: int = 0
    rows_evicted: int = 0
    new_strata: int = 0
    staleness: float = 0.0


@dataclass
class _StratumState:
    """Reservoir state of one stratum: retained rows sorted by ascending tag."""

    frequency: int
    tags: np.ndarray
    indices: np.ndarray


@dataclass
class _AnchorState:
    """Staleness bookkeeping since the last full build / re-plan."""

    rows: int
    strata: int = 0
    appended: int = 0
    new_strata: int = 0

    def staleness(self) -> float:
        grown = self.rows + self.appended
        row_share = self.appended / grown if grown else 0.0
        stratum_share = (
            self.new_strata / max(1, self.strata) if self.strata or self.new_strata else 0.0
        )
        return max(row_share, stratum_share)


class UniformFamilyMaintainer:
    """Keeps one uniform family valid across appends via Bernoulli tags."""

    def __init__(self, table_name: str, family: UniformSampleFamily) -> None:
        self.table_name = table_name
        self.family = family
        # Membership thresholds are pinned at anchor time: a resolution's
        # *realized* fraction drifts with every Bernoulli draw, and using it
        # as the next batch's threshold would make membership depend on batch
        # boundaries (breaking split-vs-whole equivalence).
        self._thresholds = {r.name: (r.fraction or 0.0) for r in family.resolutions}
        self._anchor = _AnchorState(rows=family.largest.source_rows)

    @property
    def staleness(self) -> float:
        return self._anchor.staleness()

    def apply(
        self, new_table: Table, batch: ColumnBatch, batch_start: int
    ) -> tuple[UniformSampleFamily, MaintenanceDelta]:
        """Fold one appended batch into the family (pure; caller publishes)."""
        batch_rows = batch_num_rows(batch)
        total = new_table.num_rows
        indices = np.arange(batch_start, batch_start + batch_rows, dtype=np.int64)
        tags = index_uniforms(indices, self.table_name, "uniform-ingest")
        delta = MaintenanceDelta(family=f"{self.table_name}/uniform")
        resolutions = []
        largest_name = self.family.largest.name
        for resolution in self.family.resolutions:
            fraction = self._thresholds[resolution.name]
            selected = tags < fraction
            picked = int(np.count_nonzero(selected))
            row_indices = np.concatenate([resolution.row_indices, indices[selected]])
            sample_rows = int(row_indices.shape[0])
            sampled = resolution.table.append_batch(
                {name: values[selected] for name, values in batch.items()}
            )
            weight = total / sample_rows if sample_rows else 1.0
            resolutions.append(
                SampleResolution(
                    name=resolution.name,
                    table=sampled,
                    weights=np.full(sample_rows, weight),
                    row_indices=row_indices,
                    source_rows=total,
                    columns=(),
                    cap=None,
                    fraction=sample_rows / total if total else 0.0,
                )
            )
            if resolution.name == largest_name:
                # Physical storage is the largest resolution (nesting, §3.1);
                # the smaller resolutions' picks are subsets of these rows.
                delta.rows_added += picked
        self.family = UniformSampleFamily(
            table_name=self.family.table_name, resolutions=tuple(resolutions)
        )
        self._anchor.appended += batch_rows
        delta.staleness = self.staleness
        return self.family, delta


class StratifiedFamilyMaintainer:
    """Keeps one stratified family ``SFam(φ)`` valid via per-stratum reservoirs."""

    def __init__(
        self, table_name: str, family: StratifiedSampleFamily, table: Table
    ) -> None:
        self.table_name = table_name
        self.family = family
        self.columns = family.columns
        self._strata: dict[tuple, _StratumState] = {}
        self._anchor = _AnchorState(rows=table.num_rows)
        self._adopt(family, table)

    # -- anchoring --------------------------------------------------------------
    def _adopt(self, family: StratifiedSampleFamily, table: Table) -> None:
        """Derive reservoir state from a freshly built family.

        The builder retains, per stratum, a uniform random ``min(F, K_max)``
        subset in its (fixed) permutation order; smaller resolutions are
        prefixes of it.  We assign those retained rows tags distributed as
        the sorted bottom-K order statistics of ``F`` uniforms — drawn from
        the family's stable RNG — so future tag-based eviction competes new
        rows against old ones with the correct reservoir statistics, and the
        bottom-K_i prefix reproduces today's resolutions exactly.
        """
        self.family = family
        self.columns = family.columns
        frequencies = table.value_frequencies(list(self.columns))
        largest = family.largest
        codes, keys = largest.table.group_codes(list(self.columns))
        per_stratum_positions: dict[tuple, np.ndarray] = {}
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(len(keys) + 1))
        for g, key in enumerate(keys):
            per_stratum_positions[key] = order[bounds[g]:bounds[g + 1]]
        rng = stable_rng("ingest-anchor-tags", self.table_name, self.columns)
        strata: dict[tuple, _StratumState] = {}
        for key, frequency in frequencies.items():
            positions = per_stratum_positions.get(key)
            if positions is None:
                continue
            # Retained rows appear in the largest resolution in permutation
            # (nesting) order; group_codes sorted them, so restore row order.
            positions = np.sort(positions)
            retained = int(positions.shape[0])
            draws = np.sort(rng.uniform(size=int(frequency)))[:retained]
            strata[key] = _StratumState(
                frequency=int(frequency),
                tags=draws,
                indices=largest.row_indices[positions],
            )
        self._strata = strata
        self._anchor = _AnchorState(rows=table.num_rows, strata=len(strata))

    @property
    def staleness(self) -> float:
        return self._anchor.staleness()

    # -- appends -----------------------------------------------------------------
    def apply(
        self,
        new_table: Table,
        batch: ColumnBatch,
        batch_start: int,
        pregrouped: dict[tuple, np.ndarray] | None = None,
    ) -> tuple[StratifiedSampleFamily, MaintenanceDelta]:
        """Fold one appended batch into the family's reservoirs.

        ``pregrouped`` may carry :func:`stratified_prepare_task` output for
        this batch and column set (computed on the process pool); the prepare
        stage is a pure function of the batch's φ-columns, so the result is
        identical either way.
        """
        batch_rows = batch_num_rows(batch)
        total = new_table.num_rows
        indices = np.arange(batch_start, batch_start + batch_rows, dtype=np.int64)
        tags = index_uniforms(indices, self.table_name, "stratified-ingest", self.columns)
        caps = [r.cap for r in self.family.resolutions if r.cap is not None]
        cap_max = max(caps)
        delta = MaintenanceDelta(family=f"{self.table_name}/strat({','.join(self.columns)})")

        grouped = (
            _with_shared_nan(pregrouped)
            if pregrouped is not None
            else _group_batch_by_stratum(batch, self.columns)
        )
        for key, positions_arr in grouped.items():
            state = self._strata.get(key)
            if state is None:
                state = _StratumState(
                    frequency=0,
                    tags=np.empty(0, dtype=np.float64),
                    indices=np.empty(0, dtype=np.int64),
                )
                self._strata[key] = state
                self._anchor.new_strata += 1
                delta.new_strata += 1
            candidate_tags = np.concatenate([state.tags, tags[positions_arr]])
            candidate_indices = np.concatenate([state.indices, indices[positions_arr]])
            state.frequency += int(positions_arr.shape[0])
            keep = min(state.frequency, cap_max)
            order = np.argsort(candidate_tags, kind="stable")[:keep]
            evicted = int(candidate_tags.shape[0] - keep)
            added = int(positions_arr.shape[0]) - evicted
            delta.rows_added += max(0, added)
            delta.rows_evicted += evicted
            state.tags = candidate_tags[order]
            state.indices = candidate_indices[order]

        self.family = self._materialize(new_table, total)
        self._anchor.appended += batch_rows
        delta.staleness = self.staleness
        return self.family, delta

    def _materialize(self, new_table: Table, total: int) -> StratifiedSampleFamily:
        """Rebuild every resolution from the reservoir state (O(sample rows))."""
        ordered_keys = sorted(self._strata)
        resolutions = []
        for resolution in self.family.resolutions:
            cap = resolution.cap
            assert cap is not None
            index_parts: list[np.ndarray] = []
            weight_parts: list[np.ndarray] = []
            for key in ordered_keys:
                state = self._strata[key]
                take = min(state.frequency, cap)
                if take == 0:
                    continue
                index_parts.append(state.indices[:take])
                rate = 1.0 if state.frequency <= cap else cap / state.frequency
                weight_parts.append(np.full(take, 1.0 / rate, dtype=np.float64))
            if index_parts:
                row_indices = np.concatenate(index_parts)
                weights = np.concatenate(weight_parts)
            else:
                row_indices = np.empty(0, dtype=np.int64)
                weights = np.empty(0, dtype=np.float64)
            sampled = new_table.take(row_indices, name=resolution.table.name)
            resolutions.append(
                SampleResolution(
                    name=resolution.name,
                    table=sampled,
                    weights=weights,
                    row_indices=row_indices,
                    source_rows=total,
                    columns=self.columns,
                    cap=cap,
                    fraction=None,
                )
            )
        resolutions.sort(key=lambda r: r.num_rows)
        return StratifiedSampleFamily(
            table_name=self.family.table_name,
            resolutions=tuple(resolutions),
            columns=self.columns,
        )


def _group_batch_by_stratum(
    batch: ColumnBatch, columns: tuple[str, ...]
) -> dict[tuple, np.ndarray]:
    """Batch row positions grouped by stratum key (vectorized).

    Uses the same mixed-radix grouping and key decode as
    :meth:`Table.group_codes` — this runs under the facade's exclusive write
    lock for every batch and family — so batch keys collide correctly with
    the anchor's keys.
    """
    arrays = [batch[name] for name in columns]
    dictionaries = [None] * len(arrays)
    codes, num_groups = group_ids(arrays, dictionaries)
    keys = decode_group_keys(arrays, dictionaries, codes, num_groups)
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(num_groups + 1))
    return {key: order[bounds[g]:bounds[g + 1]] for g, key in enumerate(keys)}


def _with_shared_nan(grouped: dict[tuple, np.ndarray]) -> dict[tuple, np.ndarray]:
    """Map NaN key parts back to :data:`math.nan`.

    Keys that crossed a process boundary were pickled, which copies the
    shared NaN object, and a copy no longer finds its stratum in a dict.
    """
    return {
        tuple(math.nan if part != part else part for part in key): positions
        for key, positions in grouped.items()
    }


def stratified_prepare_task(
    phi_batch: ColumnBatch, columns: tuple[str, ...]
) -> dict[tuple, np.ndarray]:
    """Process-pool task: the pure prepare stage of one family's append.

    Takes only the batch's φ-columns (O(batch) shipped in, O(batch) stratum
    positions shipped back) and no maintainer state — the reservoir merges
    stay in the parent.  Identical to the inline
    :func:`_group_batch_by_stratum` by construction.
    """
    return _group_batch_by_stratum(phi_batch, columns)


@dataclass
class FamilyMaintainers:
    """All maintainers of one table, keyed like the catalog's families."""

    uniform: UniformFamilyMaintainer | None = None
    stratified: dict[tuple[str, ...], StratifiedFamilyMaintainer] = field(default_factory=dict)

    def staleness(self) -> float:
        values = [m.staleness for m in self.all()]
        return max(values) if values else 0.0

    def all(self) -> list[UniformFamilyMaintainer | StratifiedFamilyMaintainer]:
        maintainers: list[UniformFamilyMaintainer | StratifiedFamilyMaintainer] = []
        if self.uniform is not None:
            maintainers.append(self.uniform)
        maintainers.extend(self.stratified.values())
        return maintainers
