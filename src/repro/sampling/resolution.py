"""The :class:`SampleResolution` value type.

A *resolution* is one concrete sample: a table of sampled rows, the per-row
weights (inverse effective sampling rates, §4.3), the indices of those rows in
the source table, and metadata describing how the sample was drawn (uniform
fraction or stratification cap).  Families (:mod:`repro.sampling.family`) are
ordered sequences of resolutions over the same column set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.table import Table


@dataclass(frozen=True)
class SampleResolution:
    """One sample at one granularity.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"sessions/strat(city)/K=1000"``.
    table:
        The sampled rows (all columns of the source table are retained, per
        §3.1 footnote 4).
    weights:
        Per-row inverse effective sampling rates, aligned with ``table``.
        Weight 1.0 means the row's stratum was stored in full.
    row_indices:
        Indices of the sampled rows in the source table (used by tests and
        by nested-layout verification).
    source_rows:
        Number of rows in the source table at build time.
    columns:
        The stratification column set φ (empty tuple for uniform samples).
    cap:
        The frequency cap ``K`` for stratified samples, ``None`` for uniform.
    fraction:
        The sampling fraction ``p`` for uniform samples, ``None`` for
        stratified.
    """

    name: str
    table: Table
    weights: np.ndarray
    row_indices: np.ndarray
    source_rows: int
    columns: tuple[str, ...] = ()
    cap: int | None = None
    fraction: float | None = None

    def __post_init__(self) -> None:
        if self.table.num_rows != self.weights.shape[0]:
            raise ValueError("weights must align with the sampled table rows")
        if self.table.num_rows != self.row_indices.shape[0]:
            raise ValueError("row_indices must align with the sampled table rows")
        if self.cap is None and self.fraction is None:
            raise ValueError("a resolution is either stratified (cap) or uniform (fraction)")

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def size_bytes(self) -> int:
        return self.table.size_bytes

    @property
    def is_stratified(self) -> bool:
        return self.cap is not None

    @property
    def represented_rows(self) -> float:
        """Number of source rows this sample represents (sum of weights)."""
        return float(np.sum(self.weights)) if self.num_rows else 0.0

    def __repr__(self) -> str:
        kind = f"K={self.cap}" if self.is_stratified else f"p={self.fraction:g}"
        return (
            f"SampleResolution({self.name!r}, rows={self.num_rows}, "
            f"{kind}, columns={list(self.columns)})"
        )
