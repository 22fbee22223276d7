"""The cluster simulator: datasets placed on nodes plus a latency oracle.

This module glues together :class:`~repro.cluster.node.Node`, the
closed-form round-robin placement of
:func:`~repro.cluster.placement.round_robin_bytes`, and
:class:`~repro.cluster.cost_model.CostModel`.  The rest of the library
registers *logical datasets* (base tables, sample resolutions) with the
simulator, declaring how many rows they have at the simulated scale and how
wide a row is; the simulator then answers "how long would scanning X rows of
dataset D with group-by cardinality G take on this cluster?".

The crucial trick that lets laptop-scale data stand in for 17 TB is the
``scale_factor`` of each dataset: the actual in-memory table may hold 10⁶
rows while the registered dataset declares 5.5 × 10⁹ rows (the paper's
Conviva table).  Approximate answers are computed on the real rows; latencies
are computed on the declared rows.  Sampling fractions carry over unchanged,
so the relative speedups — the quantity the paper's figures report — are
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import ClusterConfig
from repro.common.errors import CatalogError
from repro.cluster.cost_model import CostModel, ScanEstimate, StorageTier
from repro.cluster.node import Node
from repro.cluster.placement import round_robin_bytes


@dataclass(frozen=True)
class DatasetInfo:
    """Metadata for a dataset registered with the simulator.

    ``parent`` is set for *nested* datasets: logical datasets that are a row
    prefix of another physical dataset (the smaller resolutions of a sample
    family, Fig. 4).  Nested datasets occupy no storage or cache of their own;
    they inherit the parent's caching behaviour.

    ``requested_cache_fraction`` preserves the caller's original cache
    request; ``cached_fraction`` is what memory admission actually granted.
    Re-placements (``resize_dataset``) re-request the former — feeding the
    achieved fraction back would ratchet caching monotonically down under
    memory pressure.
    """

    name: str
    num_rows: int
    row_width_bytes: int
    cached_fraction: float
    parent: str | None = None
    requested_cache_fraction: float = 0.0

    @property
    def size_bytes(self) -> int:
        return self.num_rows * self.row_width_bytes


@dataclass(frozen=True)
class SimulatedExecution:
    """Result of simulating a query against a registered dataset."""

    dataset: str
    rows_read: int
    bytes_read: int
    tier: StorageTier
    estimate: ScanEstimate

    @property
    def latency_seconds(self) -> float:
        return self.estimate.total_seconds


class ClusterSimulator:
    """Tracks datasets on a simulated cluster and estimates query latencies."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.cost_model = CostModel(self.config)
        self.nodes = [Node(node_id=i, config=self.config) for i in range(self.config.num_nodes)]
        self._datasets: dict[str, DatasetInfo] = {}
        self._next_start_node = 0

    # -- dataset registration -----------------------------------------------------
    def register_dataset(
        self,
        name: str,
        num_rows: int,
        row_width_bytes: int,
        cache: bool | float = False,
    ) -> DatasetInfo:
        """Register a logical dataset and spread its blocks over the nodes.

        Parameters
        ----------
        name:
            Unique dataset name (table name or sample identifier).
        num_rows, row_width_bytes:
            Size of the dataset *at the simulated scale*.
        cache:
            ``True`` to request full caching, ``False`` for disk-only, or a
            float fraction.  Caching is admitted only up to the cluster's
            aggregate free memory, mirroring the paper's observation that
            datasets larger than ~6 TB spill to disk on their cluster.
        """
        if name in self._datasets:
            raise CatalogError(f"dataset {name!r} already registered with the simulator")
        if num_rows < 0 or row_width_bytes <= 0:
            raise ValueError("num_rows must be >= 0 and row_width_bytes > 0")
        requested_fraction = float(cache) if not isinstance(cache, bool) else (1.0 if cache else 0.0)
        requested_fraction = min(1.0, max(0.0, requested_fraction))

        size_bytes = num_rows * row_width_bytes
        bytes_per_node = round_robin_bytes(
            num_rows,
            row_width_bytes,
            self.config.hdfs_block_bytes,
            self.config.num_nodes,
            self._next_start_node,
        )
        self._next_start_node = (self._next_start_node + 1) % self.config.num_nodes

        cached_total = 0
        for node, node_bytes in zip(self.nodes, bytes_per_node):
            node.store(name, node_bytes)
            if requested_fraction > 0:
                cached_total += node.cache(name, int(node_bytes * requested_fraction))
        cached_fraction = cached_total / size_bytes if size_bytes > 0 else 0.0

        info = DatasetInfo(
            name=name,
            num_rows=num_rows,
            row_width_bytes=row_width_bytes,
            cached_fraction=cached_fraction,
            requested_cache_fraction=requested_fraction,
        )
        self._datasets[name] = info
        return info

    def register_nested_dataset(self, name: str, parent: str, num_rows: int) -> DatasetInfo:
        """Register a dataset that is a row prefix of an existing dataset.

        The smaller resolutions of a sample family physically share the
        blocks of the largest resolution (§3.1, Fig. 4), so they must not be
        charged for storage or cache again.  Scans of a nested dataset use
        the parent's cached fraction.
        """
        if name in self._datasets:
            raise CatalogError(f"dataset {name!r} already registered with the simulator")
        parent_info = self.dataset(parent)
        if num_rows > parent_info.num_rows:
            raise ValueError(
                f"nested dataset {name!r} ({num_rows} rows) cannot exceed its "
                f"parent {parent!r} ({parent_info.num_rows} rows)"
            )
        info = DatasetInfo(
            name=name,
            num_rows=num_rows,
            row_width_bytes=parent_info.row_width_bytes,
            cached_fraction=parent_info.cached_fraction,
            parent=parent,
        )
        self._datasets[name] = info
        return info

    def resize_dataset(self, name: str, num_rows: int) -> DatasetInfo:
        """Update a dataset's simulated row count (the streaming-ingest path).

        Root datasets are re-placed with their new size (requesting the cache
        fraction they had achieved); nested datasets just update their row
        count, which must not exceed the parent's — callers grow the parent
        (the family's largest resolution) first.
        """
        info = self.dataset(name)
        if num_rows < 0:
            raise ValueError("num_rows must be >= 0")
        if info.parent is not None:
            parent_info = self.dataset(info.parent)
            if num_rows > parent_info.num_rows:
                raise ValueError(
                    f"nested dataset {name!r} ({num_rows} rows) cannot exceed its "
                    f"parent {info.parent!r} ({parent_info.num_rows} rows)"
                )
            resized = DatasetInfo(
                name=name,
                num_rows=num_rows,
                row_width_bytes=parent_info.row_width_bytes,
                cached_fraction=parent_info.cached_fraction,
                parent=info.parent,
            )
            self._datasets[name] = resized
            return resized
        self.unregister_dataset(name)
        return self.register_dataset(
            name,
            num_rows=num_rows,
            row_width_bytes=info.row_width_bytes,
            cache=info.requested_cache_fraction,
        )

    def unregister_dataset(self, name: str) -> None:
        """Remove a dataset (e.g. a discarded sample) from the simulator."""
        if name not in self._datasets:
            raise CatalogError(f"unknown dataset {name!r}")
        info = self._datasets.pop(name)
        if info.parent is None:
            for node in self.nodes:
                node.disk_bytes.pop(name, None)
                node.cached_bytes.pop(name, None)

    def dataset(self, name: str) -> DatasetInfo:
        try:
            return self._datasets[name]
        except KeyError:
            raise CatalogError(f"unknown dataset {name!r}") from None

    def has_dataset(self, name: str) -> bool:
        return name in self._datasets

    # -- latency estimation ----------------------------------------------------------
    def simulate_scan(
        self,
        name: str,
        rows_to_read: int | None = None,
        output_groups: int = 1,
        reuse_rows: int = 0,
    ) -> SimulatedExecution:
        """Simulate scanning (a prefix of) a dataset with a group-by of given size.

        ``rows_to_read`` defaults to the whole dataset.  ``reuse_rows`` models
        §4.4 intermediate-data reuse: rows already processed while probing a
        smaller sample in the same family are not re-scanned.
        """
        info = self.dataset(name)
        rows = info.num_rows if rows_to_read is None else min(rows_to_read, info.num_rows)
        effective_rows = max(0, rows - max(0, reuse_rows))
        bytes_read = effective_rows * info.row_width_bytes

        blocks_touched = max(
            1, -(-bytes_read // self.config.hdfs_block_bytes)
        ) if bytes_read > 0 else 0
        nodes_involved = min(self.config.num_nodes, blocks_touched) if blocks_touched else 1

        estimate = self.cost_model.estimate(
            bytes_scanned=bytes_read,
            cached_fraction=info.cached_fraction,
            output_groups=max(1, output_groups),
            nodes_involved=nodes_involved,
        )
        return SimulatedExecution(
            dataset=name,
            rows_read=effective_rows,
            bytes_read=bytes_read,
            tier=self.cost_model.tier_of(info.cached_fraction),
            estimate=estimate,
        )

    def max_rows_within(
        self,
        name: str,
        time_budget_seconds: float,
        output_groups: int = 1,
    ) -> int:
        """Largest row prefix of ``name`` that fits in the time budget."""
        info = self.dataset(name)
        max_bytes = self.cost_model.max_bytes_within(
            time_budget_seconds,
            cached_fraction=info.cached_fraction,
            output_groups=max(1, output_groups),
        )
        return min(info.num_rows, max_bytes // info.row_width_bytes)

    # -- introspection -------------------------------------------------------------------
    def describe(self) -> dict[str, dict[str, object]]:
        """A JSON-friendly snapshot of every registered dataset."""
        return {
            name: {
                "rows": info.num_rows,
                "size_bytes": info.size_bytes,
                "cached_fraction": round(info.cached_fraction, 4),
            }
            for name, info in self._datasets.items()
        }
