"""A single simulated cluster node."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import ClusterConfig


@dataclass
class Node:
    """One machine in the simulated cluster.

    A node tracks how many bytes of each dataset it stores on disk and how
    many are resident in its share of the cluster cache.  The cost model uses
    these figures to compute per-node scan times; the slowest node determines
    the wave's completion time (stragglers are not modelled beyond this
    max-over-nodes behaviour).
    """

    node_id: int
    config: ClusterConfig
    disk_bytes: dict[str, int] = field(default_factory=dict)
    cached_bytes: dict[str, int] = field(default_factory=dict)

    @property
    def disk_used_bytes(self) -> int:
        return sum(self.disk_bytes.values())

    @property
    def cache_used_bytes(self) -> int:
        return sum(self.cached_bytes.values())

    @property
    def cache_free_bytes(self) -> int:
        return max(0, self.config.memory_per_node_bytes - self.cache_used_bytes)

    def store(self, dataset: str, num_bytes: int) -> None:
        """Record ``num_bytes`` of ``dataset`` placed on this node's disk."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        self.disk_bytes[dataset] = self.disk_bytes.get(dataset, 0) + num_bytes

    def cache(self, dataset: str, num_bytes: int) -> int:
        """Cache up to ``num_bytes`` of ``dataset`` in memory; returns bytes cached."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        admitted = min(num_bytes, self.cache_free_bytes)
        if admitted > 0:
            self.cached_bytes[dataset] = self.cached_bytes.get(dataset, 0) + admitted
        return admitted

    def evict(self, dataset: str) -> int:
        """Drop a dataset from this node's cache; returns bytes freed."""
        return self.cached_bytes.pop(dataset, 0)

    def stored_bytes(self, dataset: str) -> int:
        return self.disk_bytes.get(dataset, 0)

    def cached_bytes_of(self, dataset: str) -> int:
        return self.cached_bytes.get(dataset, 0)

    def scan_seconds(self, dataset: str) -> float:
        """Time for this node to scan its share of ``dataset`` once.

        Cached bytes stream at memory bandwidth, the rest at disk bandwidth.
        The node's cores share the scan, but sequential I/O is assumed to be
        the bottleneck, so parallelism within a node only helps for cached
        data (CPU-bound decoding), modelled with a modest speedup factor.
        """
        on_disk = max(0, self.stored_bytes(dataset) - self.cached_bytes_of(dataset))
        in_memory = min(self.stored_bytes(dataset), self.cached_bytes_of(dataset))
        disk_time = on_disk / self.config.disk_bandwidth_bytes_per_sec
        cpu_parallelism = max(1, self.config.cores_per_node // 2)
        memory_time = in_memory / (self.config.memory_bandwidth_bytes_per_sec * cpu_parallelism)
        return disk_time + memory_time
