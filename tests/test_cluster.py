"""Tests for the cluster simulator: nodes, placement, cost model, simulator."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import CatalogError
from repro.common.units import GB, MB, TB
from repro.cluster.cost_model import CostModel, StorageTier
from repro.cluster.node import Node
from repro.cluster.placement import round_robin_bytes
from repro.cluster.simulator import ClusterSimulator
from repro.storage.block import split_into_blocks


@pytest.fixture()
def config() -> ClusterConfig:
    return ClusterConfig(num_nodes=10)


class TestNode:
    def test_store_and_cache_accounting(self, config):
        node = Node(0, config)
        node.store("t", 10 * GB)
        cached = node.cache("t", 4 * GB)
        assert cached == 4 * GB
        assert node.stored_bytes("t") == 10 * GB
        assert node.cached_bytes_of("t") == 4 * GB

    def test_cache_admission_bounded_by_memory(self, config):
        node = Node(0, config)
        node.store("t", 200 * GB)
        cached = node.cache("t", 200 * GB)
        assert cached == config.memory_per_node_bytes

    def test_scan_time_cached_is_faster(self, config):
        fast = Node(0, config)
        slow = Node(1, config)
        fast.store("t", 10 * GB)
        fast.cache("t", 10 * GB)
        slow.store("t", 10 * GB)
        assert fast.scan_seconds("t") < slow.scan_seconds("t")

    def test_evict(self, config):
        node = Node(0, config)
        node.store("t", GB)
        node.cache("t", GB)
        assert node.evict("t") == GB
        assert node.cached_bytes_of("t") == 0

    def test_negative_rejected(self, config):
        node = Node(0, config)
        with pytest.raises(ValueError):
            node.store("t", -1)


def _enumerated_bytes(num_rows, row_width, block_bytes, num_nodes, start_node):
    """Round-robin placement by enumerating every block."""
    totals = [0] * num_nodes
    for i, block in enumerate(split_into_blocks("t", num_rows, row_width, block_bytes)):
        totals[(start_node + i) % num_nodes] += block.size_bytes
    return totals


class TestPlacement:
    def test_round_robin_balances_bytes(self, config):
        per_node = round_robin_bytes(10_000_000, 100, 128 * MB, config.num_nodes)
        assert max(per_node) - min(per_node) <= 128 * MB

    def test_start_node_rotation(self):
        # 1000 rows of 100 bytes in 10 kB blocks: ten blocks over four nodes,
        # so the first two nodes after start_node hold one block more.
        a = round_robin_bytes(1000, 100, 10_000, 4, start_node=0)
        b = round_robin_bytes(1000, 100, 10_000, 4, start_node=1)
        assert a == [30_000, 30_000, 20_000, 20_000]
        assert b == [20_000, 30_000, 30_000, 20_000]

    def test_bytes_sum_to_dataset_size(self):
        per_node = round_robin_bytes(1001, 100, 10_000, 3)
        assert sum(per_node) == 1001 * 100

    @pytest.mark.parametrize("num_rows", [0, 1, 99, 100, 101, 250, 399, 400, 401, 1234])
    @pytest.mark.parametrize("num_nodes", [1, 3, 4, 7])
    @pytest.mark.parametrize("start_node", [0, 2, 5])
    def test_matches_block_enumeration(self, num_rows, num_nodes, start_node):
        # 100 rows per 1 kB block: covers zero rows, one row, fewer blocks
        # than nodes, exact multiples of the block and of the node count,
        # and a short tail block.
        assert round_robin_bytes(num_rows, 10, 1000, num_nodes, start_node) == (
            _enumerated_bytes(num_rows, 10, 1000, num_nodes, start_node)
        )

    @pytest.mark.parametrize("row_width", [1, 7, 333, 1000, 4096])
    def test_matches_block_enumeration_across_row_widths(self, row_width):
        # Widths that do not divide the block size, and rows wider than a
        # block (one row per block).
        for num_rows in (0, 1, 5, 17, 1000):
            assert round_robin_bytes(num_rows, row_width, 1000, 5, 3) == (
                _enumerated_bytes(num_rows, row_width, 1000, 5, 3)
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            round_robin_bytes(10, 10, 1000, 0)
        with pytest.raises(ValueError):
            round_robin_bytes(-1, 10, 1000, 3)
        with pytest.raises(ValueError):
            round_robin_bytes(10, 0, 1000, 3)


class TestCostModel:
    def test_latency_monotone_in_bytes(self, config):
        model = CostModel(config)
        small = model.estimate(1 * GB).total_seconds
        large = model.estimate(100 * GB).total_seconds
        assert large > small

    def test_cached_faster_than_disk(self, config):
        model = CostModel(config)
        disk = model.estimate(1 * TB, cached_fraction=0.0).total_seconds
        memory = model.estimate(1 * TB, cached_fraction=1.0).total_seconds
        assert memory < disk / 3

    def test_full_table_scan_is_minutes_at_paper_scale(self):
        # The paper quotes tens of minutes for a 10 TB disk scan on 100 nodes.
        model = CostModel(ClusterConfig(num_nodes=100))
        latency = model.estimate(10 * TB, cached_fraction=0.0).total_seconds
        assert 300 < latency < 3600

    def test_small_scan_dominated_by_startup(self, config):
        model = CostModel(config)
        estimate = model.estimate(10 * MB)
        assert estimate.startup_seconds > estimate.scan_seconds

    def test_tier_classification(self, config):
        model = CostModel(config)
        assert model.tier_of(1.0) is StorageTier.MEMORY
        assert model.tier_of(0.0) is StorageTier.DISK
        assert model.tier_of(0.5) is StorageTier.MIXED

    def test_max_bytes_within_inverts_estimate(self, config):
        model = CostModel(config)
        budget = 5.0
        max_bytes = model.max_bytes_within(budget, cached_fraction=0.0)
        assert model.estimate(max_bytes).total_seconds <= budget
        assert model.estimate(int(max_bytes * 1.3) + GB).total_seconds > budget

    def test_max_bytes_within_zero_budget(self, config):
        model = CostModel(config)
        assert model.max_bytes_within(0.0) == 0

    def test_negative_bytes_rejected(self, config):
        with pytest.raises(ValueError):
            CostModel(config).estimate(-1)


class TestClusterSimulator:
    def test_register_and_describe(self, config):
        sim = ClusterSimulator(config)
        info = sim.register_dataset("t", num_rows=1_000_000, row_width_bytes=100, cache=False)
        assert info.size_bytes == 100_000_000
        assert sim.has_dataset("t")
        assert "t" in sim.describe()

    def test_duplicate_registration_rejected(self, config):
        sim = ClusterSimulator(config)
        sim.register_dataset("t", 100, 10)
        with pytest.raises(CatalogError):
            sim.register_dataset("t", 100, 10)

    def test_cache_request_fraction(self, config):
        sim = ClusterSimulator(config)
        info = sim.register_dataset("t", 1_000_000, 100, cache=True)
        assert info.cached_fraction == pytest.approx(1.0, abs=0.01)

    def test_cache_spills_when_exceeding_cluster_memory(self):
        sim = ClusterSimulator(ClusterConfig(num_nodes=2))
        huge_rows = int(3 * 68 * GB / 100)  # ~3x the 2-node memory
        info = sim.register_dataset("big", huge_rows, 100, cache=True)
        assert info.cached_fraction < 0.9

    def test_simulated_scan_latency_scales_with_rows(self, config):
        sim = ClusterSimulator(config)
        sim.register_dataset("t", 50_000_000, 100, cache=False)
        full = sim.simulate_scan("t")
        partial = sim.simulate_scan("t", rows_to_read=1_000_000)
        assert full.latency_seconds > partial.latency_seconds
        assert full.rows_read == 50_000_000

    def test_reuse_rows_reduces_latency(self, config):
        sim = ClusterSimulator(config)
        sim.register_dataset("t", 50_000_000, 100, cache=False)
        cold = sim.simulate_scan("t", rows_to_read=10_000_000)
        warm = sim.simulate_scan("t", rows_to_read=10_000_000, reuse_rows=8_000_000)
        assert warm.latency_seconds < cold.latency_seconds

    def test_max_rows_within_budget(self, config):
        sim = ClusterSimulator(config)
        sim.register_dataset("t", 500_000_000, 100, cache=False)
        rows = sim.max_rows_within("t", time_budget_seconds=5.0)
        assert 0 < rows < 500_000_000
        assert sim.simulate_scan("t", rows_to_read=rows).latency_seconds <= 5.0

    def test_unregister(self, config):
        sim = ClusterSimulator(config)
        sim.register_dataset("t", 100, 10)
        sim.unregister_dataset("t")
        assert not sim.has_dataset("t")
        with pytest.raises(CatalogError):
            sim.simulate_scan("t")
