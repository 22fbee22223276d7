"""Tests for repro.common.config."""

import dataclasses

import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig


class TestSamplingConfig:
    def test_defaults_are_valid(self):
        config = SamplingConfig()
        assert config.resolution_ratio > 1

    def test_effective_cap_uses_explicit_value(self):
        config = SamplingConfig(largest_cap=1234)
        assert config.effective_cap(10**9) == 1234

    def test_effective_cap_auto_scales_with_rows(self):
        config = SamplingConfig(auto_cap_divisor=500, min_cap=10)
        assert config.effective_cap(500_000) == 1000
        assert config.effective_cap(1_000) == 10  # floored at min_cap

    def test_resolution_caps_geometric_ladder(self):
        config = SamplingConfig(largest_cap=100, resolution_ratio=2.0, min_cap=10)
        caps = config.resolution_caps()
        assert caps == [100, 50, 25, 12]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_resolution_caps_explicit_override(self):
        config = SamplingConfig(min_cap=10, resolution_ratio=2.0)
        assert config.resolution_caps(40) == [40, 20, 10]

    def test_resolution_caps_requires_cap_when_auto(self):
        config = SamplingConfig()
        with pytest.raises(ValueError):
            config.resolution_caps()

    def test_with_budget_returns_modified_copy(self):
        config = SamplingConfig()
        other = config.with_budget(2.0)
        assert other.storage_budget_fraction == 2.0
        assert config.storage_budget_fraction != 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"largest_cap": 0},
            {"resolution_ratio": 1.0},
            {"min_cap": 0},
            {"storage_budget_fraction": 0.0},
            {"uniform_sample_fraction": 0.0},
            {"uniform_sample_fraction": 1.5},
            {"max_columns_per_family": 0},
            {"confidence": 1.0},
            {"auto_cap_divisor": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)


class TestClusterConfig:
    def test_defaults_match_paper_cluster_shape(self):
        config = ClusterConfig()
        assert config.num_nodes == 100
        assert config.cores_per_node == 8

    def test_total_memory_and_slots(self):
        config = ClusterConfig(num_nodes=4)
        assert config.total_memory_bytes == 4 * config.memory_per_node_bytes
        assert config.total_slots == 4 * config.scheduler_slots_per_node

    def test_with_nodes_copy(self):
        config = ClusterConfig()
        smaller = config.with_nodes(10)
        assert smaller.num_nodes == 10
        assert config.num_nodes == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"cores_per_node": 0},
            {"disk_bandwidth_bytes_per_sec": 0},
            {"network_bandwidth_bytes_per_sec": -1},
            {"hdfs_block_bytes": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestBlinkDBConfig:
    def test_default_composition(self):
        config = BlinkDBConfig()
        assert isinstance(config.sampling, SamplingConfig)
        assert isinstance(config.cluster, ClusterConfig)

    def test_field_names_are_pinned(self):
        # Every knob is surface a caller can set and a reviewer must weigh:
        # adding or removing one has to edit this list.
        assert [f.name for f in dataclasses.fields(BlinkDBConfig)] == [
            "sampling",
            "cluster",
            "seed",
            "strict_bounds",
            "maintenance_churn_fraction",
            "partition_workers",
            "anytime_enabled",
            "straggler_spread",
            "execution_backend",
            "procpool_workers",
            "procpool_task_timeout_seconds",
            "procpool_retry_attempts",
            "procpool_retry_backoff_seconds",
            "procpool_breaker_threshold",
            "procpool_breaker_cooldown_seconds",
            "service_retries",
            "service_retry_backoff_seconds",
            "ingest_flush_retries",
            "fault_plan",
            "fault_seed",
            "ingest_staleness_budget",
            "ingest_auto_escalate",
            "zone_block_rows",
            "trace_sample_rate",
        ]

    def test_churn_fraction_bounds(self):
        with pytest.raises(ValueError):
            BlinkDBConfig(maintenance_churn_fraction=1.5)
