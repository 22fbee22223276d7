"""Shared fixtures and Hypothesis profiles for the test suite.

Data-generation and sample-building fixtures are session-scoped: they are
deterministic (seeded) and read-only for the tests that use them, so sharing
them keeps the suite fast.

Property tests run derandomized by default, so every run draws the same
examples and a green run means the same thing each time.  The search for
new counterexamples happens in a separate run:
``pytest tests/test_property_*.py tests/test_obs_trace.py
--hypothesis-profile=explore`` draws fresh random examples and multiplies
each test's own ``max_examples`` by :data:`EXPLORE_EXAMPLE_FACTOR`.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.storage.table import Table
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table
from repro.workloads.tpch import generate_lineitem_table, generate_orders_table

EXPLORE_EXAMPLE_FACTOR = 5

settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False)


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    """Under the ``explore`` profile, scale each property test's example budget.

    Tests pin ``max_examples`` in their own ``@settings``, which a profile
    cannot override, so the budget is raised on the collected test itself.
    A test that pins ``derandomize=True`` checks a statistical promise
    (e.g. error bars at 95% confidence) on a fixed draw and keeps its budget:
    more draws would only find the misses its confidence level allows.
    """
    if settings.get_current_profile_name() != "explore":
        return
    # One entry per test function, however many items (parametrizations,
    # methods) share it, so each budget is scaled exactly once.
    tests = {getattr(item.obj, "__func__", item.obj) for item in items if hasattr(item, "obj")}
    for test in tests:
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and not own.derandomize:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * EXPLORE_EXAMPLE_FACTOR
            )


class SegmentLedger:
    """Names of the shared-memory segments one test exported."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def assert_unlinked(self) -> None:
        """Fail unless every recorded segment has been unlinked again."""
        assert self.names, "the test exported no segment, so checks no leak"
        linked = [n for n in self.names if os.path.exists(os.path.join("/dev/shm", n))]
        assert not linked, f"shared-memory segments still linked: {linked}"


@pytest.fixture
def exported_segments(monkeypatch: pytest.MonkeyPatch) -> SegmentLedger:
    """Record every segment this process exports while the test runs.

    Wraps :func:`repro.storage.shm.export_table`, where the parent creates
    every table segment, so a leak check looks only at the test's own
    segments and not at what other processes on the host keep in
    ``/dev/shm``.
    """
    from repro.storage import shm

    ledger = SegmentLedger()
    export_table = shm.export_table

    def recording(*args, **kwargs):
        export = export_table(*args, **kwargs)
        ledger.names.append(export.handle.segment)
        return export

    monkeypatch.setattr(shm, "export_table", recording)
    return ledger


@pytest.fixture(scope="session")
def sessions_table() -> Table:
    """A small, skewed Conviva-like sessions table.

    Dimension cardinalities are reduced relative to the generator defaults so
    that strata are large compared to the stratification cap — the regime the
    paper's 17 TB / K=100,000 configuration operates in.
    """
    return generate_sessions_table(
        num_rows=20_000,
        seed=7,
        num_cities=40,
        num_countries=15,
        num_customers=100,
        num_dmas=20,
        num_asns=50,
    )


@pytest.fixture(scope="session")
def lineitem_table() -> Table:
    """A small TPC-H-like lineitem table."""
    return generate_lineitem_table(num_rows=20_000, seed=13)


@pytest.fixture(scope="session")
def orders_table() -> Table:
    return generate_orders_table(num_orders=6_000, seed=17)


@pytest.fixture(scope="session")
def tiny_table() -> Table:
    """The paper's Sessions example table (Table 3)."""
    return Table.from_dict(
        "tiny_sessions",
        {
            "url": ["cnn.com", "yahoo.com", "google.com", "google.com", "bing.com"],
            "city": ["New York", "New York", "Berkeley", "New York", "Cambridge"],
            "browser": ["Firefox", "Firefox", "Firefox", "Safari", "IE"],
            "session_time": [15, 20, 85, 82, 22],
        },
    )


@pytest.fixture(scope="session")
def sampling_config() -> SamplingConfig:
    return SamplingConfig(largest_cap=100, min_cap=10, uniform_sample_fraction=0.1)


@pytest.fixture(scope="session")
def small_cluster() -> ClusterConfig:
    return ClusterConfig(num_nodes=10)


@pytest.fixture(scope="session")
def blinkdb_conviva(sessions_table) -> BlinkDB:
    """A BlinkDB instance with samples built over the sessions table."""
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=80, min_cap=10, uniform_sample_fraction=0.1),
        cluster=ClusterConfig(num_nodes=20),
    )
    db = BlinkDB(config)
    db.load_table(sessions_table, simulated_rows=20_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
