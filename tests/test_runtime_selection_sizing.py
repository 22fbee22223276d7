"""Tests for run-time sample-family selection (§4.1) and ELP sizing (§4.2)."""

import math

import pytest

from repro.common.config import ClusterConfig, SamplingConfig
from repro.common.errors import SampleNotFoundError
from repro.cluster.simulator import ClusterSimulator
from repro.engine.executor import QueryExecutor
from repro.runtime.selection import SampleFamilySelector
from repro.runtime.sizing import SampleSizer
from repro.sampling.builder import SampleBuilder
from repro.sql.ast import ErrorBound, TimeBound
from repro.sql.parser import parse_query
from repro.storage.catalog import Catalog
from repro.workloads.conviva import generate_sessions_table


@pytest.fixture(scope="module")
def setup():
    table = generate_sessions_table(num_rows=30_000, seed=7, num_cities=80)
    catalog = Catalog()
    simulator = ClusterSimulator(ClusterConfig(num_nodes=20))
    config = SamplingConfig(largest_cap=300, min_cap=20, uniform_sample_fraction=0.1)
    builder = SampleBuilder(catalog, config, simulator=simulator, scale_factor=1000.0)
    builder.build_from_column_sets(table, [("city", "os"), ("country",)])
    selector = SampleFamilySelector(catalog, QueryExecutor())
    sizer = SampleSizer(simulator)
    return table, catalog, simulator, selector, sizer


class TestFamilySelection:
    def test_superset_match_prefers_fewest_columns(self, setup):
        _, _, _, selector, _ = setup
        query = parse_query("SELECT COUNT(*) FROM sessions WHERE country = 'country_0001'")
        selection = selector.select(query)
        assert selection.reason == "superset-match"
        assert selection.family.key == ("country",)

    def test_superset_match_multi_column(self, setup):
        _, _, _, selector, _ = setup
        query = parse_query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0002' GROUP BY os"
        )
        selection = selector.select(query)
        assert selection.family.key == ("city", "os")
        assert selection.covers_query

    def test_no_filter_uses_uniform_family(self, setup):
        _, _, _, selector, _ = setup
        query = parse_query("SELECT AVG(session_time) FROM sessions")
        selection = selector.select(query)
        assert selection.reason == "no-filter-uniform"
        assert selection.family.key is None

    def test_probe_fallback_when_no_superset(self, setup):
        _, _, _, selector, _ = setup
        query = parse_query(
            "SELECT COUNT(*) FROM sessions WHERE genre = 'western' GROUP BY browser"
        )
        selection = selector.select(query)
        assert selection.reason == "probe-best-ratio"
        assert selection.probe is not None
        assert len(selection.probes) >= 2  # all families were probed

    def test_probe_statistics(self, setup):
        _, _, _, selector, _ = setup
        query = parse_query("SELECT COUNT(*) FROM sessions WHERE city = 'city_0001'")
        selection = selector.select(query)
        probe = selector.probe(query, selection.family.smallest)
        assert 0 <= probe.selectivity <= 1
        assert probe.rows_read == selection.family.smallest.num_rows
        assert probe.num_groups >= 1

    def test_missing_samples_raise(self):
        catalog = Catalog()
        table = generate_sessions_table(num_rows=100, seed=1)
        catalog.register_table(table)
        selector = SampleFamilySelector(catalog, QueryExecutor())
        with pytest.raises(SampleNotFoundError):
            selector.select(parse_query("SELECT COUNT(*) FROM sessions"))

    def test_disjunctive_branches_are_disjoint(self, setup):
        table, _, _, selector, _ = setup
        query = parse_query(
            "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' OR os = 'Linux'"
        )
        branches = selector.disjunctive_branches(query)
        assert len(branches) == 2
        from repro.engine.expressions import evaluate_predicate

        masks = [evaluate_predicate(branch, table) for branch in branches]
        assert not (masks[0] & masks[1]).any()  # disjoint by construction
        union = masks[0] | masks[1]
        original = evaluate_predicate(query.where, table)
        assert (union == original).all()

    def test_conjunctive_query_single_branch(self, setup):
        _, _, _, selector, _ = setup
        query = parse_query("SELECT COUNT(*) FROM sessions WHERE city = 'c' AND os = 'Win7'")
        assert len(selector.disjunctive_branches(query)) == 1

    def test_select_for_branch_uses_branch_columns(self, setup):
        _, _, _, selector, _ = setup
        query = parse_query(
            "SELECT COUNT(*) FROM sessions WHERE country = 'country_0001' OR genre = 'western'"
        )
        branches = selector.disjunctive_branches(query)
        first = selector.select_for_branch(query, branches[0])
        assert first.family.key == ("country",)


class TestSizing:
    def _probe(self, setup, sql):
        _, _, _, selector, _ = setup
        query = parse_query(sql)
        selection = selector.select(query)
        probe = selection.probe or selector.probe(query, selection.family.smallest)
        return query, selection, probe

    def test_profile_error_decreases_and_latency_increases(self, setup):
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0001' GROUP BY os"
        )
        profile = sizer.build_profile(selection.family, probe)
        errors = [e.predicted_relative_error for e in profile]
        latencies = [e.predicted_latency_seconds for e in profile]
        finite_errors = [e for e in errors if math.isfinite(e)]
        assert finite_errors == sorted(finite_errors, reverse=True)
        # Latency grows (weakly) with resolution size; small resolutions are
        # startup-dominated so allow millisecond-level noise.
        for earlier, later in zip(latencies, latencies[1:]):
            assert later >= earlier - 1e-2
        assert latencies[-1] >= latencies[0]

    def test_profile_error_scales_as_inverse_sqrt_rows(self, setup):
        # Table 2's σ ∝ 1/√n: 4× the rows halve the predicted error.
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0001' GROUP BY os"
        )
        assert 0 < probe.worst_relative_error < math.inf
        profile = sizer.build_profile(selection.family, probe)
        for entry in profile:
            growth = entry.resolution.num_rows / probe.resolution.num_rows
            assert entry.predicted_relative_error == pytest.approx(
                probe.worst_relative_error / math.sqrt(growth), rel=1e-12
            )

    def test_error_bound_cut_by_f_needs_f_squared_rows(self, setup):
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0001' GROUP BY os"
        )
        family = selection.family
        assert probe.resolution is family.smallest
        for resolution in family.resolutions:
            shrink = math.sqrt(probe.resolution.num_rows / resolution.num_rows)
            bound = ErrorBound(error=probe.worst_relative_error * shrink * (1 + 1e-9), confidence=0.95)
            chosen, _, satisfied = sizer.resolution_for_error(family, probe, bound)
            assert satisfied
            assert chosen is resolution

    def test_error_bound_met_by_the_probe_keeps_the_smallest_resolution(self, setup):
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001'"
        )
        bound = ErrorBound(error=probe.worst_relative_error, confidence=0.95)
        resolution, _, satisfied = sizer.resolution_for_error(selection.family, probe, bound)
        assert satisfied
        assert resolution is selection.family.smallest

    def test_unbounded_probe_error_waits_for_two_predicted_matches(self, setup):
        # A probe that matched no row cannot bound the error: the profile
        # stays unbounded until a resolution is predicted to hold two
        # matching rows, then guesses 1/√(predicted matches).
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT SUM(session_time) FROM sessions WHERE country = 'country_01'"
        )
        assert probe.rows_matched == 0 and math.isinf(probe.worst_relative_error)
        profile = sizer.build_profile(selection.family, probe)
        assert any(math.isinf(e.predicted_relative_error) for e in profile)
        assert any(math.isfinite(e.predicted_relative_error) for e in profile)
        for entry in profile:
            if entry.predicted_rows_matched >= 2:
                assert entry.predicted_relative_error == pytest.approx(
                    1 / math.sqrt(entry.predicted_rows_matched)
                )
            else:
                assert math.isinf(entry.predicted_relative_error)

    def test_error_bound_picks_smallest_satisfying_resolution(self, setup):
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001'"
        )
        loose = ErrorBound(error=0.5, confidence=0.95)
        tight = ErrorBound(error=0.02, confidence=0.95)
        loose_resolution, _, loose_ok = sizer.resolution_for_error(selection.family, probe, loose)
        tight_resolution, _, _ = sizer.resolution_for_error(selection.family, probe, tight)
        assert loose_ok
        assert loose_resolution.num_rows <= tight_resolution.num_rows

    def test_unsatisfiable_error_bound_returns_largest(self, setup):
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT AVG(session_time) FROM sessions WHERE city = 'city_0005' GROUP BY os"
        )
        bound = ErrorBound(error=0.0001, confidence=0.95)
        resolution, _, satisfied = sizer.resolution_for_error(selection.family, probe, bound)
        assert not satisfied
        assert resolution.name == selection.family.largest.name

    def test_time_bound_picks_largest_fitting_resolution(self, setup):
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001' GROUP BY os"
        )
        generous = TimeBound(seconds=120.0)
        tight = TimeBound(seconds=1.0)
        generous_resolution, _, ok = sizer.resolution_for_time(selection.family, probe, generous)
        tight_resolution, _, _ = sizer.resolution_for_time(selection.family, probe, tight)
        assert ok
        assert generous_resolution.num_rows >= tight_resolution.num_rows

    def test_default_resolution_is_largest(self, setup):
        *_, sizer = setup
        query, selection, probe = self._probe(
            setup, "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001'"
        )
        assert sizer.default_resolution(selection.family, probe) is selection.family.largest

    def test_sizer_without_simulator_uses_row_proxy(self, setup):
        query, selection, probe = self._probe(
            setup, "SELECT COUNT(*) FROM sessions WHERE city = 'city_0001'"
        )
        sizer = SampleSizer(simulator=None)
        profile = sizer.build_profile(selection.family, probe)
        assert all(e.predicted_latency_seconds > 0 for e in profile)
