"""Unit tests of the ingest subsystem: maintainers, TableIngest, controller.

The statistical invariants (uniform inclusion, cap caps, split-vs-whole
equivalence) are property-tested in ``test_property_ingest.py``; this module
pins the mechanics — nesting, weights, staleness accounting, generation
fencing, escalation, and the controller's batching/backpressure contract.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.ingest.maintainers import StratifiedFamilyMaintainer, stratified_prepare_task
from repro.net.protocol import encode_result
from repro.sampling.family import StratifiedSampleFamily, verify_nesting
from repro.storage.table import Table
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table


def fresh_db(rows: int = 12_000, **config_kwargs) -> BlinkDB:
    config = BlinkDBConfig(
        sampling=SamplingConfig(largest_cap=80, min_cap=10, uniform_sample_fraction=0.1),
        cluster=ClusterConfig(num_nodes=10),
        **config_kwargs,
    )
    db = BlinkDB(config)
    table = generate_sessions_table(
        num_rows=rows, seed=7, num_cities=40, num_countries=15, num_customers=100,
        num_dmas=20, num_asns=50,
    )
    db.load_table(table, simulated_rows=rows * 100)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=0.5)
    return db


def batch_of(rows: int, seed: int) -> dict[str, list]:
    src = generate_sessions_table(
        num_rows=rows, seed=seed, num_cities=40, num_countries=15, num_customers=100,
        num_dmas=20, num_asns=50,
    )
    return {name: list(src.column(name).values()) for name in src.column_names}


class TestAppendMaintainsFamilies:
    def test_families_stay_nested_and_weighted(self):
        db = fresh_db()
        db.append("sessions", batch_of(2_000, seed=21))
        db.append("sessions", batch_of(1_500, seed=22))
        total = db.catalog.table("sessions").num_rows
        assert total == 15_500

        uniform = db.catalog.uniform_family("sessions")
        assert verify_nesting(uniform)
        for resolution in uniform.resolutions:
            # Weights always reconstruct the *grown* population.
            assert resolution.represented_rows == pytest.approx(total)
            assert resolution.source_rows == total

        for columns, family in db.catalog.stratified_families("sessions").items():
            assert verify_nesting(family), columns
            frequencies = db.catalog.table("sessions").value_frequencies(list(columns))
            for resolution in family.resolutions:
                sample_frequencies = resolution.table.value_frequencies(list(columns))
                # Cap invariant and full stratum coverage.
                assert all(c <= resolution.cap for c in sample_frequencies.values())
                assert set(sample_frequencies) == set(frequencies)
                # Strata below the cap are stored in full with weight 1.
                for key, frequency in frequencies.items():
                    if frequency <= resolution.cap:
                        assert sample_frequencies[key] == frequency
                assert resolution.represented_rows == pytest.approx(total)

    def test_new_stratum_admission(self):
        db = fresh_db()
        batch = batch_of(50, seed=33)
        batch["country"] = ["country_brand_new"] * 50
        db.append("sessions", batch)
        for columns, family in db.catalog.stratified_families("sessions").items():
            if "country" not in columns:
                continue
            for resolution in family.resolutions:
                frequencies = resolution.table.value_frequencies(list(columns))
                admitted = [k for k in frequencies if "country_brand_new" in k]
                assert admitted, (columns, resolution.name)

    def test_append_is_per_table_o_batch_for_zone_maps(self):
        db = fresh_db()
        table = db.catalog.table("sessions")
        index_before = table.zone_map_index(db.config.zone_block_rows)
        db.append("sessions", batch_of(500, seed=44))
        grown = db.catalog.table("sessions")
        index_after = grown.zone_map_index(db.config.zone_block_rows)
        # Complete blocks of the old index are reused by identity.
        reused = index_before.num_rows // index_before.block_rows
        for i in range(reused):
            assert index_after.blocks[i] is index_before.blocks[i]


class TestGenerationFencing:
    def test_generation_bumps_per_append_and_stamps_results(self):
        db = fresh_db()
        assert db.table_generation("sessions") == 0
        db.append("sessions", batch_of(100, seed=5))
        assert db.table_generation("sessions") == 1
        result = db.query("SELECT COUNT(*) FROM sessions WHERE city = 'city_0003'")
        assert result.metadata["generation"] == 1
        exact = db.query_exact("SELECT COUNT(*) FROM sessions")
        assert exact.metadata["generation"] == 1
        db.append("sessions", batch_of(100, seed=6))
        assert db.query("SELECT COUNT(*) FROM sessions").metadata["generation"] == 2

    def test_probe_memo_fenced_per_table(self):
        db = fresh_db()
        # Force probe-path planning (column not covered by any family).
        sql = "SELECT AVG(session_time) FROM sessions WHERE bitrate_kbps > 3000"
        db.query(sql)
        selector = db.runtime.selector
        assert selector.probe_cache_stats["probe_cache_entries"] > 0
        db.append("sessions", batch_of(100, seed=9))
        assert selector.probe_cache_stats["probe_cache_entries"] == 0

    def test_append_reruns_counts_and_probe_and_answers_like_a_fresh_facade(self):
        # The memo holds one count per family and one aggregate probe for the
        # winner; the append must fence both kinds, or the next plan would
        # pick its family from counts of the previous generation.
        sql = (
            "SELECT COUNT(*), AVG(session_time) FROM sessions "
            "WHERE genre = 'drama' GROUP BY browser"
        )
        batch = batch_of(400, seed=31)
        db = fresh_db()
        families = len(db.runtime.explain(sql).selection.probes)
        assert families >= 2
        cold = db.runtime.selector.probe_cache_stats
        db.query(sql)
        before = db.runtime.selector.probe_cache_stats
        for kind in ("probe_cache_misses", "probe_cache_count_misses"):
            assert before[kind] == cold[kind]  # warm: every pass a memo hit
        db.append("sessions", batch)
        answer = db.query(sql)
        after = db.runtime.selector.probe_cache_stats
        assert after["probe_cache_count_misses"] - before["probe_cache_count_misses"] == families
        assert after["probe_cache_misses"] - before["probe_cache_misses"] == 1

        fresh = fresh_db()
        fresh.append("sessions", batch)
        expected = fresh.query(sql)
        assert answer.sample_name == expected.sample_name
        assert encode_result(answer) == encode_result(expected)


class TestEscalation:
    def test_staleness_budget_triggers_escalation(self):
        db = fresh_db(ingest_staleness_budget=0.05)
        report = db.append("sessions", batch_of(2_000, seed=50))
        assert report.staleness_exceeded
        assert report.escalated
        assert report.escalation in {"replan", "refresh"}
        assert db.ingest_stats()["sessions"]["escalations"] == 1
        # Escalation re-anchors: the next small append is fresh again.
        follow_up = db.append("sessions", batch_of(100, seed=51))
        assert not follow_up.staleness_exceeded

    def test_auto_escalation_can_be_disabled(self):
        db = fresh_db(ingest_staleness_budget=0.05, ingest_auto_escalate=False)
        report = db.append("sessions", batch_of(2_000, seed=52))
        assert report.staleness_exceeded
        assert not report.escalated

    def test_build_samples_reanchors_ingest_state(self):
        db = fresh_db(ingest_staleness_budget=10.0)
        db.append("sessions", batch_of(2_000, seed=53))
        state = db._ingest_states["sessions"]
        assert state.staleness > 0.0
        db.build_samples(storage_budget_fraction=0.5)
        assert state.staleness == 0.0
        assert not db.catalog.statistics("sessions").estimated


class TestIngestController:
    def test_inline_controller_batches(self):
        db = fresh_db()
        controller = db.ingest_controller("sessions", batch_rows=500, background=False)
        rows = batch_of(1_200, seed=60)
        row_dicts = [
            {name: rows[name][i] for name in rows} for i in range(1_200)
        ]
        for row in row_dicts:
            controller.submit(row)
        # 2 full batches flushed inline; the remainder waits for close().
        assert db.catalog.table("sessions").num_rows == 13_000
        assert controller.pending_rows == 200
        controller.close()
        assert db.catalog.table("sessions").num_rows == 13_200
        stats = db.ingest_stats()["sessions"]
        assert stats["rows_appended"] == 1_200
        assert stats["batches"] == 3

    def test_background_controller_drains(self):
        db = fresh_db()
        with db.ingest_controller("sessions", batch_rows=256) as controller:
            rows = batch_of(1_000, seed=61)
            controller.submit(
                [{name: rows[name][i] for name in rows} for i in range(1_000)]
            )
        assert db.catalog.table("sessions").num_rows == 13_000
        assert controller.pending_rows == 0

    def test_oversized_submit_does_not_deadlock(self):
        # A single submission larger than the whole pending buffer must be
        # chunked through backpressure, not spin against a buffer it can
        # never fit into.
        db = fresh_db()
        rows = batch_of(300, seed=62)
        row_dicts = [{name: rows[name][i] for name in rows} for i in range(300)]
        with db.ingest_controller("sessions", batch_rows=64, max_pending_rows=128) as controller:
            controller.submit(row_dicts)
        assert db.catalog.table("sessions").num_rows == 12_300

    def test_submit_next_to_sub_batch_remainder_does_not_deadlock(self):
        # The flusher only drains full batches, so a remainder < batch_rows
        # can sit pending forever; a later near-buffer-sized submit must
        # still make progress next to it.
        db = fresh_db()
        rows = batch_of(11, seed=63)
        row_dicts = [{name: rows[name][i] for name in rows} for i in range(11)]
        with db.ingest_controller("sessions", batch_rows=4, max_pending_rows=8) as controller:
            controller.submit(row_dicts[:3])   # remainder: 3 rows pending
            controller.submit(row_dicts[3:])   # 8 more — must not hang
        assert db.catalog.table("sessions").num_rows == 12_011

    def test_submit_after_close_raises(self):
        db = fresh_db()
        controller = db.ingest_controller("sessions", background=False)
        controller.close()
        with pytest.raises(Exception):
            controller.submit({"bogus": 1})


class TestServiceGauges:
    def test_describe_mirrors_ingest_counters(self):
        db = fresh_db()
        service = db.serve(num_workers=1)
        try:
            db.append("sessions", batch_of(300, seed=70))
            snapshot = service.describe()
            ingest = snapshot["metrics"]["ingest"]["sessions"]
            assert ingest["rows_appended"] == 300
            assert ingest["batches"] == 1
            assert ingest["rows_per_second"] > 0
        finally:
            service.close()


class TestSimulatorResize:
    def test_datasets_track_grown_rows(self):
        db = fresh_db()
        scale = db._builder.scale_factor
        db.append("sessions", batch_of(1_000, seed=80))
        info = db.simulator.dataset("sessions")
        assert info.num_rows == int(13_000 * scale)
        uniform = db.catalog.uniform_family("sessions")
        largest = db.simulator.dataset(uniform.largest.name)
        assert largest.num_rows == int(uniform.largest.num_rows * scale)
        for resolution in uniform.resolutions[:-1]:
            nested = db.simulator.dataset(resolution.name)
            assert nested.num_rows == int(resolution.num_rows * scale)
            assert nested.parent == uniform.largest.name


def test_append_rejects_unknown_table():
    db = fresh_db()
    with pytest.raises(Exception):
        db.append("nope", [{"a": 1}])


def test_append_accepts_columnar_and_row_forms():
    db = fresh_db()
    columnar = batch_of(10, seed=90)
    db.append("sessions", columnar)
    rows = [{name: columnar[name][i] for name in columnar} for i in range(10)]
    db.append("sessions", rows)
    assert db.catalog.table("sessions").num_rows == 12_020


def test_numpy_int64_indices_do_not_break_grouping():
    # group keys must decode to plain Python values whether they come from the
    # base table or from an appended batch (np.int64 vs int must collide).
    db = fresh_db()
    frequencies_before = db.catalog.table("sessions").value_frequencies(["endedflag"])
    batch = batch_of(100, seed=91)
    db.append("sessions", batch)
    frequencies_after = db.catalog.table("sessions").value_frequencies(["endedflag"])
    assert set(frequencies_after) == set(frequencies_before)


@pytest.mark.parametrize("pickled", [False, True])
def test_nan_stratum_stays_one_stratum_across_appends(pickled):
    # The anchor's keys come from Table.group_codes and the batch's from the
    # batch grouping (or, on the process pool, from a pickled copy of it);
    # all NaN rows are one stratum, and the batch's NaN rows must find it.
    nan = float("nan")
    table = Table.from_dict("t", {"x": [1.0, nan, nan, 2.0] * 10, "v": [float(i) for i in range(40)]})
    config = SamplingConfig(largest_cap=8, min_cap=2)
    family = StratifiedSampleFamily.build(table, ("x",), config)
    maintainer = StratifiedFamilyMaintainer("t", family, table)
    batch = {"x": np.array([nan, nan, 1.0]), "v": np.array([0.0, 1.0, 2.0])}
    grouped = stratified_prepare_task({"x": batch["x"]}, ("x",))
    grouped = pickle.loads(pickle.dumps(grouped)) if pickled else None
    _, delta = maintainer.apply(table.append_batch(batch), batch, table.num_rows, pregrouped=grouped)
    assert delta.new_strata == 0
    largest = maintainer.family.largest.table
    assert largest.value_frequencies(["x"]) == {(1.0,): 8, (2.0,): 8, (math.nan,): 8}
