"""Tests for compiled predicate kernels (zone-map triage + selection vectors)."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.common.errors import ExecutionError
from repro.engine.executor import ExecutionContext, QueryExecutor
from repro.engine.expressions import evaluate_predicate
from repro.engine.kernels import ScanCounters, compile_predicate
from repro.planner.logical import LogicalPlan
from repro.storage.table import Table
from repro.storage.zonemaps import ZoneDecision

from _reference import MaskPathExecutor

ROWS = 120


@pytest.fixture()
def table() -> Table:
    # `a` is sorted (clustered), `b` cycles, `city` clusters in thirds.
    return Table.from_dict(
        "t",
        {
            "a": list(range(ROWS)),
            "b": [i % 7 for i in range(ROWS)],
            "x": [float(i) / 3.0 for i in range(ROWS)],
            "city": [["Austin", "Boston", "Chicago"][i // (ROWS // 3)] for i in range(ROWS)],
        },
    )


def where(fragment: str):
    return LogicalPlan.of(f"SELECT COUNT(*) FROM t WHERE {fragment}").where


def kernel_for(table: Table, fragment: str, block_rows: int = 16):
    return compile_predicate(where(fragment), table, table.zone_map_index(block_rows))


PREDICATES = [
    "a < 10",
    "a >= 110",
    "a BETWEEN 30 AND 45",
    "b = 3",
    "b != 3",
    "b IN (1, 5, 6)",
    "x > 20.5",
    "city = 'Boston'",
    "city != 'Boston'",
    "city IN ('Austin', 'Chicago')",
    "city < 'Boston'",
    "city >= 'Boston'",
    "city BETWEEN 'Austin' AND 'Boston'",
    "city = 'Zagreb'",
    "city != 'Zagreb'",
    "NOT a < 10",
    "a < 50 AND b = 3",
    "a < 10 OR a >= 110",
    "(city = 'Austin' OR city = 'Chicago') AND a BETWEEN 10 AND 90",
    "NOT (a < 50 AND b = 3)",
    "a < 0",
    "a >= 0",
]


class TestSelectionEquivalence:
    @pytest.mark.parametrize("fragment", PREDICATES)
    @pytest.mark.parametrize("block_rows", [7, 16, 1000])
    def test_selection_matches_mask(self, table, fragment, block_rows):
        kernel = kernel_for(table, fragment, block_rows)
        selection = kernel.select_range(table, 0, ROWS)
        expected = np.flatnonzero(evaluate_predicate(where(fragment), table))
        assert selection.tolist() == expected.tolist()

    @pytest.mark.parametrize("fragment", PREDICATES)
    def test_partition_views_select_local_indices(self, table, fragment):
        kernel = kernel_for(table, fragment, 16)
        full = np.flatnonzero(evaluate_predicate(where(fragment), table))
        for start, end in [(0, 40), (40, 80), (25, 103), (119, 120)]:
            view = table.slice_rows(start, end)
            local = kernel.select_range(view, start, end)
            expected = full[(full >= start) & (full < end)] - start
            assert local.tolist() == expected.tolist()

    def test_selection_is_sorted_unique(self, table):
        kernel = kernel_for(table, "a < 60 OR b = 3 OR city = 'Austin'", 16)
        selection = kernel.select_range(table, 0, ROWS)
        assert np.all(np.diff(selection) > 0)

    def test_nan_rows_never_match(self):
        t = Table.from_dict("t", {"x": [1.0, float("nan"), 3.0, float("nan"), 5.0]})
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE x > 0")
        kernel = compile_predicate(plan.where, t, t.zone_map_index(2))
        expected = np.flatnonzero(evaluate_predicate(plan.where, t))
        assert kernel.select_range(t, 0, 5).tolist() == expected.tolist()

    @pytest.mark.parametrize("accelerated", [True, False])
    def test_foreign_predicate_raises_on_both_paths(self, table, accelerated):
        # Neither the kernel compiler nor the mask path knows this type, so
        # the kernel path has no fallback that could answer: both raise.
        @dataclass(frozen=True)
        class Foreign:
            column: str = "a"

        plan = replace(LogicalPlan.of("SELECT COUNT(*) FROM t WHERE a < 3"), where=Foreign())
        executor_class = QueryExecutor if accelerated else MaskPathExecutor
        executor = executor_class(zone_block_rows=16)
        with pytest.raises(ExecutionError, match="unsupported predicate type"):
            executor.count_matching(plan, table)
        with pytest.raises(ExecutionError, match="unsupported predicate type"):
            evaluate_predicate(plan.where, table)
        # execute() rejects the type earlier still, while collecting the
        # columns the plan references, so no filter stage ever sees it.
        with pytest.raises(TypeError, match="unknown predicate type"):
            executor.execute(plan, table, ExecutionContext())


class TestZoneClassification:
    def classify(self, table, fragment, block_rows=16):
        kernel = kernel_for(table, fragment, block_rows)
        index = table.zone_map_index(block_rows)
        return [kernel.classify_block(b.zones) for b in index.blocks]

    def test_sorted_column_skips_and_takes_whole_blocks(self, table):
        decisions = self.classify(table, "a < 32")
        # Blocks [0,16) and [16,32) are fully below 32; the rest fully above.
        assert decisions[0] is ZoneDecision.TAKE_ALL
        assert decisions[1] is ZoneDecision.TAKE_ALL
        assert all(d is ZoneDecision.SKIP for d in decisions[2:])

    def test_absent_string_skips_everything(self, table):
        assert all(
            d is ZoneDecision.SKIP for d in self.classify(table, "city = 'Zagreb'")
        )

    def test_absent_string_negation_takes_everything(self, table):
        assert all(
            d is ZoneDecision.TAKE_ALL for d in self.classify(table, "city != 'Zagreb'")
        )

    def test_unclustered_column_evaluates(self, table):
        # b cycles 0..6 in every block: no block is decidable.
        assert all(d is ZoneDecision.EVALUATE for d in self.classify(table, "b = 3"))

    def test_dense_integer_in_takes_all(self, table):
        # Block zones of b are [0, 6]; IN covering 0..6 proves take-all.
        decisions = self.classify(table, "b IN (0, 1, 2, 3, 4, 5, 6)")
        assert all(d is ZoneDecision.TAKE_ALL for d in decisions)

    def test_and_or_combinations(self, table):
        decisions = self.classify(table, "a < 32 AND b = 3")
        assert decisions[0] is ZoneDecision.EVALUATE  # take-all AND evaluate
        assert all(d is ZoneDecision.SKIP for d in decisions[2:])  # skip AND *
        decisions = self.classify(table, "a < 32 OR b = 3")
        assert decisions[0] is ZoneDecision.TAKE_ALL  # take-all OR *
        assert all(d is ZoneDecision.EVALUATE for d in decisions[2:])

    def test_nan_zones_fall_to_evaluate(self):
        t = Table.from_dict("t", {"x": [float("nan")] * 4})
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE x > 0")
        kernel = compile_predicate(plan.where, t, t.zone_map_index(2))
        index = t.zone_map_index(2)
        assert all(
            kernel.classify_block(b.zones) is ZoneDecision.EVALUATE
            for b in index.blocks
        )

    def test_soundness_over_all_blocks(self, table):
        for fragment in PREDICATES:
            kernel = kernel_for(table, fragment, 16)
            mask = evaluate_predicate(where(fragment), table)
            for block in table.zone_map_index(16).blocks:
                decision = kernel.classify_block(block.zones)
                window = mask[block.row_start:block.row_end]
                if decision is ZoneDecision.SKIP:
                    assert not window.any(), fragment
                elif decision is ZoneDecision.TAKE_ALL:
                    assert window.all(), fragment


class TestTriageAndCounters:
    def test_triage_range_counts_skipped_rows(self, table):
        kernel = kernel_for(table, "a < 32", 16)
        verdict = kernel.triage_range(0, ROWS)
        assert verdict.rows == ROWS
        assert verdict.rows_skipped == ROWS - 32
        assert not verdict.all_skipped
        assert kernel.triage_range(64, 96).all_skipped

    def test_counters_account_every_block(self, table):
        kernel = kernel_for(table, "a < 32", 16)
        counters = ScanCounters()
        kernel.select_range(table, 0, ROWS, counters=counters, row_width=8)
        assert counters.blocks_total == ROWS // 16 + (1 if ROWS % 16 else 0)
        assert counters.blocks_take_all == 2
        assert counters.blocks_skipped == counters.blocks_total - 2
        assert counters.rows_skipped == ROWS - 32
        assert counters.bytes_scanned == 32 * 8
        assert counters.bytes_total == ROWS * 8
        assert counters.skip_fraction == pytest.approx((ROWS - 32) / ROWS)

    def test_count_records_the_width_execute_reads(self, table):
        # The plan reads `a` and `x`; `b` and `city` are pruned away, so a
        # count and an execute over the same rows must book the same bytes.
        plan = LogicalPlan.of("SELECT SUM(x) FROM t WHERE a < 50")
        counted, executed = QueryExecutor(), QueryExecutor()
        counted.count_matching(plan, table)
        executed.execute(plan, table, ExecutionContext())
        count_stats, execute_stats = counted.scan_stats, executed.scan_stats
        assert count_stats["rows_total"] == execute_stats["rows_total"] == ROWS
        assert count_stats["bytes_total"] == execute_stats["bytes_total"]
        assert count_stats["bytes_total"] < ROWS * table.row_width_bytes

    def test_scan_classification_never_reads_rows(self, table):
        kernel = kernel_for(table, "a < 32", 16)
        counters = kernel.scan_classification(row_width=4)
        assert counters.rows_total == ROWS
        assert counters.rows_skipped == ROWS - 32

    def test_estimated_selectivity_in_unit_interval(self, table):
        for fragment in PREDICATES:
            estimate = kernel_for(table, fragment).estimated_selectivity
            assert 0.0 <= estimate <= 1.0

    def test_and_orders_most_selective_first(self, table):
        kernel = kernel_for(table, "a >= 0 AND b = 3", 16)
        children = kernel.root.children
        assert children[0].est <= children[1].est
        assert children[0].column == "b"  # EQ on b is the selective conjunct


class TestUnsortedDictionaries:
    """Regression: `Column.from_codes` dictionaries are in arbitrary label
    order (tpch shipmode, conviva os/browser), so string range predicates
    must not assume code order equals lexicographic order."""

    @pytest.fixture()
    def coded_table(self) -> Table:
        from repro.storage.column import Column

        labels = np.array(["TRUCK", "AIR", "SHIP", "RAIL", "MAIL"], dtype=object)
        rng = np.random.default_rng(5)
        codes = rng.integers(0, len(labels), 200)
        return Table("t", [Column.from_codes("mode", codes, labels)])

    @pytest.mark.parametrize(
        "fragment",
        [
            "mode < 'RAIL'",
            "mode <= 'RAIL'",
            "mode > 'MAIL'",
            "mode >= 'SHIP'",
            "mode BETWEEN 'AIR' AND 'RAIL'",
            "mode = 'SHIP'",
            "mode != 'AIR'",
            "mode IN ('AIR', 'TRUCK')",
        ],
    )
    @pytest.mark.parametrize("block_rows", [16, 1000])
    def test_selection_matches_mask(self, coded_table, fragment, block_rows):
        plan = LogicalPlan.of(f"SELECT COUNT(*) FROM t WHERE {fragment}")
        kernel = compile_predicate(
            plan.where, coded_table, coded_table.zone_map_index(block_rows)
        )
        expected = np.flatnonzero(evaluate_predicate(plan.where, coded_table))
        selection = kernel.select_range(coded_table, 0, coded_table.num_rows)
        assert selection.tolist() == expected.tolist()

    def test_classification_is_sound(self, coded_table):
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE mode < 'RAIL'")
        index = coded_table.zone_map_index(16)
        kernel = compile_predicate(plan.where, coded_table, index)
        mask = evaluate_predicate(plan.where, coded_table)
        for block in index.blocks:
            decision = kernel.classify_block(block.zones)
            window = mask[block.row_start:block.row_end]
            if decision is ZoneDecision.SKIP:
                assert not window.any()
            elif decision is ZoneDecision.TAKE_ALL:
                assert window.all()

    def test_sorted_coded_column_still_skips(self):
        from repro.storage.column import Column

        labels = np.array(["TRUCK", "AIR", "SHIP"], dtype=object)
        codes = np.repeat([0, 1, 2], 32)  # clustered by code
        t = Table("t", [Column.from_codes("mode", codes, labels)])
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE mode >= 'SHIP'")
        index = t.zone_map_index(32)
        kernel = compile_predicate(plan.where, t, index)
        decisions = [kernel.classify_block(b.zones) for b in index.blocks]
        # Code 0 = TRUCK (matches), 1 = AIR (no), 2 = SHIP (matches).
        assert decisions == [
            ZoneDecision.TAKE_ALL,
            ZoneDecision.SKIP,
            ZoneDecision.TAKE_ALL,
        ]


class TestNaNSoundness:
    def test_float_in_with_nan_poisoned_zones_does_not_skip(self):
        # Regression: NaN zone bounds made every candidate comparison False,
        # which the IN classifier misread as a provable SKIP.
        t = Table.from_dict("t", {"x": [1.0, float("nan"), 1.0, 2.0] * 4})
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE x IN (1.0, 7.0)")
        kernel = compile_predicate(plan.where, t, t.zone_map_index(4))
        for block in t.zone_map_index(4).blocks:
            assert kernel.classify_block(block.zones) is ZoneDecision.EVALUATE
        expected = np.flatnonzero(evaluate_predicate(plan.where, t))
        assert kernel.select_range(t, 0, t.num_rows).tolist() == expected.tolist()


class TestKernelCacheLifetime:
    def test_kernel_holds_no_reference_to_its_table(self):
        # The executor caches kernels in a weak-keyed map; a kernel that
        # referenced its table would pin the key alive forever.
        import gc
        import weakref

        executor = QueryExecutor(zone_block_rows=8)
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE a < 3")
        table = Table.from_dict("t", {"a": list(range(32))})
        ref = weakref.ref(table)
        executor.predicate_kernel(plan.where, table)
        del table
        gc.collect()
        assert ref() is None

    def test_per_table_kernel_cache_is_bounded(self, table):
        from repro.engine.executor import _KERNEL_CACHE_ENTRIES

        executor = QueryExecutor(zone_block_rows=16)
        for v in range(_KERNEL_CACHE_ENTRIES + 20):
            plan = LogicalPlan.of(f"SELECT COUNT(*) FROM t WHERE a < {v}")
            executor.predicate_kernel(plan.where, table)
        per_table = executor._kernels[table]
        assert len(per_table) == _KERNEL_CACHE_ENTRIES


class TestPartitionTriage:
    def test_zone_annotated_blocks_drive_whole_partition_skips(self, table):
        executor = QueryExecutor(zone_block_rows=16)
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE a < 30")
        blocks = table.block_set(num_partitions=4, zone_maps=True)
        partitions = table.partitions(block_set=blocks)
        triage = executor.partition_triage(plan, partitions)
        assert triage is not None
        # Rows [0,30) match: partition 0 is partially matching, the last
        # partitions are provably match-free and fully skipped.
        assert not triage[0].all_skipped
        assert triage[-1].all_skipped
        # Bare blocks fall back to the table's zone index, whose fixed-size
        # blocks straddle partition boundaries — so the annotated verdict is
        # at least as sharp: everything the index proves skippable, the
        # partition-aligned zones prove too.
        bare = executor.partition_triage(plan, table.partitions(num_partitions=4))
        for bare_verdict, annotated_verdict in zip(bare, triage):
            if bare_verdict.all_skipped:
                assert annotated_verdict.all_skipped


class TestKernelWithoutZoneIndex:
    def test_no_index_still_selects_correctly(self, table):
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE a < 32 AND b = 3")
        kernel = compile_predicate(plan.where, table, zone_index=None)
        expected = np.flatnonzero(evaluate_predicate(plan.where, table))
        assert kernel.select_range(table, 0, ROWS).tolist() == expected.tolist()

    def test_empty_table(self):
        t = Table.from_dict("t", {"a": []})
        plan = LogicalPlan.of("SELECT COUNT(*) FROM t WHERE a < 3")
        kernel = compile_predicate(plan.where, t, zone_index=None)
        assert kernel.select_range(t, 0, 0).size == 0
