"""Storage-layer tests of the streaming-ingest path.

Covers :meth:`Column.append_values` (stable dictionary-code remapping),
:meth:`Table.append_batch` (immutability of the old generation, incremental
zone-map extension), the incremental statistics merge, the catalog's
generation counter, the zone-map carry-forward of column-preserving
table copies (``with_column`` / ``project``), and the per-table cache of the
compression summary.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.storage.table as table_module
from repro.common.errors import SchemaError
from repro.ingest.batch import columns_from_rows
from repro.storage.catalog import Catalog
import repro.storage.encodings as encodings_module
from repro.storage.column import Column
from repro.storage.encodings import encode_table
from repro.storage.statistics import (
    compute_statistics,
    extend_statistics,
    merge_column_statistics,
)
from repro.storage.table import Table
from repro.storage.zonemaps import build_zone_map_index, extend_zone_map_index


def make_table(rows: int = 100, name: str = "t") -> Table:
    return Table.from_dict(
        name,
        {
            "key": [f"k{i % 7}" for i in range(rows)],
            "hits": list(range(rows)),
            "score": [0.5 * i for i in range(rows)],
        },
    )


BATCH = {
    "key": ["k1", "k_new", "k2", "k_new"],
    "hits": [1000, 1001, 1002, 1003],
    "score": [1.0, 2.0, float("nan"), 4.0],
}


class TestColumnAppend:
    def test_string_codes_stay_stable(self):
        column = Column.from_values("key", ["b", "a", "b", "c"])
        appended = column.append_values(["c", "z", "a", "z"])
        # Old codes untouched, novel labels appended after the old dictionary.
        assert list(appended.data[:4]) == list(column.data)
        assert list(appended.dictionary) == ["a", "b", "c", "z"]
        assert list(appended.values()) == ["b", "a", "b", "c", "c", "z", "a", "z"]

    def test_numeric_append_and_type_error(self):
        column = Column.from_values("hits", [1, 2, 3])
        appended = column.append_values([4, 5])
        assert list(appended.data) == [1, 2, 3, 4, 5]
        assert appended.data.dtype == np.int64

    def test_empty_append_returns_self(self):
        column = Column.from_values("hits", [1, 2, 3])
        assert column.append_values([]) is column


class TestTableAppendBatch:
    def test_appends_rows_and_leaves_old_generation_untouched(self):
        table = make_table(50)
        grown = table.append_batch(BATCH)
        assert table.num_rows == 50
        assert grown.num_rows == 54
        assert grown.column("hits").value_at(50) == 1000
        assert grown.column("key").value_at(51) == "k_new"
        # The old generation's arrays are shared, not copied or mutated.
        assert table.column("key").dictionary.shape[0] == 7
        assert grown.column("key").dictionary.shape[0] == 8

    def test_schema_mismatch_rejected(self):
        table = make_table(10)
        with pytest.raises(SchemaError):
            table.append_batch({"key": ["a"], "hits": [1]})  # missing score
        with pytest.raises(SchemaError):
            table.append_batch({**BATCH, "bogus": [1, 2, 3, 4]})
        with pytest.raises(SchemaError):
            table.append_batch({"key": ["a"], "hits": [1, 2], "score": [0.1]})

    def test_empty_batch_is_identity(self):
        table = make_table(10)
        assert table.append_batch({"key": [], "hits": [], "score": []}) is table

    @pytest.mark.parametrize("block_rows", [8, 16, 64])
    def test_zone_index_extension_matches_full_rebuild(self, block_rows):
        table = make_table(100)
        table.zone_map_index(block_rows)
        grown = table.append_batch(BATCH)
        assert grown.has_zone_map_index(block_rows)
        extended = grown.zone_map_index(block_rows)
        rebuilt = build_zone_map_index(grown, block_rows)
        assert extended.num_rows == rebuilt.num_rows
        assert len(extended.blocks) == len(rebuilt.blocks)
        for got, want in zip(extended.blocks, rebuilt.blocks):
            assert (got.row_start, got.row_end) == (want.row_start, want.row_end)
            for name in ("key", "hits", "score"):
                got_zone, want_zone = got.zones[name], want.zones[name]
                assert _zone_bounds_equal(got_zone.minimum, want_zone.minimum)
                assert _zone_bounds_equal(got_zone.maximum, want_zone.maximum)
                assert got_zone.null_count == want_zone.null_count
        for name in ("key", "hits", "score"):
            got_zone = extended.column_zones[name]
            want_zone = rebuilt.column_zones[name]
            assert _zone_bounds_equal(got_zone.minimum, want_zone.minimum)
            assert _zone_bounds_equal(got_zone.maximum, want_zone.maximum)
            assert got_zone.null_count == want_zone.null_count

    def test_extension_is_append_only(self):
        table = make_table(100)
        index = table.zone_map_index(16)
        with pytest.raises(ValueError):
            extend_zone_map_index(index, make_table(50), 16)
        with pytest.raises(ValueError):
            extend_zone_map_index(index, make_table(200), 32)


def _zone_bounds_equal(a, b) -> bool:
    if a != a and b != b:  # both NaN
        return True
    return a == b


class TestZoneCarryForward:
    """Regression: column-preserving copies must not drop the cached index."""

    def test_with_column_carries_index_without_rebuild(self, monkeypatch):
        table = make_table(100)
        table.zone_map_index(16)

        def forbid_build(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("with_column must not rebuild the zone-map index")

        monkeypatch.setattr(table_module, "build_zone_map_index", forbid_build)
        updated = table.with_column(Column.from_values("flag", [i % 2 for i in range(100)]))
        assert updated.has_zone_map_index(16)
        index = updated.zone_map_index(16)  # cached: would raise if rebuilt
        assert index.column_zones["flag"].maximum == 1
        # Untouched columns keep their exact zones.
        original = table.zone_map_index(16)
        for got, want in zip(index.blocks, original.blocks):
            assert got.zones["hits"] == want.zones["hits"]

    def test_with_column_replacement_recomputes_only_that_column(self):
        table = make_table(100)
        before = table.zone_map_index(16)
        replaced = table.with_column(Column.from_values("hits", [5] * 100))
        index = replaced.zone_map_index(16)
        assert index.column_zones["hits"].minimum == 5
        assert index.column_zones["hits"].maximum == 5
        for got, want in zip(index.blocks, before.blocks):
            assert got.zones["score"] == want.zones["score"]

    def test_project_carries_restricted_index(self, monkeypatch):
        table = make_table(100)
        table.zone_map_index(16)
        monkeypatch.setattr(
            table_module,
            "build_zone_map_index",
            lambda *a, **k: pytest.fail("project must not rebuild the zone-map index"),
        )
        projected = table.project(["key", "hits"])
        assert projected.has_zone_map_index(16)
        index = projected.zone_map_index(16)
        assert set(index.column_zones) == {"key", "hits"}

    def test_row_reordering_copies_still_drop_the_index(self):
        table = make_table(100)
        table.zone_map_index(16)
        assert not table.take(np.arange(99, -1, -1)).has_zone_map_index(16)
        assert not table.sort_by(["key"]).has_zone_map_index(16)


class TestEncodingStatsCache:
    """``Table.encoding_stats`` is computed once per (immutable) table."""

    def _counting(self, monkeypatch) -> list[str]:
        calls: list[str] = []
        original = encodings_module.table_encoding_stats

        def counted(table):
            calls.append(table.name)
            return original(table)

        monkeypatch.setattr(encodings_module, "table_encoding_stats", counted)
        return calls

    def test_second_call_is_served_from_the_cache(self, monkeypatch):
        table = encode_table(make_table(100), 16)
        calls = self._counting(monkeypatch)
        first = table.encoding_stats()
        assert first is not None and first["raw_bytes"] > 0
        assert table.encoding_stats() is first
        assert calls == ["t"]

    def test_unencoded_none_is_cached_too(self, monkeypatch):
        table = make_table(100)
        calls = self._counting(monkeypatch)
        assert table.encoding_stats() is None
        assert table.encoding_stats() is None
        assert calls == ["t"]

    def test_derived_tables_compute_their_own_stats(self, monkeypatch):
        table = encode_table(make_table(100), 16)
        calls = self._counting(monkeypatch)
        before = table.encoding_stats()
        appended = table.append_batch(BATCH, name="appended")
        projected = table.project(["key", "hits"], name="projected")
        after_append = appended.encoding_stats()
        after_project = projected.encoding_stats()
        assert calls == ["t", "appended", "projected"]
        assert after_append is not None and after_project is not None
        assert after_append["raw_bytes"] > before["raw_bytes"]
        assert after_project["raw_bytes"] < before["raw_bytes"]
        assert after_append == encodings_module.table_encoding_stats(appended)
        assert after_project == encodings_module.table_encoding_stats(projected)


class TestStatisticsMerge:
    def test_incremental_merge_matches_full_rescan_exactly_where_it_can(self):
        table = make_table(80)
        grown = table.append_batch(BATCH)
        merged = extend_statistics(compute_statistics(table), grown, 80)
        full = compute_statistics(grown)
        assert merged.num_rows == full.num_rows == 84
        for name in ("hits", "score"):
            got, want = merged.columns[name], full.columns[name]
            assert _zone_bounds_equal(got.min_value, want.min_value)
            assert _zone_bounds_equal(got.max_value, want.max_value)
            assert got.null_count == want.null_count
            if want.mean == want.mean and got.mean is not None:
                assert got.mean == pytest.approx(want.mean, nan_ok=True)
        # String distinct counts recover exactness from the dictionary.
        assert merged.columns["key"].distinct_count == full.columns["key"].distinct_count == 8
        assert not merged.columns["key"].estimated or merged.columns["key"].distinct_count == 8
        # Numeric distinct counts are flagged as estimates.
        assert merged.columns["hits"].estimated

    def test_mean_std_merge_uses_chans_update(self):
        table_a = Table.from_dict("a", {"x": [1.0, 2.0, 3.0, 10.0]})
        table_b = Table.from_dict("b", {"x": [4.0, 5.0, 6.0]})
        merged = merge_column_statistics(
            compute_statistics(table_a).columns["x"],
            compute_statistics(table_b).columns["x"],
        )
        everything = np.array([1.0, 2.0, 3.0, 10.0, 4.0, 5.0, 6.0])
        assert merged.mean == pytest.approx(float(np.mean(everything)))
        assert merged.std == pytest.approx(float(np.std(everything, ddof=1)))

    def test_merge_requires_contiguous_coverage(self):
        table = make_table(80)
        grown = table.append_batch(BATCH)
        with pytest.raises(ValueError):
            extend_statistics(compute_statistics(table), grown, 79)


class TestCatalogGenerations:
    def test_replace_table_bumps_generation_and_keeps_families(self):
        catalog = Catalog()
        table = make_table(50)
        catalog.register_table(table)
        assert catalog.generation("t") == 0

        class FakeFamily:
            table_name = "t"
            resolutions = ()
            smallest = largest = None
            storage_bytes = 0

        catalog.register_uniform_family("t", FakeFamily())
        grown = table.append_batch(BATCH)
        generation = catalog.replace_table(grown)
        assert generation == 1
        assert catalog.generation("t") == 1
        assert catalog.table("t").num_rows == 54
        assert catalog.uniform_family("t") is not None  # families survive
        assert catalog.statistics("t").num_rows == 54

    def test_register_overwrite_still_drops_families_and_bumps(self):
        catalog = Catalog()
        table = make_table(50)
        catalog.register_table(table)
        catalog.register_table(make_table(60), overwrite=True)
        assert catalog.generation("t") == 1
        assert catalog.uniform_family("t") is None


class TestBatchNormalisation:
    def test_rows_and_columnar_forms_agree(self):
        table = make_table(10)
        rows = [
            {"key": "k1", "hits": 7, "score": 0.5},
            {"key": "k9", "hits": 8, "score": 1.5},
        ]
        columnar = {"key": ["k1", "k9"], "hits": [7, 8], "score": [0.5, 1.5]}
        a = columns_from_rows(rows, table.schema)
        b = columns_from_rows(columnar, table.schema)
        for name in table.schema.names:
            assert list(a[name]) == list(b[name])
        assert a["hits"].dtype == np.int64

    def test_missing_and_extra_columns_rejected(self):
        table = make_table(10)
        with pytest.raises(SchemaError):
            columns_from_rows([{"key": "a", "hits": 1}], table.schema)
        with pytest.raises(SchemaError):
            columns_from_rows([{"key": "a", "hits": 1, "score": 0.1, "x": 2}], table.schema)
        with pytest.raises(SchemaError):
            columns_from_rows({"key": ["a"], "hits": [1]}, table.schema)
