"""Tests for repro.storage.table."""

import math

import numpy as np
import pytest

from repro.common.errors import SchemaError
from repro.engine.executor import execute_exact
from repro.sql.parser import parse_query
from repro.storage.column import Column
from repro.storage.table import Table


@pytest.fixture()
def table() -> Table:
    return Table.from_dict(
        "t",
        {
            "city": ["NY", "NY", "SF", "LA", "SF", "NY"],
            "os": ["Win", "Mac", "Win", "Win", "Mac", "Win"],
            "time": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        },
    )


class TestConstruction:
    def test_from_dict_row_count(self, table):
        assert table.num_rows == 6
        assert len(table) == 6

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table("bad", [Column.from_values("a", [1, 2]), Column.from_values("b", [1])])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Table("bad", [Column.from_values("a", [1]), Column.from_values("a", [2])])

    def test_requires_at_least_one_column(self):
        with pytest.raises(SchemaError):
            Table("bad", [])

    def test_size_estimates(self, table):
        assert table.row_width_bytes == 24 + 24 + 8
        assert table.size_bytes == table.row_width_bytes * 6


class TestRowOperations:
    def test_take_preserves_order(self, table):
        subset = table.take(np.array([3, 0]))
        assert subset.column("city").values().tolist() == ["LA", "NY"]

    def test_filter_mask(self, table):
        mask = np.array([True, False, False, False, False, True])
        subset = table.filter(mask)
        assert subset.num_rows == 2
        assert subset.column("time").values().tolist() == [10.0, 60.0]

    def test_filter_wrong_length_rejected(self, table):
        with pytest.raises(SchemaError):
            table.filter(np.array([True, False]))

    def test_head(self, table):
        assert table.head(2).num_rows == 2
        assert table.head(100).num_rows == 6

    def test_project(self, table):
        projected = table.project(["time"])
        assert projected.column_names == ["time"]

    def test_project_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.project(["nope"])

    def test_with_column_appends_and_replaces(self, table):
        extra = Column.from_values("extra", [1, 2, 3, 4, 5, 6])
        widened = table.with_column(extra)
        assert "extra" in widened.schema
        replaced = widened.with_column(Column.from_values("extra", [0, 0, 0, 0, 0, 0]))
        assert replaced.column("extra").values().tolist() == [0] * 6

    def test_sort_by_groups_rows_contiguously(self, table):
        ordered = table.sort_by(["city", "os"])
        cities = ordered.column("city").values().tolist()
        assert cities == sorted(cities)


class TestGrouping:
    def test_group_codes_cover_all_rows(self, table):
        codes, keys = table.group_codes(["city"])
        assert codes.shape[0] == table.num_rows
        assert set(codes.tolist()) == set(range(len(keys)))

    def test_group_keys_are_decoded_tuples(self, table):
        _, keys = table.group_codes(["city", "os"])
        assert ("NY", "Win") in keys

    def test_value_frequencies(self, table):
        freq = table.value_frequencies(["city"])
        assert freq[("NY",)] == 3
        assert freq[("SF",)] == 2
        assert freq[("LA",)] == 1

    def test_distinct_count(self, table):
        assert table.distinct_count(["city"]) == 3
        assert table.distinct_count(["city", "os"]) == 5
        assert table.distinct_count([]) == 0

    def test_group_codes_requires_columns(self, table):
        with pytest.raises(SchemaError):
            table.group_codes([])

    def test_nan_rows_form_one_group(self):
        nan = float("nan")
        table = Table.from_dict("t", {"x": [nan, 1.0, nan, nan], "y": [0, 0, 0, 1]})
        codes, keys = table.group_codes(["x"])
        assert codes.tolist() == [1, 0, 1, 1]
        assert len(keys) == 2 and keys[0] == (1.0,)
        # One shared NaN object, so keys from separate calls are equal dict keys.
        assert keys[1][0] is math.nan
        assert table.group_codes(["x", "y"])[1][1:] == [(math.nan, 0), (math.nan, 1)]
        assert table.distinct_count(["x"]) == 2
        assert table.distinct_count(["x", "y"]) == 3
        assert table.value_frequencies(["x"]) == {(1.0,): 1, (math.nan,): 3}
        assert table.value_frequencies(["x", "y"]) == {
            (1.0, 0): 1, (math.nan, 0): 2, (math.nan, 1): 1,
        }
        result = execute_exact(parse_query("SELECT COUNT(*) FROM t GROUP BY x"), table)
        counts = [(g.key, g["count_star"].value) for g in result]
        assert counts == [((1.0,), 1), ((math.nan,), 3)]


class TestConversion:
    def test_to_dict_round_trip(self, table):
        data = table.to_dict()
        rebuilt = Table.from_dict("t2", data)
        assert rebuilt.num_rows == table.num_rows
        assert rebuilt.column("city").values().tolist() == table.column("city").values().tolist()

    def test_iter_rows(self, table):
        rows = list(table.iter_rows())
        assert len(rows) == 6
        assert rows[0]["city"] == "NY"
