"""Mixed-radix group keys equal the record-array grouping they replace.

``Table.group_codes`` combines one order-preserving digit per column into an
int64 key.  The reference below is the earlier implementation, which ran
``np.unique`` over a ``np.rec`` record array of the key columns; codes, keys
and the Python type of every key part must match it exactly.  NaN is left
out here: the reference made every NaN row its own group, and the NaN rule
is pinned in ``tests/test_storage_table.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.column import Column
from repro.storage.schema import ColumnType
from repro.storage.table import Table

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def record_array_group_codes(table: Table, names: list[str]) -> tuple[np.ndarray, list[tuple]]:
    """The record-array ``group_codes``, kept as the reference."""
    if table.num_rows == 0:
        return np.empty(0, dtype=np.int64), []
    arrays = [table.column(n).data for n in names]
    stacked = np.rec.fromarrays(arrays)
    uniques, codes = np.unique(stacked, return_inverse=True)
    keys: list[tuple] = []
    dictionaries = [table.column(n).dictionary for n in names]
    for record in uniques:
        key = []
        for field_index, dictionary in enumerate(dictionaries):
            raw = record[field_index]
            if dictionary is not None:
                key.append(dictionary[int(raw)])
            else:
                key.append(raw.item() if hasattr(raw, "item") else raw)
        keys.append(tuple(key))
    return codes.astype(np.int64), keys


def assert_same_grouping(table: Table, names: list[str]) -> None:
    codes, keys = table.group_codes(names)
    ref_codes, ref_keys = record_array_group_codes(table, names)
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, ref_codes)
    assert keys == ref_keys
    for key, ref_key in zip(keys, ref_keys):
        assert [type(part) for part in key] == [type(part) for part in ref_key]
    assert table.distinct_count(names) == len(ref_keys)
    counts = np.bincount(ref_codes, minlength=len(ref_keys))
    assert table.value_frequencies(names) == {
        key: int(count) for key, count in zip(ref_keys, counts)
    }


int_values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)
float_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -1.5, float("inf"), float("-inf")]),
    st.floats(allow_nan=False),
)
labels = st.text(alphabet="abcxyz", min_size=0, max_size=3)
COLUMN_KINDS = ("string", "string_codes", "int", "float", "bool")


@st.composite
def grouping_tables(draw) -> tuple[Table, list[str]]:
    num_rows = draw(st.integers(min_value=0, max_value=40))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5))
    columns: list[Column] = []
    for index, kind in enumerate(kinds):
        name = f"c{index}"
        if kind == "string_codes":
            # Unsorted labels, some never referenced by a row.
            dictionary = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
            codes = draw(st.lists(
                st.integers(min_value=0, max_value=len(dictionary) - 1),
                min_size=num_rows, max_size=num_rows,
            ))
            as_unicode = draw(st.booleans())
            columns.append(Column.from_codes(
                name,
                np.asarray(codes, dtype=np.int64),
                np.asarray(dictionary) if as_unicode else np.asarray(dictionary, dtype=object),
            ))
            continue
        values_strategy, ctype = {
            "string": (labels, ColumnType.STRING),
            "int": (int_values, ColumnType.INT),
            "float": (float_values, ColumnType.FLOAT),
            "bool": (st.booleans(), ColumnType.BOOL),
        }[kind]
        # A small palette per column so that rows share values.
        palette = draw(st.lists(values_strategy, min_size=1, max_size=5))
        rows = draw(st.lists(st.sampled_from(palette), min_size=num_rows, max_size=num_rows))
        columns.append(Column.from_values(name, rows, ctype))
    table = Table("prop", columns)
    names = draw(st.permutations([c.name for c in columns]))
    return table, list(names)


class TestGroupKeysMatchRecordArrays:
    @given(grouping_tables())
    @settings(max_examples=200, deadline=None)
    def test_codes_and_keys_match(self, case):
        table, names = case
        assert_same_grouping(table, names)

    def test_radix_product_past_int64_redensifies(self):
        # Five columns of 10k distinct values each: the radix product is
        # 10^20 > 2^63, so the partial key is re-densified before the last
        # column joins it.
        rng = np.random.default_rng(11)
        num_rows = 10_000
        columns = [
            Column(f"c{i}", ColumnType.INT, rng.permutation(num_rows).astype(np.int64) * 7 - 3)
            for i in range(5)
        ]
        table = Table("wide", columns)
        assert_same_grouping(table, [c.name for c in columns])

    def test_dictionary_radix_past_int64(self):
        # Dictionary columns use their full dictionary size as the radix,
        # used or not: five dictionaries of 7000 labels give 7000^5 > 2^63
        # over a handful of rows.
        labels = np.asarray([f"v{i}" for i in range(7000)], dtype=object)
        codes = np.array([3, 6999, 3, 0, 17, 3], dtype=np.int64)
        columns = [Column.from_codes(f"s{i}", np.roll(codes, i % 2), labels) for i in range(5)]
        table = Table("dict", columns)
        assert_same_grouping(table, [c.name for c in columns])
