"""The per-group fold is bit-identical to one ``update`` per aggregate.

:meth:`QueryExecutor.partial_aggregate` reduces each group's weights once
(:class:`~repro.engine.accumulators.WeightFold`) and each state reuses the
products it takes from its column
(:class:`~repro.engine.accumulators.ColumnFold`).  The reference below is
the fold as it was before that sharing: every
aggregate state recomputed its own weight moments, value moments and
products from the group's (values, weights) through ``np.sum``/``np.mean``/
``np.min``/``np.max``, and the group recorded its row count and weight range
from the raw weights.  Every group's wire bytes, row count and weight range
must match that reference exactly — for every aggregate kind, with and
without weights, over single-row groups, all-1.0 weights, the empty global
group and NaN values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.accumulators import (
    AvgState,
    CountState,
    QuantileState,
    StddevState,
    SumState,
    ValueMoments,
    VarianceState,
    WeightMoments,
    _CenteredMoment,
    state_to_bytes,
)
from repro.engine.executor import QueryExecutor
from repro.sql.parser import parse_query
from repro.storage.table import Table

#: Every aggregate kind, several on one column and two columns, so every
#: state's fold meets the same group weights.
SELECT = (
    "COUNT(*), SUM(x), AVG(x), VARIANCE(x), STDDEV(x), QUANTILE(x, 0.5), "
    "SUM(y), AVG(y), VARIANCE(y), COUNT(x)"
)
COLUMNS = (None, "x", "x", "x", "x", "x", "y", "y", "y", "x")
GROUPED = f"SELECT {SELECT} FROM t GROUP BY g"
#: A filter no row passes: the global aggregate reports one empty group.
EMPTY_GLOBAL = f"SELECT {SELECT} FROM t WHERE y > 1000000000"
GLOBAL = f"SELECT {SELECT} FROM t"


# -- the reference: the per-aggregate update loop --------------------------------------


def _weight_moments(weights: np.ndarray) -> WeightMoments:
    n = int(weights.shape[0])
    if n == 0:
        return WeightMoments()
    return WeightMoments(
        n=n,
        sum_w=float(np.sum(weights)),
        sum_w2=float(np.sum(weights * weights)),
        min_w=float(np.min(weights)),
        max_w=float(np.max(weights)),
    )


def _value_moments(values: np.ndarray) -> ValueMoments:
    n = int(values.shape[0])
    if n == 0:
        return ValueMoments()
    mean = float(np.mean(values))
    m2 = float(np.sum((values - mean) ** 2))
    return ValueMoments(n=n, mean=mean, m2=m2)


def _centered(coeff: np.ndarray, values: np.ndarray) -> _CenteredMoment:
    if values.shape[0] == 0:
        return _CenteredMoment()
    center = float(np.mean(values))
    deviations = values - center
    return _CenteredMoment(
        total=float(np.sum(coeff)),
        linear=float(np.sum(coeff * deviations)),
        square=float(np.sum(coeff * deviations**2)),
        center=center,
    )


def reference_update(state, values: np.ndarray | None, weights: np.ndarray) -> None:
    """One state's ``update`` as each aggregate computed it on its own."""
    if isinstance(state, CountState):
        state.weights.merge(_weight_moments(weights))
    elif isinstance(state, SumState):
        state.weights.merge(_weight_moments(weights))
        state.values.merge(_value_moments(values))
        state.sum_wx += float(np.sum(values * weights))
        x2w = values * values * weights
        state.sum_x2_w_w1 += float(np.sum(x2w * (weights - 1.0)))
        state.sum_x2_w_w1_pos += float(np.sum(x2w * np.maximum(weights - 1.0, 0.0)))
        state.sum_x2_w2 += float(np.sum(x2w * weights))
        state.sum_x2_w += float(np.sum(x2w))
    elif isinstance(state, AvgState):
        state.weights.merge(_weight_moments(weights))
        state.values.merge(_value_moments(values))
        state.sum_wx += float(np.sum(values * weights))
        state.w2_moment.merge(_centered(weights * weights, values))
    elif isinstance(state, VarianceState):
        state.weights.merge(_weight_moments(weights))
        state.sum_wx += float(np.sum(values * weights))
        state.w_moment.merge(_centered(weights, values))
    elif isinstance(state, StddevState):
        reference_update(state.inner, values, weights)
    elif isinstance(state, QuantileState):
        if values.shape[0] == 0:
            return
        state._values.append(np.asarray(values, dtype=np.float64))
        state._weights.append(np.asarray(weights, dtype=np.float64))
        state._points += int(values.shape[0])
        state._rows += int(values.shape[0])
        if state._points > state.sketch_size:
            state._compress()
    else:  # pragma: no cover - a new kind needs a reference here
        raise AssertionError(f"no reference update for {type(state).__name__}")


def reference_group(executor, plan, values, weights):
    """(state bytes, rows, min weight, max weight) of one group, the old way."""
    states = executor._make_states(plan)
    for column, state in zip(COLUMNS, states):
        reference_update(state, None if column is None else values[column], weights)
    rows, min_weight, max_weight = 0, math.inf, 0.0
    if weights.shape[0]:
        rows = int(weights.shape[0])
        min_weight = min(min_weight, float(np.min(weights)))
        max_weight = max(max_weight, float(np.max(weights)))
    return [state_to_bytes(s) for s in states], rows, min_weight, max_weight


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def assert_fold_matches_reference(sql, g, x, y, weights) -> None:
    table = Table.from_dict("t", {"g": g, "x": x, "y": y})
    executor = QueryExecutor()
    plan = parse_query(sql)
    partial = executor.partial_aggregate(plan, table, weights)
    w_all = np.ones(len(g)) if weights is None else np.asarray(weights, dtype=np.float64)
    arrays = {"x": table.column("x").numeric(), "y": table.column("y").numeric()}
    keep = arrays["y"] > 1e9 if "WHERE" in sql else np.ones(len(g), dtype=bool)
    labels = np.asarray(g, dtype=object)
    if "GROUP BY" in sql:
        expected_keys = sorted({label for label, k in zip(g, keep) if k})
        assert sorted(key[0] for key in partial.groups) == expected_keys
    else:
        assert list(partial.groups) == [()]
    for key, group in partial.groups.items():
        mask = keep & (labels == key[0]) if key else keep
        rows = np.flatnonzero(mask)
        want_bytes, want_rows, want_min, want_max = reference_group(
            executor, plan, {name: a[rows] for name, a in arrays.items()}, w_all[rows]
        )
        got_bytes = [state_to_bytes(state) for state in group.states]
        assert got_bytes == want_bytes, key
        assert group.rows == want_rows, key
        assert _bits(group.min_weight) == _bits(want_min), key
        assert _bits(group.max_weight) == _bits(want_max), key


# -- strategies ------------------------------------------------------------------------

values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.just(math.nan),
)
weights_elements = st.floats(min_value=1.0, max_value=1e3, allow_nan=False)


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    groups = draw(st.integers(min_value=1, max_value=6))
    g = [f"g{draw(st.integers(0, groups - 1))}" for _ in range(n)]
    x = [draw(values) for _ in range(n)]
    y = [draw(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)) for _ in range(n)]
    kind = draw(st.sampled_from(["none", "ones", "weighted"]))
    if kind == "none":
        weights = None
    elif kind == "ones":
        weights = np.ones(n)
    else:
        weights = np.asarray([draw(weights_elements) for _ in range(n)])
    return g, x, y, weights


class TestFoldIdentity:
    @given(data=tables(), sql=st.sampled_from([GROUPED, GLOBAL, EMPTY_GLOBAL]))
    @example(  # single-row groups, each a different weight
        data=(["a", "b", "c"], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0], np.array([2.0, 3.0, 4.0])),
        sql=GROUPED,
    )
    @example(  # NaN values inside a weighted group
        data=(["a", "a", "b"], [math.nan, 1.5, 2.0], [1.0, 2.0, 3.0], np.array([1.5, 2.5, 1.0])),
        sql=GROUPED,
    )
    @settings(max_examples=80, deadline=None)
    def test_partial_aggregate_matches_per_aggregate_updates(self, data, sql):
        assert_fold_matches_reference(sql, *data)

    def test_single_row_groups(self):
        g = [f"g{i}" for i in range(6)]
        x = [0.5 * i for i in range(6)]
        assert_fold_matches_reference(GROUPED, g, x, x, np.linspace(1.0, 6.0, 6))

    def test_all_unit_weights(self):
        g = ["a", "b", "a", "a", "b"]
        x = [1.0, -2.0, 3.5, 1e6, 7.0]
        assert_fold_matches_reference(GROUPED, g, x, x, np.ones(5))
        assert_fold_matches_reference(GLOBAL, g, x, x, np.ones(5))

    @pytest.mark.parametrize("weights", [None, np.full(4, 3.0)])
    def test_empty_global_group(self, weights):
        g = ["a", "b", "a", "b"]
        x = [1.0, 2.0, 3.0, 4.0]
        assert_fold_matches_reference(EMPTY_GLOBAL, g, x, x, weights)

    def test_nan_values(self):
        g = ["a", "a", "b", "b"]
        x = [math.nan, 1.0, math.nan, math.nan]
        y = [1.0, 2.0, 3.0, 4.0]
        assert_fold_matches_reference(GROUPED, g, x, y, np.array(y))
