"""Mergeable partial-aggregation states.

The paper's engine never aggregates a table in one pass: samples are split
into many small blocks (§2.2.1, Fig. 4), each map task computes a *partial*
aggregate over its block, and the partials are merged into the final answer —
the plan shape the cluster cost model prices (one partial-aggregate record
per map task per group).  This module provides the algebra those partials
live in: for every supported aggregate a state that can

* ``update`` itself from a vector of (values, weights) — one partition's
  matching rows,
* ``merge`` with the state of another partition (associative and
  commutative up to floating-point rounding), and
* ``finalize`` into an :class:`~repro.estimation.estimators.Estimate`: the
  point value and its variance.

These states are the one implementation of the COUNT/SUM/AVG/VARIANCE/STDDEV
estimators and their error bars.  The Table-2 expressions come from
:mod:`repro.estimation.closed_form` when the weights are uniform; mixed
weights (exact strata beside capped ones) take a Horvitz–Thompson or
linearised variance, which reduces to the same forms in the uniform limit.
The quantile sketch finalizes through
:func:`~repro.estimation.estimators.estimate_quantile`.

Means and variances use the Welford/Chan parallel-merge form (count, mean,
M2) rather than raw power sums, so merging is numerically stable even when
the values' mean dwarfs their spread.  Weighted second moments are kept
*centered* for the same reason (see :class:`_CenteredMoment`).

One weight pass per group
-------------------------
The executor folds a group's rows into every state of the group through
:meth:`AggregateState.fold`.  A :class:`WeightFold` reduces the group's
weights to their :class:`WeightMoments` once, and a :class:`ColumnFold`
computes each product one state needs from a column (``Σ w·x``, the value
moments, the deviations about the mean) at most once.  Every shared
quantity is the exact float the per-state computation produced, so a fold
is bit-identical to calling :meth:`AggregateState.update` once per state.
Reductions use the array methods (``a.sum()``), which run the same
``ufunc.reduce`` as ``np.sum(a)`` without its dispatch wrapper.

Anytime answers
---------------
``finalize`` accepts a ``weight_scale`` factor ``c >= 1``: when only a
fraction of the partitions was merged (a query stopped at its deadline),
every row's inverse-inclusion probability grows by the inverse of the
covered fraction.  Scaling the weights by ``c`` keeps COUNT/SUM unbiased,
leaves the ratio estimators (AVG, VARIANCE, quantiles) untouched, and —
because ``rows_read`` shrinks with the coverage — widens every error bar
exactly as the closed forms dictate.
"""

from __future__ import annotations

import math
import pickle
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.estimation import closed_form
from repro.estimation.estimators import (
    Estimate,
    estimate_quantile,
    weight_is_unit,
    weights_nearly_uniform,
)

#: Retained-point budget of the quantile sketch.  Below this the sketch is
#: exact (it simply keeps every point); above it, merged states are
#: compressed to weighted centroids on the value axis.
QUANTILE_SKETCH_SIZE = 8192

#: Struct layouts of the wire format (``to_bytes``/``from_bytes``).  Every
#: float travels as its exact little-endian IEEE-754 bit pattern — never a
#: repr/format round-trip — so a state shipped across a process boundary
#: merges and finalizes bitwise-identically to the in-process original.
_WIRE_VALUE_MOMENTS = struct.Struct("<qdd")
_WIRE_CENTERED = struct.Struct("<dddd")
_WIRE_WEIGHT_MOMENTS = struct.Struct("<qdddd")
_WIRE_SUM_TAIL = struct.Struct("<ddddd")
_WIRE_DOUBLE = struct.Struct("<d")
_WIRE_QUANTILE_HEAD = struct.Struct("<dqqqB")
_WIRE_GROUP_HEAD = struct.Struct("<qdd")
_WIRE_PARTIAL_HEAD = struct.Struct("<qdqB")
_WIRE_LEN = struct.Struct("<q")


# -- numerically stable building blocks -------------------------------------------


@dataclass
class ValueMoments:
    """Welford/Chan moments of the (unweighted) matching values.

    ``m2`` is the centered sum of squares ``Σ (x - mean)²``; the parallel
    merge is Chan et al.'s update, which is what makes per-partition states
    combinable without cancellation.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_array(cls, values: np.ndarray) -> "ValueMoments":
        n = int(values.shape[0])
        if n == 0:
            return cls()
        mean = float(values.mean())
        m2 = float(((values - mean) ** 2).sum())
        return cls(n=n, mean=mean, m2=m2)

    @classmethod
    def from_runs(cls, values: np.ndarray, lengths: np.ndarray) -> "ValueMoments":
        """Moments of ``values`` repeated ``lengths`` times each, closed form.

        Equal to ``from_array(np.repeat(values, lengths))`` up to the usual
        reassociation rounding, without materialising the expansion — the
        RLE fold path of the compressed-execution engine.
        """
        n = int(lengths.sum())
        if n == 0:
            return cls()
        mean = float((lengths * values).sum()) / n
        m2 = float((lengths * (values - mean) ** 2).sum())
        return cls(n=n, mean=mean, m2=m2)

    def merge(self, other: "ValueMoments") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return
        total = self.n + other.n
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.n * other.n / total
        self.mean = self.mean + delta * other.n / total
        self.n = total

    @property
    def sample_variance(self) -> float:
        """``S²`` with ``ddof=1`` (``inf`` when fewer than two rows)."""
        if self.n < 2:
            return math.inf
        return self.m2 / (self.n - 1)

    def to_bytes(self) -> bytes:
        return _WIRE_VALUE_MOMENTS.pack(self.n, self.mean, self.m2)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ValueMoments":
        n, mean, m2 = _WIRE_VALUE_MOMENTS.unpack(data)
        return cls(n=n, mean=mean, m2=m2)


@dataclass
class _CenteredMoment:
    """``Σ a·(x - c)`` and ``Σ a·(x - c)²`` around a movable center ``c``.

    ``a`` is an arbitrary per-row coefficient (``w`` or ``w²``).  Keeping the
    quadratic centered lets :meth:`shifted_square` evaluate
    ``Σ a·(x - μ)²`` at the *final* weighted mean μ without the catastrophic
    cancellation a raw ``Σ a·x²`` expansion would suffer.
    """

    total: float = 0.0  # Σ a
    linear: float = 0.0  # Σ a (x - c)
    square: float = 0.0  # Σ a (x - c)²
    center: float = 0.0

    @classmethod
    def from_runs(
        cls, coeff: np.ndarray, values: np.ndarray, lengths: np.ndarray
    ) -> "_CenteredMoment":
        """:meth:`ColumnFold.centered` over run-length-encoded rows, closed form.

        Each (coeff, value) pair stands for ``lengths`` identical rows; the
        center is movable, so the run-weighted mean is as good an anchor as
        the expanded one.
        """
        n = int(lengths.sum())
        if n == 0:
            return cls()
        center = float((lengths * values).sum()) / n
        deviations = values - center
        weighted = lengths * coeff
        return cls(
            total=float(weighted.sum()),
            linear=float((weighted * deviations).sum()),
            square=float((weighted * deviations**2).sum()),
            center=center,
        )

    def _rebased(self, new_center: float) -> tuple[float, float]:
        """(linear, square) re-expressed around ``new_center``."""
        shift = self.center - new_center
        linear = self.linear + shift * self.total
        square = self.square + 2.0 * shift * self.linear + shift * shift * self.total
        return linear, square

    def merge(self, other: "_CenteredMoment") -> None:
        if other.total == 0.0 and other.square == 0.0 and other.linear == 0.0:
            return
        if self.total == 0.0 and self.square == 0.0 and self.linear == 0.0:
            self.total, self.linear, self.square, self.center = (
                other.total,
                other.linear,
                other.square,
                other.center,
            )
            return
        combined = self.total + other.total
        if combined != 0.0:
            new_center = (
                self.center * self.total + other.center * other.total
            ) / combined
        else:
            new_center = 0.5 * (self.center + other.center)
        l_a, s_a = self._rebased(new_center)
        l_b, s_b = other._rebased(new_center)
        self.total = combined
        self.linear = l_a + l_b
        self.square = s_a + s_b
        self.center = new_center

    def shifted_square(self, at: float) -> float:
        """``Σ a·(x - at)²``."""
        _, square = self._rebased(at)
        return max(0.0, square)

    def to_bytes(self) -> bytes:
        return _WIRE_CENTERED.pack(self.total, self.linear, self.square, self.center)

    @classmethod
    def from_bytes(cls, data: bytes) -> "_CenteredMoment":
        total, linear, square, center = _WIRE_CENTERED.unpack(data)
        return cls(total=total, linear=linear, square=square, center=center)


@dataclass
class WeightMoments:
    """Weight-vector statistics every state needs.

    Tracks the sums required by both variance regimes of the estimators: the
    Horvitz–Thompson sums ``Σw(w-1)`` / ``Σw²`` and the min/max needed for
    the uniform-weights test and the all-weights-one exactness test.
    """

    n: int = 0
    sum_w: float = 0.0
    sum_w2: float = 0.0
    min_w: float = math.inf
    max_w: float = 0.0

    @classmethod
    def from_array(cls, weights: np.ndarray) -> "WeightMoments":
        n = int(weights.shape[0])
        if n == 0:
            return cls()
        return cls(
            n=n,
            sum_w=float(weights.sum()),
            sum_w2=float((weights * weights).sum()),
            min_w=float(weights.min()),
            max_w=float(weights.max()),
        )

    @classmethod
    def from_runs(cls, weights: np.ndarray, lengths: np.ndarray) -> "WeightMoments":
        """Weight moments of per-run weights repeated ``lengths`` times each."""
        n = int(lengths.sum())
        if n == 0:
            return cls()
        return cls(
            n=n,
            sum_w=float((lengths * weights).sum()),
            sum_w2=float((lengths * weights * weights).sum()),
            min_w=float(weights.min()),
            max_w=float(weights.max()),
        )

    def merge(self, other: "WeightMoments") -> None:
        self.n += other.n
        self.sum_w += other.sum_w
        self.sum_w2 += other.sum_w2
        self.min_w = min(self.min_w, other.min_w)
        self.max_w = max(self.max_w, other.max_w)

    def uniform(self, scale: float = 1.0) -> bool:
        if self.n == 0:
            return True
        return weights_nearly_uniform(self.min_w * scale, self.max_w * scale)

    def sum_w_w_minus_1(self, scale: float = 1.0) -> float:
        """``Σ (cw)(cw - 1)`` for the scaled weights."""
        return scale * scale * self.sum_w2 - scale * self.sum_w

    def to_bytes(self) -> bytes:
        return _WIRE_WEIGHT_MOMENTS.pack(
            self.n, self.sum_w, self.sum_w2, self.min_w, self.max_w
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "WeightMoments":
        n, sum_w, sum_w2, min_w, max_w = _WIRE_WEIGHT_MOMENTS.unpack(data)
        return cls(n=n, sum_w=sum_w, sum_w2=sum_w2, min_w=min_w, max_w=max_w)


# -- one group's fold inputs ---------------------------------------------------------


class WeightFold:
    """One group's matching weights, reduced once for every state of the group.

    A weight is an inverse sampling rate, so a negative one is refused
    (:class:`ValueError`) rather than folded into a meaningless bar.
    """

    __slots__ = ("array", "squared", "moments")

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.squared = array * array
        n = int(array.shape[0])
        self.moments = (
            WeightMoments(
                n=n,
                sum_w=float(array.sum()),
                sum_w2=float(self.squared.sum()),
                min_w=float(array.min()),
                max_w=float(array.max()),
            )
            if n
            else WeightMoments()
        )
        if self.moments.min_w < 0.0:
            raise ValueError(f"weights must be non-negative, got {self.moments.min_w!r}")


class ColumnFold:
    """One column's matching values in a group, for one state's fold.

    Each product is computed on first use and reused by the state's later
    terms (``AvgState`` needs the deviations for its value moments and its
    centered moment); each is the float the per-state expression gave.  The
    products live in slots, filled on first access without the lock
    ``functools.cached_property`` takes.  The values must pair one to one
    with the fold's weights; a length mismatch is a :class:`ValueError`,
    not a numpy broadcast.
    """

    __slots__ = ("array", "weights", "_center", "_deviations", "_squared", "_moments", "_sum_wx")

    def __init__(self, array: np.ndarray, weights: WeightFold) -> None:
        if array.shape[0] != weights.array.shape[0]:
            raise ValueError(
                f"{array.shape[0]} values for {weights.array.shape[0]} weights"
            )
        self.array = array
        self.weights = weights
        self._center: float | None = None
        self._deviations: np.ndarray | None = None
        self._squared: np.ndarray | None = None
        self._moments: ValueMoments | None = None
        self._sum_wx: float | None = None

    @property
    def center(self) -> float:
        if self._center is None:
            self._center = float(self.array.mean())
        return self._center

    @property
    def deviations(self) -> np.ndarray:
        if self._deviations is None:
            self._deviations = self.array - self.center
        return self._deviations

    @property
    def squared_deviations(self) -> np.ndarray:
        if self._squared is None:
            self._squared = self.deviations**2
        return self._squared

    @property
    def moments(self) -> ValueMoments:
        if self._moments is None:
            n = int(self.array.shape[0])
            self._moments = (
                ValueMoments(n=n, mean=self.center, m2=float(self.squared_deviations.sum()))
                if n
                else ValueMoments()
            )
        return self._moments

    @property
    def sum_wx(self) -> float:
        if self._sum_wx is None:
            self._sum_wx = float((self.array * self.weights.array).sum())
        return self._sum_wx

    def centered(self, coeff: np.ndarray, total: float) -> _CenteredMoment:
        """The :class:`_CenteredMoment` of ``coeff`` (whose sum is ``total``)."""
        if self.array.shape[0] == 0:
            return _CenteredMoment()
        return _CenteredMoment(
            total=total,
            linear=float((coeff * self.deviations).sum()),
            square=float((coeff * self.squared_deviations).sum()),
            center=self.center,
        )


# -- aggregate states --------------------------------------------------------------


class AggregateState:
    """Base interface of one aggregate's mergeable partial state."""

    def update(self, values: np.ndarray | None, weights: np.ndarray) -> None:
        """Fold one vector of matching (values, weights) into the state."""
        rows = WeightFold(weights)
        self.fold(rows, None if values is None else ColumnFold(values, rows))

    def fold(self, weights: WeightFold, column: ColumnFold | None) -> None:
        """Fold one group's rows; ``column`` is ``None`` for ``COUNT(*)``."""
        raise NotImplementedError

    def update_runs(
        self,
        values: np.ndarray | None,
        lengths: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Update from run-length-encoded rows: run ``i`` stands for
        ``lengths[i]`` identical rows of value ``values[i]`` and weight
        ``weights[i]``.

        The default expands the runs and delegates; states with closed-form
        run folds override this so RLE blocks aggregate in O(runs) — the
        compressed-execution contract (SUM over a run is value × length × w).
        """
        expanded_w = np.repeat(weights, lengths)
        expanded_v = None if values is None else np.repeat(values, lengths)
        self.update(expanded_v, expanded_w)

    def merge(self, other: "AggregateState") -> None:
        raise NotImplementedError

    def finalize(
        self,
        rows_read: int,
        population_read: float | None,
        exact: bool = False,
        weight_scale: float = 1.0,
    ) -> Estimate:
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """The state's wire payload (bit-exact; see :func:`state_to_bytes`)."""
        raise NotImplementedError

    @classmethod
    def from_bytes(cls, data: bytes) -> "AggregateState":
        raise NotImplementedError


class CountState(AggregateState):
    """Mergeable state of ``COUNT(*)``: ``Σ w`` with Table 2's COUNT variance."""

    def __init__(self) -> None:
        self.weights = WeightMoments()

    def fold(self, weights: WeightFold, column: ColumnFold | None) -> None:
        self.weights.merge(weights.moments)

    def update_runs(
        self,
        values: np.ndarray | None,
        lengths: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.weights.merge(WeightMoments.from_runs(weights, lengths))

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, CountState)
        self.weights.merge(other.weights)

    def finalize(
        self,
        rows_read: int,
        population_read: float | None,
        exact: bool = False,
        weight_scale: float = 1.0,
    ) -> Estimate:
        w = self.weights
        c = weight_scale
        n = w.n
        value = c * w.sum_w
        if exact:
            return Estimate(value, 0.0, n, rows_read, value, exact=True)
        if n == 0:
            variance = float(population_read or rows_read or 1.0)
            return Estimate(0.0, variance, 0, rows_read, 0.0, exact=False)
        if population_read is None:
            population_read = (c * w.sum_w / n) * max(rows_read, n)
        if w.uniform(c) and rows_read > 0:
            selectivity = n / rows_read
            variance = closed_form.count_variance(population_read, rows_read, selectivity)
        else:
            selectivity = min(1.0, n / rows_read) if rows_read > 0 else 0.0
            variance = w.sum_w_w_minus_1(c) * max(0.0, 1.0 - selectivity)
        return Estimate(value, variance, n, rows_read, value, exact=False)

    def to_bytes(self) -> bytes:
        return self.weights.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CountState":
        state = cls()
        state.weights = WeightMoments.from_bytes(data)
        return state


class SumState(AggregateState):
    """Mergeable state of ``SUM(x)``: ``Σ w·x`` with Table 2's SUM variance."""

    def __init__(self) -> None:
        self.weights = WeightMoments()
        self.values = ValueMoments()
        self.sum_wx = 0.0
        #: Σ x²·w·(w-1) and Σ x²·w·max(w-1, 0): the HT variance and its
        #: non-negative fallback, kept unscaled for the weight_scale == 1 path.
        self.sum_x2_w_w1 = 0.0
        self.sum_x2_w_w1_pos = 0.0
        #: Σ x²·w² and Σ x²·w, from which the two sums above are rebuilt when
        #: the weights are rescaled by an anytime coverage factor.
        self.sum_x2_w2 = 0.0
        self.sum_x2_w = 0.0

    def fold(self, weights: WeightFold, column: ColumnFold | None) -> None:
        assert column is not None
        self.weights.merge(weights.moments)
        self.values.merge(column.moments)
        self.sum_wx += column.sum_wx
        w = weights.array
        x2w = column.array * column.array * w
        excess = w - 1.0
        self.sum_x2_w_w1 += float((x2w * excess).sum())
        self.sum_x2_w_w1_pos += float((x2w * np.maximum(excess, 0.0)).sum())
        self.sum_x2_w2 += float((x2w * w).sum())
        self.sum_x2_w += float(x2w.sum())

    def update_runs(
        self,
        values: np.ndarray | None,
        lengths: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        assert values is not None
        self.weights.merge(WeightMoments.from_runs(weights, lengths))
        self.values.merge(ValueMoments.from_runs(values, lengths))
        self.sum_wx += float((lengths * values * weights).sum())
        x2w = lengths * values * values * weights
        self.sum_x2_w_w1 += float((x2w * (weights - 1.0)).sum())
        self.sum_x2_w_w1_pos += float((x2w * np.maximum(weights - 1.0, 0.0)).sum())
        self.sum_x2_w2 += float((x2w * weights).sum())
        self.sum_x2_w += float(x2w.sum())

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, SumState)
        self.weights.merge(other.weights)
        self.values.merge(other.values)
        self.sum_wx += other.sum_wx
        self.sum_x2_w_w1 += other.sum_x2_w_w1
        self.sum_x2_w_w1_pos += other.sum_x2_w_w1_pos
        self.sum_x2_w2 += other.sum_x2_w2
        self.sum_x2_w += other.sum_x2_w

    def finalize(
        self,
        rows_read: int,
        population_read: float | None,
        exact: bool = False,
        weight_scale: float = 1.0,
    ) -> Estimate:
        w = self.weights
        c = weight_scale
        n = w.n
        value = c * self.sum_wx
        population_rows = c * w.sum_w
        if exact:
            return Estimate(value, 0.0, n, rows_read, population_rows, exact=True)
        if n == 0:
            return Estimate(0.0, math.inf, 0, rows_read, 0.0)
        if population_read is None:
            population_read = (c * w.sum_w / n) * max(rows_read, n)
        if w.uniform(c) and rows_read > 0 and n > 1:
            selectivity = n / rows_read
            variance = closed_form.sum_variance(
                population_read,
                rows_read,
                self.values.sample_variance,
                selectivity,
                self.values.mean,
            )
        else:
            selectivity = min(1.0, n / rows_read) if rows_read > 0 else 0.0
            if c == 1.0:
                ht = self.sum_x2_w_w1
                ht_pos = self.sum_x2_w_w1_pos
            else:
                ht = c * c * self.sum_x2_w2 - c * self.sum_x2_w
                ht_pos = max(0.0, ht)
            variance = ht * (max(0.0, 1.0 - selectivity) if selectivity < 1.0 else 0.0)
            if variance == 0.0 and not w.uniform(c):
                variance = ht_pos
        return Estimate(value, variance, n, rows_read, population_rows)

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                self.weights.to_bytes(),
                self.values.to_bytes(),
                _WIRE_SUM_TAIL.pack(
                    self.sum_wx,
                    self.sum_x2_w_w1,
                    self.sum_x2_w_w1_pos,
                    self.sum_x2_w2,
                    self.sum_x2_w,
                ),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SumState":
        state = cls()
        w_end = _WIRE_WEIGHT_MOMENTS.size
        v_end = w_end + _WIRE_VALUE_MOMENTS.size
        state.weights = WeightMoments.from_bytes(data[:w_end])
        state.values = ValueMoments.from_bytes(data[w_end:v_end])
        (
            state.sum_wx,
            state.sum_x2_w_w1,
            state.sum_x2_w_w1_pos,
            state.sum_x2_w2,
            state.sum_x2_w,
        ) = _WIRE_SUM_TAIL.unpack(data[v_end:])
        return state


class AvgState(AggregateState):
    """Mergeable state of ``AVG(x)``: the Hájek ratio with Table 2's AVG variance."""

    def __init__(self) -> None:
        self.weights = WeightMoments()
        self.values = ValueMoments()
        self.sum_wx = 0.0
        #: Σ w²(x - c)… for the linearised non-uniform variance.
        self.w2_moment = _CenteredMoment()

    def fold(self, weights: WeightFold, column: ColumnFold | None) -> None:
        assert column is not None
        self.weights.merge(weights.moments)
        self.values.merge(column.moments)
        self.sum_wx += column.sum_wx
        self.w2_moment.merge(column.centered(weights.squared, weights.moments.sum_w2))

    def update_runs(
        self,
        values: np.ndarray | None,
        lengths: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        assert values is not None
        self.weights.merge(WeightMoments.from_runs(weights, lengths))
        self.values.merge(ValueMoments.from_runs(values, lengths))
        self.sum_wx += float((lengths * values * weights).sum())
        self.w2_moment.merge(
            _CenteredMoment.from_runs(weights * weights, values, lengths)
        )

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, AvgState)
        self.weights.merge(other.weights)
        self.values.merge(other.values)
        self.sum_wx += other.sum_wx
        self.w2_moment.merge(other.w2_moment)

    def finalize(
        self,
        rows_read: int,
        population_read: float | None,
        exact: bool = False,
        weight_scale: float = 1.0,
    ) -> Estimate:
        w = self.weights
        n = w.n
        if n == 0:
            return Estimate(math.nan, math.inf, 0, rows_read, 0.0)
        weight_total = weight_scale * w.sum_w
        value = self.sum_wx / w.sum_w  # the Hájek ratio: scale cancels
        if exact:
            return Estimate(value, 0.0, n, rows_read, weight_total, exact=True)
        if n == 1:
            return Estimate(value, math.inf, 1, rows_read, weight_total)
        if w.uniform(weight_scale):
            variance = closed_form.avg_variance(self.values.sample_variance, n)
        else:
            # Σ (w(x-μ))² / (Σw)²; the coverage scale cancels top and bottom.
            variance = self.w2_moment.shifted_square(value) / (w.sum_w**2)
        return Estimate(value, variance, n, rows_read, weight_total)

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                self.weights.to_bytes(),
                self.values.to_bytes(),
                _WIRE_DOUBLE.pack(self.sum_wx),
                self.w2_moment.to_bytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "AvgState":
        state = cls()
        w_end = _WIRE_WEIGHT_MOMENTS.size
        v_end = w_end + _WIRE_VALUE_MOMENTS.size
        x_end = v_end + _WIRE_DOUBLE.size
        state.weights = WeightMoments.from_bytes(data[:w_end])
        state.values = ValueMoments.from_bytes(data[w_end:v_end])
        (state.sum_wx,) = _WIRE_DOUBLE.unpack(data[v_end:x_end])
        state.w2_moment = _CenteredMoment.from_bytes(data[x_end:])
        return state


class VarianceState(AggregateState):
    """Mergeable state of ``VARIANCE(x)`` (``closed_form.variance_of_sample_variance``)."""

    def __init__(self) -> None:
        self.weights = WeightMoments()
        self.sum_wx = 0.0
        #: Σ w(x - c)… for the weighted second moment about the mean.
        self.w_moment = _CenteredMoment()

    def fold(self, weights: WeightFold, column: ColumnFold | None) -> None:
        assert column is not None
        self.weights.merge(weights.moments)
        self.sum_wx += column.sum_wx
        self.w_moment.merge(column.centered(weights.array, weights.moments.sum_w))

    def update_runs(
        self,
        values: np.ndarray | None,
        lengths: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        assert values is not None
        self.weights.merge(WeightMoments.from_runs(weights, lengths))
        self.sum_wx += float((lengths * values * weights).sum())
        self.w_moment.merge(_CenteredMoment.from_runs(weights, values, lengths))

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, VarianceState)
        self.weights.merge(other.weights)
        self.sum_wx += other.sum_wx
        self.w_moment.merge(other.w_moment)

    def finalize(
        self,
        rows_read: int,
        population_read: float | None,
        exact: bool = False,
        weight_scale: float = 1.0,
    ) -> Estimate:
        w = self.weights
        n = w.n
        if n < 2:
            return Estimate(math.nan, math.inf, n, rows_read, 0.0)
        weight_total = weight_scale * w.sum_w
        mean = self.sum_wx / w.sum_w
        value = self.w_moment.shifted_square(mean) / w.sum_w
        value *= n / max(1, n - 1)
        if exact:
            return Estimate(value, 0.0, n, rows_read, weight_total, exact=True)
        variance = closed_form.variance_of_sample_variance(value, n)
        return Estimate(value, variance, n, rows_read, weight_total)

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                self.weights.to_bytes(),
                _WIRE_DOUBLE.pack(self.sum_wx),
                self.w_moment.to_bytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "VarianceState":
        state = cls()
        w_end = _WIRE_WEIGHT_MOMENTS.size
        x_end = w_end + _WIRE_DOUBLE.size
        state.weights = WeightMoments.from_bytes(data[:w_end])
        (state.sum_wx,) = _WIRE_DOUBLE.unpack(data[w_end:x_end])
        state.w_moment = _CenteredMoment.from_bytes(data[x_end:])
        return state


class StddevState(AggregateState):
    """Mergeable state of ``STDDEV(x)`` (derived from :class:`VarianceState`)."""

    def __init__(self) -> None:
        self.inner = VarianceState()

    def fold(self, weights: WeightFold, column: ColumnFold | None) -> None:
        self.inner.fold(weights, column)

    def update_runs(
        self,
        values: np.ndarray | None,
        lengths: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.inner.update_runs(values, lengths, weights)

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, StddevState)
        self.inner.merge(other.inner)

    def finalize(
        self,
        rows_read: int,
        population_read: float | None,
        exact: bool = False,
        weight_scale: float = 1.0,
    ) -> Estimate:
        var_estimate = self.inner.finalize(
            rows_read, population_read, exact=exact, weight_scale=weight_scale
        )
        if math.isnan(var_estimate.value):
            return var_estimate
        value = math.sqrt(max(0.0, var_estimate.value))
        if exact:
            return Estimate(value, 0.0, var_estimate.sample_rows, rows_read,
                            var_estimate.population_rows, exact=True)
        variance = closed_form.stddev_variance(var_estimate.value, var_estimate.sample_rows)
        return Estimate(value, variance, var_estimate.sample_rows, rows_read,
                        var_estimate.population_rows)

    def to_bytes(self) -> bytes:
        return self.inner.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "StddevState":
        state = cls()
        state.inner = VarianceState.from_bytes(data)
        return state


class QuantileState(AggregateState):
    """Mergeable weighted quantile sketch.

    Keeps every (value, weight) point until ``sketch_size`` is exceeded, at
    which point the points are compressed into equally-weighted centroids
    along the value axis (a GK/t-digest-style summary: each centroid is the
    weighted mean of a contiguous value range carrying its total weight).
    Below the threshold the sketch — and therefore the partitioned quantile —
    is exact; above it the error is bounded by the centroid width.

    Finalization sorts by (value, weight) so the result is independent of
    the merge order even in the presence of duplicated values.
    """

    def __init__(self, p: float, sketch_size: int = QUANTILE_SKETCH_SIZE) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile p must be in (0, 1)")
        self.p = p
        self.sketch_size = sketch_size
        self._values: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []
        self._points = 0
        #: True matching-row count, preserved across compressions: the
        #: variance must use the real ``n``, not the centroid count.
        self._rows = 0
        self.compressed = False

    def fold(self, weights: WeightFold, column: ColumnFold | None) -> None:
        assert column is not None
        values = column.array
        if values.shape[0] == 0:
            return
        self._values.append(np.asarray(values, dtype=np.float64))
        self._weights.append(np.asarray(weights.array, dtype=np.float64))
        self._points += int(values.shape[0])
        self._rows += int(values.shape[0])
        if self._points > self.sketch_size:
            self._compress()

    # QuantileState inherits the expanding ``update_runs``: collapsing a run
    # into one L-weighted sketch point preserves the quantile's point value
    # but changes the sketch granularity the variance is derived from, so
    # the sketch always sees individual rows.

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, QuantileState)
        self._values.extend(other._values)
        self._weights.extend(other._weights)
        self._points += other._points
        self._rows += other._rows
        self.compressed = self.compressed or other.compressed
        if self._points > self.sketch_size:
            self._compress()

    def _materialize(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._values:
            return np.zeros(0), np.zeros(0)
        values = np.concatenate(self._values)
        weights = np.concatenate(self._weights)
        order = np.lexsort((weights, values))
        return values[order], weights[order]

    def _compress(self) -> None:
        values, weights = self._materialize()
        centroids = max(2, self.sketch_size // 2)
        if values.shape[0] <= centroids:
            self._values, self._weights = [values], [weights]
            self._points = int(values.shape[0])
            return
        cumulative = np.cumsum(weights)
        total = cumulative[-1]
        # Equal-weight buckets along the CDF; each becomes one centroid.
        edges = np.searchsorted(
            cumulative, np.linspace(0.0, total, centroids + 1)[1:-1], side="left"
        )
        starts = np.concatenate(([0], np.unique(edges + 1)))
        starts = starts[starts < values.shape[0]]
        bucket_weight = np.add.reduceat(weights, starts)
        bucket_wx = np.add.reduceat(weights * values, starts)
        keep = bucket_weight > 0
        self._values = [bucket_wx[keep] / bucket_weight[keep]]
        self._weights = [bucket_weight[keep]]
        self._points = int(self._values[0].shape[0])
        self.compressed = True

    def finalize(
        self,
        rows_read: int,
        population_read: float | None,
        exact: bool = False,
        weight_scale: float = 1.0,
    ) -> Estimate:
        values, weights = self._materialize()
        return estimate_quantile(
            values,
            weights * weight_scale,
            self.p,
            rows_read,
            exact=exact,
            sample_rows=self._rows,
        )

    def to_bytes(self) -> bytes:
        # Materializing sorts by (value, weight); every later consumer
        # (merge → _compress → finalize) re-sorts the concatenation anyway,
        # so collapsing the chunk list here changes no downstream bit.
        values, weights = self._materialize()
        return b"".join(
            (
                _WIRE_QUANTILE_HEAD.pack(
                    self.p,
                    self.sketch_size,
                    self._points,
                    self._rows,
                    1 if self.compressed else 0,
                ),
                _WIRE_LEN.pack(int(values.shape[0])),
                np.ascontiguousarray(values, dtype=np.float64).tobytes(),
                np.ascontiguousarray(weights, dtype=np.float64).tobytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "QuantileState":
        raw = bytes(data)
        p, sketch_size, points, rows, compressed = _WIRE_QUANTILE_HEAD.unpack_from(raw, 0)
        offset = _WIRE_QUANTILE_HEAD.size
        (count,) = _WIRE_LEN.unpack_from(raw, offset)
        offset += _WIRE_LEN.size
        values = np.frombuffer(raw, dtype=np.float64, count=count, offset=offset).copy()
        offset += count * 8
        weights = np.frombuffer(raw, dtype=np.float64, count=count, offset=offset).copy()
        state = cls(p, sketch_size)
        if count:
            state._values = [values]
            state._weights = [weights]
        state._points = points
        state._rows = rows
        state.compressed = bool(compressed)
        return state


# -- factory -------------------------------------------------------------------------


def make_state(function: str, quantile: float | None = None) -> AggregateState:
    """Build the empty partial state for an aggregate (by lowercase name)."""
    name = function.lower()
    if name == "count":
        return CountState()
    if name == "sum":
        return SumState()
    if name == "avg":
        return AvgState()
    if name in ("quantile", "median"):
        return QuantileState(quantile if quantile is not None else 0.5)
    if name == "stddev":
        return StddevState()
    if name == "variance":
        return VarianceState()
    raise ValueError(f"unknown aggregate function {function!r}")


# -- wire helpers ---------------------------------------------------------------------

_STATE_WIRE_TAGS: dict[type, int] = {
    CountState: 0,
    SumState: 1,
    AvgState: 2,
    VarianceState: 3,
    StddevState: 4,
    QuantileState: 5,
}
_STATE_WIRE_LOADERS = {tag: kind.from_bytes for kind, tag in _STATE_WIRE_TAGS.items()}


def state_to_bytes(state: AggregateState) -> bytes:
    """One aggregate state as a self-describing (tag + payload) byte string."""
    return bytes((_STATE_WIRE_TAGS[type(state)],)) + state.to_bytes()


def state_from_bytes(data: bytes) -> AggregateState:
    """Inverse of :func:`state_to_bytes`."""
    data = bytes(data)
    return _STATE_WIRE_LOADERS[data[0]](data[1:])


def _read_frame(data: bytes, offset: int) -> tuple[bytes, int]:
    """Read one length-prefixed frame, returning (payload, next offset)."""
    (length,) = _WIRE_LEN.unpack_from(data, offset)
    offset += _WIRE_LEN.size
    return data[offset : offset + length], offset + length


@dataclass
class GroupPartial:
    """Partial aggregation of one GROUP BY key across merged partitions."""

    key: tuple
    states: list[AggregateState]
    rows: int = 0
    min_weight: float = math.inf
    max_weight: float = 0.0

    def observe_weights(self, weights: WeightMoments) -> None:
        """Count a batch's rows and widen the weight range by its moments."""
        if weights.n == 0:
            return
        self.rows += weights.n
        self.min_weight = min(self.min_weight, weights.min_w)
        self.max_weight = max(self.max_weight, weights.max_w)

    def merge(self, other: "GroupPartial") -> None:
        for mine, theirs in zip(self.states, other.states):
            mine.merge(theirs)
        self.rows += other.rows
        self.min_weight = min(self.min_weight, other.min_weight)
        self.max_weight = max(self.max_weight, other.max_weight)

    def unit_weight(self, scale: float = 1.0) -> bool:
        """All observed weights (after scaling) are ≈ 1.0 (an exact stratum)."""
        if self.rows == 0:
            return False
        return weight_is_unit(self.min_weight * scale) and weight_is_unit(
            self.max_weight * scale
        )

    def to_bytes(self) -> bytes:
        # The key tuple holds heterogeneous numpy scalars (np.str_ from
        # dictionary decode, np.int64/np.float64 from .item()-free paths);
        # pickling the tuple round-trips their exact types so dict lookups
        # and the finalize sort order behave identically after shipping.
        key_bytes = pickle.dumps(self.key, protocol=pickle.HIGHEST_PROTOCOL)
        parts = [
            _WIRE_LEN.pack(len(key_bytes)),
            key_bytes,
            _WIRE_GROUP_HEAD.pack(self.rows, self.min_weight, self.max_weight),
            _WIRE_LEN.pack(len(self.states)),
        ]
        for state in self.states:
            payload = state_to_bytes(state)
            parts.append(_WIRE_LEN.pack(len(payload)))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "GroupPartial":
        raw = bytes(data)
        key, offset = _read_frame(raw, 0)
        rows, min_weight, max_weight = _WIRE_GROUP_HEAD.unpack_from(raw, offset)
        offset += _WIRE_GROUP_HEAD.size
        (num_states,) = _WIRE_LEN.unpack_from(raw, offset)
        offset += _WIRE_LEN.size
        states: list[AggregateState] = []
        for _ in range(num_states):
            payload, offset = _read_frame(raw, offset)
            states.append(state_from_bytes(payload))
        return cls(
            key=pickle.loads(key),
            states=states,
            rows=rows,
            min_weight=min_weight,
            max_weight=max_weight,
        )


@dataclass
class PartialAggregation:
    """All per-group partial states of one partition (or a merge of many).

    ``rows_scanned`` / ``weight_scanned`` count *every* row fed into the
    partition stage — matching or not — so a merged subset of partitions
    knows what fraction of the input (in rows and in represented population)
    it covers.
    """

    group_columns: tuple[str, ...]
    groups: dict[tuple, GroupPartial] = field(default_factory=dict)
    rows_scanned: int = 0
    weight_scanned: float = 0.0
    partitions: int = 1
    has_weights: bool = False

    def merge(self, other: "PartialAggregation") -> "PartialAggregation":
        if other.group_columns != self.group_columns:
            raise ValueError("cannot merge partials of different group-by shapes")
        for key, theirs in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = theirs
            else:
                mine.merge(theirs)
        self.rows_scanned += other.rows_scanned
        self.weight_scanned += other.weight_scanned
        self.partitions += other.partitions
        self.has_weights = self.has_weights or other.has_weights
        return self

    def to_bytes(self) -> bytes:
        """The partial's compact wire form — O(groups × aggregates), never O(rows)."""
        parts = [
            _WIRE_PARTIAL_HEAD.pack(
                self.rows_scanned,
                self.weight_scanned,
                self.partitions,
                1 if self.has_weights else 0,
            ),
            _WIRE_LEN.pack(len(self.group_columns)),
        ]
        for name in self.group_columns:
            raw = name.encode("utf-8")
            parts.append(_WIRE_LEN.pack(len(raw)))
            parts.append(raw)
        parts.append(_WIRE_LEN.pack(len(self.groups)))
        for group in self.groups.values():
            blob = group.to_bytes()
            parts.append(_WIRE_LEN.pack(len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PartialAggregation":
        raw = bytes(data)
        rows_scanned, weight_scanned, partitions, has_weights = (
            _WIRE_PARTIAL_HEAD.unpack_from(raw, 0)
        )
        offset = _WIRE_PARTIAL_HEAD.size
        (num_columns,) = _WIRE_LEN.unpack_from(raw, offset)
        offset += _WIRE_LEN.size
        columns: list[str] = []
        for _ in range(num_columns):
            name, offset = _read_frame(raw, offset)
            columns.append(name.decode("utf-8"))
        (num_groups,) = _WIRE_LEN.unpack_from(raw, offset)
        offset += _WIRE_LEN.size
        groups: dict[tuple, GroupPartial] = {}
        for _ in range(num_groups):
            blob, offset = _read_frame(raw, offset)
            group = GroupPartial.from_bytes(blob)
            groups[group.key] = group
        return cls(
            group_columns=tuple(columns),
            groups=groups,
            rows_scanned=rows_scanned,
            weight_scanned=weight_scanned,
            partitions=partitions,
            has_weights=bool(has_weights),
        )
