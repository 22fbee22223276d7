"""Per-block column encodings with predicate evaluation over encoded form.

PR 4's compiled kernels triage blocks with zone maps but still materialise
raw value arrays for every block they evaluate.  This module closes that
gap: each (column, zone-block) pair is stored in the lightest encoding its
statistics justify, and predicates are answered *in the encoded domain* —
the kernels never decode a block just to compare it against a literal.

Encodings
---------
``rle``
    Run-length runs: one value per run plus ``int32`` lengths.  Predicates
    evaluate once per run; selection vectors are expanded only for matching
    runs.  Chosen when the block's mean run length clears
    :data:`RLE_MIN_AVG_RUN` (probed with one vectorised inequality).
``for``
    Frame-of-reference integers: ``value - block_min`` stored in the
    narrowest unsigned width that fits the block's span.  Literals are
    translated into the stored domain (``lit - reference``) instead of
    decoding — the same idiom as ``encode_lookup`` for dictionary codes.
``packed``
    Bit-packed dictionary codes: a FOR block with reference 0 whose width
    comes from the *dictionary* size, so code-space truth tables index the
    stored array directly.
``null``
    Null suppression for NaN-heavy float blocks: the dense non-NaN values
    plus the sorted NaN positions.  Predicates run over the dense values
    once; the NaN verdict is computed by applying the same operator to a
    single-NaN array, which keeps NaN semantics identical to raw NumPy.
``raw``
    The original values (owned copy).  The fallback when nothing wins.

Correctness contract
--------------------
Every encoding is lossless (``decode()`` reproduces the raw array bitwise)
and every predicate primitive produces *exactly* the selection the raw
kernels would: the stored-domain operators are the same NumPy ufuncs the
interpretive path uses (``repro.engine.expressions.compare_op`` semantics),
only applied to fewer or narrower elements.  The property suite in
``tests/test_property_compressed_scan.py`` holds this bitwise.

Anything that genuinely needs raw values — joins, group keys, exact
baselines, result rendering — decodes on demand through
:class:`EncodedColumn` (gathers decode only the rows asked for).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.common.errors import SchemaError
from repro.storage.column import Column, _dictionary_extend
from repro.storage.schema import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (table imports us)
    from repro.storage.table import Table
    from repro.storage.zonemaps import ColumnZone, ZoneMapIndex

#: Minimum mean run length before a block is worth RLE-encoding.  At 4 the
#: per-run overhead (value + int32 length + int64 start) still beats 4 raw
#: int64/float64 values; below it RLE loses both space and triage time.
RLE_MIN_AVG_RUN = 4.0

#: Minimum NaN fraction before null suppression beats a raw float block
#: (suppression trades 8 bytes per NaN for a 4-byte position entry, and the
#: dense predicate pass only pays off once a real share of rows drop out).
NULL_SUPPRESS_MIN_FRACTION = 0.25

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_NAN1 = np.asarray([np.nan], dtype=np.float64)

_CMP_UFUNC = {
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


# ---------------------------------------------------------------------------
# Stored-domain predicate specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class PredicateSpec:
    """One leaf predicate, expressed as data so encodings can translate it.

    ``kind`` is one of ``"cmp"`` / ``"range"`` / ``"in"`` / ``"lookup"``.
    Literals are already in the column's internal representation (dictionary
    codes for strings) — exactly what the compiled kernels hold after
    ``encode_lookup`` lowering.  :meth:`evaluate` applies the same NumPy
    operators the raw path uses, so results can never diverge from
    ``repro.engine.expressions.compare_op``.
    """

    kind: str
    op: str | None = None  # cmp: "eq" "ne" "lt" "le" "gt" "ge"
    literal: object = None
    low: object = None
    high: object = None
    values: np.ndarray | None = None  # in: candidate literals
    allowed: np.ndarray | None = None  # lookup: truth table over codes

    def evaluate(self, stored: np.ndarray) -> np.ndarray:
        """Boolean mask of ``stored`` rows satisfying this predicate."""
        if self.kind == "cmp":
            op = self.op
            lit = self.literal
            if op == "eq":
                return stored == lit
            if op == "ne":
                return stored != lit
            if op == "lt":
                return stored < lit
            if op == "le":
                return stored <= lit
            if op == "gt":
                return stored > lit
            return stored >= lit
        if self.kind == "range":
            return (stored >= self.low) & (stored <= self.high)
        if self.kind == "in":
            assert self.values is not None
            return np.isin(stored, self.values)
        assert self.allowed is not None
        return self.allowed[stored]

    def shift(self, delta: int) -> "PredicateSpec | None":
        """This predicate translated into a FOR domain (``stored = v - delta``).

        Returns ``None`` when the predicate cannot be translated (code-space
        truth tables under a non-zero reference); the block then falls back
        to decoding itself.  NumPy's value-based comparison semantics make
        out-of-range translated literals safe: a ``uint8`` array compared
        against ``-3`` or ``400`` yields the correct constant verdict.
        """
        if delta == 0:
            return self
        if self.kind == "cmp":
            return replace(self, literal=self.literal - delta)  # type: ignore[operator]
        if self.kind == "range":
            return replace(self, low=self.low - delta, high=self.high - delta)  # type: ignore[operator]
        if self.kind == "in":
            assert self.values is not None
            return replace(self, values=self.values - delta)
        return None

    def nan_verdict(self) -> bool:
        """Whether a NaN row satisfies this predicate (matches raw NumPy)."""
        return bool(np.asarray(self.evaluate(_NAN1))[0])


# ---------------------------------------------------------------------------
# Block encodings
# ---------------------------------------------------------------------------
class BlockEncoding:
    """One encoded zone-block of one column.

    Subclasses implement the never-decode primitives (``select`` /
    ``mask_at``) plus lossless decode (``decode_range`` / ``gather``).  All
    row coordinates are local to the block.
    """

    kind: str = "raw"
    rows: int = 0

    @property
    def encoded_bytes(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def select(self, spec: PredicateSpec, lo: int, hi: int) -> np.ndarray:
        """Sorted local indices in ``[lo, hi)`` satisfying ``spec``."""
        raise NotImplementedError  # pragma: no cover

    def mask_at(self, spec: PredicateSpec, idx: np.ndarray) -> np.ndarray:
        """Boolean verdicts for the (sorted) local indices ``idx``."""
        raise NotImplementedError  # pragma: no cover

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Decoded values at (sorted) local indices ``idx``."""
        raise NotImplementedError  # pragma: no cover

    def decode(self) -> np.ndarray:
        return self.decode_range(0, self.rows)


class RawBlock(BlockEncoding):
    """Unencoded values (owned, so the source array can be released)."""

    kind = "raw"
    __slots__ = ("values", "rows")

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.rows = int(values.shape[0])

    @property
    def encoded_bytes(self) -> int:
        return int(self.values.nbytes)

    def select(self, spec: PredicateSpec, lo: int, hi: int) -> np.ndarray:
        mask = spec.evaluate(self.values[lo:hi])
        return np.flatnonzero(mask).astype(np.int64, copy=False) + lo

    def mask_at(self, spec: PredicateSpec, idx: np.ndarray) -> np.ndarray:
        return np.asarray(spec.evaluate(self.values[idx]), dtype=bool)

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        return self.values[lo:hi]

    def gather(self, idx: np.ndarray) -> np.ndarray:
        return self.values[idx]


def _expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, e)`` for every range pair, vectorised."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I64
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


class RleBlock(BlockEncoding):
    """Run-length runs: predicates cost one comparison per *run*."""

    kind = "rle"
    __slots__ = ("values", "lengths", "starts", "rows")

    def __init__(self, values: np.ndarray, lengths: np.ndarray) -> None:
        self.values = values
        self.lengths = lengths
        cumulative = np.cumsum(lengths, dtype=np.int64)
        self.starts = cumulative - lengths
        self.rows = int(cumulative[-1]) if lengths.size else 0

    @property
    def encoded_bytes(self) -> int:
        return int(self.values.nbytes + self.lengths.nbytes + self.starts.nbytes)

    def _run_span(self, lo: int, hi: int) -> tuple[int, int]:
        first = int(np.searchsorted(self.starts, lo, side="right")) - 1
        last = int(np.searchsorted(self.starts, hi, side="left"))
        return first, last

    def select(self, spec: PredicateSpec, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            return _EMPTY_I64
        first, last = self._run_span(lo, hi)
        run_mask = np.asarray(spec.evaluate(self.values[first:last]), dtype=bool)
        if not run_mask.any():
            return _EMPTY_I64
        starts = self.starts[first:last][run_mask]
        ends = starts + self.lengths[first:last][run_mask]
        np.maximum(starts, lo, out=starts)
        return _expand_ranges(starts, np.minimum(ends, hi))

    def mask_at(self, spec: PredicateSpec, idx: np.ndarray) -> np.ndarray:
        run_ids = np.searchsorted(self.starts, idx, side="right") - 1
        run_mask = np.asarray(spec.evaluate(self.values), dtype=bool)
        return run_mask[run_ids]

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            return np.empty(0, dtype=self.values.dtype)
        first, last = self._run_span(lo, hi)
        starts = np.maximum(self.starts[first:last], lo)
        ends = np.minimum(self.starts[first:last] + self.lengths[first:last], hi)
        return np.repeat(self.values[first:last], ends - starts)

    def gather(self, idx: np.ndarray) -> np.ndarray:
        run_ids = np.searchsorted(self.starts, idx, side="right") - 1
        return self.values[run_ids]


class ForBlock(BlockEncoding):
    """Frame-of-reference: ``value - reference`` in the narrowest width.

    With ``reference == 0`` this is the bit-packed dictionary-code layout
    (``kind == "packed"``): truth tables index the stored codes directly.
    """

    __slots__ = ("stored", "reference", "rows", "kind")

    def __init__(self, stored: np.ndarray, reference: int, kind: str = "for") -> None:
        self.stored = stored
        self.reference = int(reference)
        self.rows = int(stored.shape[0])
        self.kind = kind

    @property
    def encoded_bytes(self) -> int:
        return int(self.stored.nbytes) + 8

    def select(self, spec: PredicateSpec, lo: int, hi: int) -> np.ndarray:
        translated = spec.shift(self.reference)
        if translated is None:
            mask = spec.evaluate(self.decode_range(lo, hi))
        else:
            mask = translated.evaluate(self.stored[lo:hi])
        return np.flatnonzero(mask).astype(np.int64, copy=False) + lo

    def mask_at(self, spec: PredicateSpec, idx: np.ndarray) -> np.ndarray:
        translated = spec.shift(self.reference)
        if translated is None:
            return np.asarray(spec.evaluate(self.gather(idx)), dtype=bool)
        return np.asarray(translated.evaluate(self.stored[idx]), dtype=bool)

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        return self.stored[lo:hi].astype(np.int64) + self.reference

    def gather(self, idx: np.ndarray) -> np.ndarray:
        return self.stored[idx].astype(np.int64) + self.reference


class NullSuppressedBlock(BlockEncoding):
    """NaN-heavy float block: dense non-NaN values + sorted NaN positions."""

    kind = "null"
    __slots__ = ("dense", "nan_pos", "rows")

    def __init__(self, dense: np.ndarray, nan_pos: np.ndarray, rows: int) -> None:
        self.dense = dense
        self.nan_pos = nan_pos
        self.rows = int(rows)

    @property
    def encoded_bytes(self) -> int:
        return int(self.dense.nbytes + self.nan_pos.nbytes)

    def _dense_bounds(self, lo: int, hi: int) -> tuple[int, int]:
        k_lo = int(np.searchsorted(self.nan_pos, lo, side="left"))
        k_hi = int(np.searchsorted(self.nan_pos, hi, side="left"))
        return k_lo, k_hi

    def select(self, spec: PredicateSpec, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            return _EMPTY_I64
        k_lo, k_hi = self._dense_bounds(lo, hi)
        full = np.empty(hi - lo, dtype=bool)
        valid = np.ones(hi - lo, dtype=bool)
        local_nans = self.nan_pos[k_lo:k_hi] - lo
        valid[local_nans] = False
        full[local_nans] = spec.nan_verdict()
        full[valid] = spec.evaluate(self.dense[lo - k_lo : hi - k_hi])
        return np.flatnonzero(full).astype(np.int64, copy=False) + lo

    def mask_at(self, spec: PredicateSpec, idx: np.ndarray) -> np.ndarray:
        rank = np.searchsorted(self.nan_pos, idx, side="left")
        is_nan = np.zeros(idx.shape[0], dtype=bool)
        in_bounds = rank < self.nan_pos.shape[0]
        is_nan[in_bounds] = self.nan_pos[rank[in_bounds]] == idx[in_bounds]
        out = np.empty(idx.shape[0], dtype=bool)
        out[is_nan] = spec.nan_verdict()
        dense_idx = idx[~is_nan] - rank[~is_nan]
        out[~is_nan] = spec.evaluate(self.dense[dense_idx])
        return out

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        k_lo, k_hi = self._dense_bounds(lo, hi)
        out = np.empty(hi - lo, dtype=np.float64)
        valid = np.ones(hi - lo, dtype=bool)
        local_nans = self.nan_pos[k_lo:k_hi] - lo
        valid[local_nans] = False
        out[local_nans] = np.nan
        out[valid] = self.dense[lo - k_lo : hi - k_hi]
        return out

    def gather(self, idx: np.ndarray) -> np.ndarray:
        rank = np.searchsorted(self.nan_pos, idx, side="left")
        is_nan = np.zeros(idx.shape[0], dtype=bool)
        in_bounds = rank < self.nan_pos.shape[0]
        is_nan[in_bounds] = self.nan_pos[rank[in_bounds]] == idx[in_bounds]
        out = np.empty(idx.shape[0], dtype=np.float64)
        out[is_nan] = np.nan
        dense_idx = idx[~is_nan] - rank[~is_nan]
        out[~is_nan] = self.dense[dense_idx]
        return out


# ---------------------------------------------------------------------------
# Encoding selection (statistics-driven)
# ---------------------------------------------------------------------------
def _narrow_dtype(span: int) -> np.dtype | None:
    """The narrowest unsigned dtype holding ``[0, span]``, if narrower than 8B."""
    if span < 0:  # pragma: no cover - callers pass max-min of non-empty data
        return None
    if span <= 0xFF:
        return np.dtype(np.uint8)
    if span <= 0xFFFF:
        return np.dtype(np.uint16)
    if span <= 0xFFFFFFFF:
        return np.dtype(np.uint32)
    return None


def _rle_encode(block: np.ndarray) -> RleBlock:
    boundaries = np.flatnonzero(block[1:] != block[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    lengths = np.diff(np.concatenate((starts, [block.shape[0]]))).astype(np.int32)
    return RleBlock(block[starts], lengths)


def choose_block_encoding(
    block: np.ndarray,
    *,
    dictionary_size: int | None = None,
    zone: "ColumnZone | None" = None,
) -> BlockEncoding:
    """Pick and build the encoding for one zone-block of one column.

    The choice consumes statistics that are already cheap or collected:
    the zone map's min/max/null-count when the caller has one, plus a
    single-pass run-length probe.  ``dictionary_size`` marks dictionary
    code arrays (STRING columns), which prefer bit-packing so code-space
    truth tables keep working without translation.
    """
    n = int(block.shape[0])
    if n == 0:
        return RawBlock(np.array(block))
    # Run probe: NaNs compare unequal to everything (themselves included),
    # so NaN-heavy float blocks fail this test and fall through to null
    # suppression rather than degenerate one-row runs.
    runs = int(np.count_nonzero(block[1:] != block[:-1])) + 1
    if n / runs >= RLE_MIN_AVG_RUN:
        return _rle_encode(block)
    kind = block.dtype.kind
    if kind == "f":
        if zone is not None:
            null_count = int(zone.null_count)
        else:
            null_count = int(np.count_nonzero(np.isnan(block)))
        if null_count / n >= NULL_SUPPRESS_MIN_FRACTION:
            nan_pos = np.flatnonzero(np.isnan(block)).astype(np.int32)
            valid = np.ones(n, dtype=bool)
            valid[nan_pos] = False
            return NullSuppressedBlock(np.array(block[valid]), nan_pos, n)
        return RawBlock(np.array(block))
    if kind == "i":
        if dictionary_size is not None:
            dtype = _narrow_dtype(max(dictionary_size - 1, 0))
            if dtype is not None:
                return ForBlock(block.astype(dtype), 0, kind="packed")
            return RawBlock(np.array(block))
        if zone is not None and np.isfinite(zone.minimum) and np.isfinite(zone.maximum):
            lo, hi = int(zone.minimum), int(zone.maximum)
        else:
            lo, hi = int(block.min()), int(block.max())
        dtype = _narrow_dtype(hi - lo)
        if dtype is not None:
            return ForBlock((block - lo).astype(dtype), lo, kind="for")
        return RawBlock(np.array(block))
    return RawBlock(np.array(block))


# ---------------------------------------------------------------------------
# Whole-column encodings
# ---------------------------------------------------------------------------
class ColumnEncoding:
    """Fixed-width blocks of :class:`BlockEncoding` covering one column.

    Blocks align with the zone-map grid (``block_rows`` rows each, last
    block ragged), so kernel triage, encoded evaluation, and zone skipping
    all speak the same block coordinates.
    """

    __slots__ = (
        "blocks", "block_rows", "dtype", "rows", "encoded_rows", "encoded_bytes",
        "_runs", "_for",
    )

    def __init__(
        self, blocks: Sequence[BlockEncoding], block_rows: int, dtype: np.dtype
    ) -> None:
        self.blocks = tuple(blocks)
        self.block_rows = int(block_rows)
        self.dtype = np.dtype(dtype)
        self.rows = sum(b.rows for b in self.blocks)
        self.encoded_rows = sum(b.rows for b in self.blocks if b.kind != "raw")
        self.encoded_bytes = sum(b.encoded_bytes for b in self.blocks)
        # Lazily-built whole-column views (False = not computed yet).  For
        # homogeneous columns these lift predicate evaluation and gathers
        # from a per-block Python walk to one vectorised pass.
        self._runs: tuple | None | bool = False
        self._for: tuple | None | bool = False

    def run_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(values, starts, lengths)`` over ALL runs, when every block is
        RLE; ``None`` otherwise.  ``starts`` are global row positions, so
        one ``searchsorted`` maps any row index to its run.  Cached."""
        cached = self._runs
        if cached is not False:
            return cached
        result = None
        if self.blocks and all(type(b) is RleBlock for b in self.blocks):
            result = (
                np.concatenate([b.values for b in self.blocks]),
                np.concatenate(
                    [b.starts + i * self.block_rows for i, b in enumerate(self.blocks)]
                ),
                np.concatenate([b.lengths for b in self.blocks]),
            )
        self._runs = result
        return result

    def for_view(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(stored, references)`` when every block is frame-of-reference
        (or packed) with one stored dtype; ``None`` otherwise.  ``stored``
        is the blocks' data concatenated — each block is re-pointed at a
        view into it, so the column's footprint does not grow.  Cached."""
        cached = self._for
        if cached is not False:
            return cached
        result = None
        if self.blocks and all(type(b) is ForBlock for b in self.blocks):
            dtypes = {b.stored.dtype for b in self.blocks}
            if len(dtypes) == 1:
                stored = np.concatenate([b.stored for b in self.blocks])
                refs = np.asarray(
                    [b.reference for b in self.blocks], dtype=np.int64
                )
                for i, block in enumerate(self.blocks):
                    base = i * self.block_rows
                    block.stored = stored[base : base + block.rows]
                result = (stored, refs)
        self._for = result
        return result

    @property
    def raw_bytes(self) -> int:
        return self.rows * self.dtype.itemsize

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for block in self.blocks:
            counts[block.kind] = counts.get(block.kind, 0) + 1
        return counts

    def _block_range(self, start: int, stop: int) -> range:
        return range(start // self.block_rows, (stop - 1) // self.block_rows + 1)

    def select_range(self, spec: PredicateSpec, start: int, stop: int) -> np.ndarray:
        """Sorted row indices in ``[start, stop)`` satisfying ``spec``."""
        if stop <= start:
            return _EMPTY_I64
        runs = self.run_view()
        if runs is not None:
            # One predicate evaluation per run for the whole column.
            values, starts, lengths = runs
            first = int(np.searchsorted(starts, start, side="right")) - 1
            last = int(np.searchsorted(starts, stop, side="left"))
            run_mask = np.asarray(spec.evaluate(values[first:last]), dtype=bool)
            if not run_mask.any():
                return _EMPTY_I64
            s = starts[first:last][run_mask]
            e = s + lengths[first:last][run_mask]
            np.maximum(s, start, out=s)
            return _expand_ranges(s, np.minimum(e, stop))
        if start == 0 and stop == self.rows:
            mask = self._for_select_full(spec)
            if mask is not None:
                return np.flatnonzero(mask).astype(np.int64, copy=False)
        parts = []
        for b in self._block_range(start, stop):
            base = b * self.block_rows
            block = self.blocks[b]
            idx = block.select(spec, max(start - base, 0), min(stop - base, block.rows))
            if idx.size:
                parts.append(idx + base)
        if not parts:
            return _EMPTY_I64
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _for_select_full(self, spec: PredicateSpec) -> np.ndarray | None:
        """Full-column boolean mask for cmp/range specs over a FOR column.

        Complete blocks evaluate as one 2-D comparison of the concatenated
        stored array against per-block translated literals — a single ufunc
        call instead of a Python walk — which keeps full scans of
        incompressible-but-packable layouts at raw-storage speed.
        """
        if spec.kind not in ("cmp", "range"):
            return None
        view = self.for_view()
        if view is None:
            return None
        stored, refs = view
        br = self.block_rows
        n_full = self.rows // br
        mask = np.empty(self.rows, dtype=bool)

        def thresholds(literal) -> np.ndarray:
            t = np.asarray(literal - refs)
            if t.dtype.kind in "iu" and stored.dtype.kind in "iu" and t.size:
                info = np.iinfo(stored.dtype)
                if int(t.min()) >= info.min and int(t.max()) <= info.max:
                    t = t.astype(stored.dtype)
            return t

        if n_full:
            stored2d = stored[: n_full * br].reshape(n_full, br)
            mask2d = mask[: n_full * br].reshape(n_full, br)
            if spec.kind == "cmp":
                ufunc = _CMP_UFUNC[spec.op]
                ufunc(stored2d, thresholds(spec.literal)[:n_full, None], out=mask2d)
            else:
                lo = thresholds(spec.low)[:n_full, None]
                hi = thresholds(spec.high)[:n_full, None]
                np.greater_equal(stored2d, lo, out=mask2d)
                mask2d &= stored2d <= hi
        if n_full < len(self.blocks):  # ragged tail block
            block = self.blocks[n_full]
            translated = spec.shift(block.reference)
            base = n_full * br
            if translated is None:
                mask[base:] = np.asarray(spec.evaluate(block.decode()), dtype=bool)
            else:
                mask[base:] = np.asarray(
                    translated.evaluate(block.stored), dtype=bool
                )
        return mask

    def mask_at(self, spec: PredicateSpec, idx: np.ndarray) -> np.ndarray:
        """Verdicts for sorted row indices ``idx`` (kernel gather path)."""
        runs = self.run_view()
        if runs is not None:
            values, starts, _ = runs
            run_mask = np.asarray(spec.evaluate(values), dtype=bool)
            return run_mask[np.searchsorted(starts, idx, side="right") - 1]
        view = self.for_view()
        if view is not None and spec.kind in ("cmp", "range"):
            stored, refs = view
            stored_v = stored[idx]
            block_refs = refs[idx // self.block_rows]
            if spec.kind == "cmp":
                return np.asarray(
                    _CMP_UFUNC[spec.op](stored_v, spec.literal - block_refs), dtype=bool
                )
            return np.asarray(
                (stored_v >= spec.low - block_refs)
                & (stored_v <= spec.high - block_refs),
                dtype=bool,
            )
        out = np.empty(idx.shape[0], dtype=bool)
        pos = 0
        while pos < idx.shape[0]:
            b = int(idx[pos]) // self.block_rows
            end = int(np.searchsorted(idx, (b + 1) * self.block_rows, side="left"))
            out[pos:end] = self.blocks[b].mask_at(spec, idx[pos:end] - b * self.block_rows)
            pos = end
        return out

    def decode_range(self, start: int, stop: int) -> np.ndarray:
        if stop <= start:
            return np.empty(0, dtype=self.dtype)
        parts = []
        for b in self._block_range(start, stop):
            base = b * self.block_rows
            block = self.blocks[b]
            parts.append(block.decode_range(max(start - base, 0), min(stop - base, block.rows)))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def decode(self) -> np.ndarray:
        return self.decode_range(0, self.rows)

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Decoded values at ``idx`` in the given (possibly unsorted) order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return np.empty(0, dtype=self.dtype)
        runs = self.run_view()
        if runs is not None:
            values, starts, _ = runs
            return values[np.searchsorted(starts, idx, side="right") - 1]
        view = self.for_view()
        if view is not None:
            stored, refs = view
            return (
                stored[idx].astype(np.int64, copy=False) + refs[idx // self.block_rows]
            ).astype(self.dtype, copy=False)
        if idx.shape[0] * 16 >= self.rows:
            # Large gathers (sample maintenance re-materializing from an
            # encoded base on every append) are cheaper as one vectorized
            # full decode + fancy index than as a stable argsort plus a
            # per-block Python walk.
            return self.decode()[idx]
        order = None
        if idx.shape[0] > 1 and np.any(idx[1:] < idx[:-1]):
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
        out = np.empty(idx.shape[0], dtype=self.dtype)
        pos = 0
        while pos < idx.shape[0]:
            b = int(idx[pos]) // self.block_rows
            end = int(np.searchsorted(idx, (b + 1) * self.block_rows, side="left"))
            out[pos:end] = self.blocks[b].gather(idx[pos:end] - b * self.block_rows)
            pos = end
        if order is not None:
            unsorted = np.empty_like(out)
            unsorted[order] = out
            return unsorted
        return out

    def extend(
        self, batch: np.ndarray, *, dictionary_size: int | None = None
    ) -> "ColumnEncoding":
        """A new encoding with ``batch`` appended — O(batch) ingest path.

        Complete old blocks are reused *by identity*; only the ragged tail
        block (if any) is re-encoded together with the batch, mirroring how
        ``extend_zone_map_index`` reuses complete zone blocks.
        """
        complete = self.rows // self.block_rows
        kept = self.blocks[:complete]
        tail = self.decode_range(complete * self.block_rows, self.rows)
        data = np.concatenate([tail, batch]) if tail.size else np.asarray(batch)
        fresh = [
            choose_block_encoding(
                data[start : start + self.block_rows], dictionary_size=dictionary_size
            )
            for start in range(0, data.shape[0], self.block_rows)
        ]
        return ColumnEncoding(kept + tuple(fresh), self.block_rows, self.dtype)


def encode_array(
    data: np.ndarray,
    block_rows: int,
    *,
    dictionary_size: int | None = None,
    zones: "Sequence[ColumnZone] | None" = None,
) -> ColumnEncoding:
    """Encode a raw column array into fixed-width blocks."""
    blocks = [
        choose_block_encoding(
            data[start : start + block_rows],
            dictionary_size=dictionary_size,
            zone=zones[start // block_rows] if zones is not None else None,
        )
        for start in range(0, data.shape[0], block_rows)
    ]
    return ColumnEncoding(blocks, block_rows, data.dtype)


# ---------------------------------------------------------------------------
# Encoded columns
# ---------------------------------------------------------------------------
class EncodedColumn(Column):
    """A :class:`Column` backed by a :class:`ColumnEncoding`.

    Never-decode consumers (the compiled kernels, the run-fold aggregate
    path) reach the encoding through :attr:`encoding`/:attr:`offset`;
    everything else sees the plain :class:`Column` API with decode on
    demand.  Full decodes are memoised through a *weak* reference so a
    transient raw-path consumer (statistics, sort keys) does not
    permanently pin the raw array and forfeit the footprint win.

    ``offset``/``rows`` make zero-copy row slices (partitions) views over
    the parent encoding — the carry-forward that keeps partitioned and
    anytime execution on the encoded path.
    """

    def __init__(
        self,
        name: str,
        ctype: ColumnType,
        encoding: ColumnEncoding,
        dictionary: np.ndarray | None = None,
        offset: int = 0,
        rows: int | None = None,
    ) -> None:
        if not name:
            raise SchemaError("column name must be non-empty")
        if ctype is ColumnType.STRING and dictionary is None:
            raise SchemaError("STRING columns require a dictionary")
        if ctype is not ColumnType.STRING and dictionary is not None:
            raise SchemaError("only STRING columns carry a dictionary")
        self.name = name
        self.ctype = ctype
        self._dictionary = dictionary
        self._encoding = encoding
        self._offset = int(offset)
        self._rows = encoding.rows - self._offset if rows is None else int(rows)
        self._decoded: weakref.ref | None = None
        self._values_cache = None

    # -- encoded-path surface -------------------------------------------------
    @property
    def encoding(self) -> ColumnEncoding:
        return self._encoding

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def dtype(self) -> np.dtype:
        return self._encoding.dtype

    # -- Column API over lazy decode ------------------------------------------
    def __len__(self) -> int:
        return self._rows

    @property
    def data(self) -> np.ndarray:  # type: ignore[override]
        arr = self._decoded() if self._decoded is not None else None
        if arr is None:
            arr = self._encoding.decode_range(self._offset, self._offset + self._rows)
            self._decoded = weakref.ref(arr)
        return arr

    # The base class reads ``self._data``; route it through the lazy decode.
    @property
    def _data(self) -> np.ndarray:
        return self.data

    def data_range(self, start: int, stop: int) -> np.ndarray:
        return self._encoding.decode_range(self._offset + start, self._offset + stop)

    def take(self, indices: np.ndarray) -> Column:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and idx.min() < 0:
            idx = np.where(idx < 0, idx + self._rows, idx)
        decoded = self._decoded() if self._decoded is not None else None
        if decoded is not None:  # a live memoised decode beats any gather
            return Column(self.name, self.ctype, decoded[idx], self._dictionary)
        return Column(self.name, self.ctype, self._encoding.gather(idx + self._offset), self._dictionary)

    def filter(self, mask: np.ndarray) -> Column:
        return self.take(np.flatnonzero(mask))

    def slice_rows(self, start: int, stop: int) -> "EncodedColumn":
        start = max(0, min(start, self._rows))
        stop = max(start, min(stop, self._rows))
        return EncodedColumn(
            self.name,
            self.ctype,
            self._encoding,
            self._dictionary,
            offset=self._offset + start,
            rows=stop - start,
        )

    def rename(self, new_name: str) -> "EncodedColumn":
        return EncodedColumn(
            new_name, self.ctype, self._encoding, self._dictionary,
            offset=self._offset, rows=self._rows,
        )

    def append_values(self, values: Sequence) -> Column:
        """Append with incremental re-encode (complete blocks untouched)."""
        if len(values) == 0:
            return self
        if self._offset != 0 or self._rows != self._encoding.rows:
            # Appending to a sliced view has no callers; decode defensively.
            return Column(self.name, self.ctype, self.data, self._dictionary).append_values(values)
        dictionary = self._dictionary
        if self.ctype is ColumnType.STRING:
            assert dictionary is not None
            if isinstance(values, np.ndarray) and values.dtype == object:
                labels = values
            else:
                labels = np.asarray([str(v) for v in values], dtype=object)
            batch, dictionary = _dictionary_extend(dictionary, labels)
        elif self.ctype is ColumnType.INT:
            batch = np.asarray(values, dtype=np.int64)
        elif self.ctype is ColumnType.FLOAT:
            batch = np.asarray(values, dtype=np.float64)
        elif self.ctype is ColumnType.BOOL:
            batch = np.asarray(values, dtype=bool)
        else:  # pragma: no cover - the four types above are exhaustive
            raise SchemaError(f"unsupported column type {self.ctype}")
        dictionary_size = len(dictionary) if dictionary is not None else None
        extended = self._encoding.extend(batch, dictionary_size=dictionary_size)
        return EncodedColumn(self.name, self.ctype, extended, dictionary)


def pin_decoded(table: "Table") -> list[np.ndarray]:
    """Strong references to every encoded column's full decode.

    The weak memo on :attr:`EncodedColumn.data` dies as soon as the last
    consumer drops the array, so a burst of row-gathers against the same
    table (sample maintenance re-materializing every resolution from the
    grown base on each append) would re-decode each column once per
    gather.  Holding the returned list alive for the duration of the
    burst makes each column decode exactly once.
    """
    return [
        column.data
        for column in (table.column(name) for name in table.column_names)
        if isinstance(column, EncodedColumn)
    ]


def encode_column(column: Column, block_rows: int, zones=None) -> Column:
    """Encode one raw column (idempotent on already-encoded columns)."""
    if isinstance(column, EncodedColumn):
        return column
    dictionary = column.dictionary
    dictionary_size = len(dictionary) if dictionary is not None else None
    encoding = encode_array(
        column.data, block_rows, dictionary_size=dictionary_size, zones=zones
    )
    if all(block.kind == "raw" for block in encoding.blocks):
        # Nothing compressed: keep the plain column so scans pay zero
        # per-block indirection for layouts the encodings can't help.
        return column
    return EncodedColumn(column.name, column.ctype, encoding, dictionary)


def encode_table(table: "Table", block_rows: int) -> "Table":
    """A table whose columns are block-encoded (zone maps carried forward).

    The zone-map index at the same ``block_rows`` supplies per-block
    min/max/null statistics to the encoding chooser; it is built here if
    absent and stays valid for the encoded table because the data is
    bit-identical.
    """
    from repro.storage.table import Table

    if table.num_rows == 0:
        return table
    index = table.zone_map_index(block_rows)
    columns = []
    for name in table.column_names:
        column = table.column(name)
        zones = [block.zones[name] for block in index.blocks] if index is not None else None
        columns.append(encode_column(column, block_rows, zones=zones))
    encoded = Table(table.name, columns, table.schema)
    encoded._zone_indexes.update(table._zone_indexes)
    return encoded


def table_encoding_stats(table: "Table") -> dict[str, object] | None:
    """Compression summary for a table, or ``None`` if nothing is encoded."""
    raw_bytes = 0
    encoded_bytes = 0
    kinds: dict[str, int] = {}
    any_encoded = False
    for name in table.column_names:
        column = table.column(name)
        if isinstance(column, EncodedColumn):
            any_encoded = True
            raw_bytes += column.encoding.raw_bytes
            encoded_bytes += column.encoding.encoded_bytes
            for kind, count in column.encoding.kind_counts().items():
                kinds[kind] = kinds.get(kind, 0) + count
        else:
            nbytes = int(column.data.nbytes)
            raw_bytes += nbytes
            encoded_bytes += nbytes
    if not any_encoded:
        return None
    ratio = raw_bytes / encoded_bytes if encoded_bytes else 1.0
    return {
        "raw_bytes": raw_bytes,
        "encoded_bytes": encoded_bytes,
        "compression_ratio": ratio,
        "blocks": kinds,
    }


def describe_encoding_kinds(kinds: Mapping[str, int]) -> str:
    """Render ``{"rle": 12, "raw": 1}`` as ``"rle:12 raw:1"`` (sorted)."""
    return " ".join(f"{kind}:{count}" for kind, count in sorted(kinds.items()))
