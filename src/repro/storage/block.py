"""HDFS-like block abstraction.

The paper partitions each sample "into many small files" and relies on HDFS
block placement to spread them across the cluster (§2.2.1, Fig. 4).  Blocks
are also the unit of the nested multi-resolution layout: the physical blocks
of a smaller sample are a prefix of the blocks of the next-larger sample, so
intermediate data computed while probing a small sample can be reused when
the query is re-run on a larger one (§4.4).

A :class:`Block` itself is pure metadata — a row range within a logical
dataset plus an estimated byte size — which is what the cluster simulator
consumes to model scan parallelism and locality.  :class:`TablePartition`
attaches a block to the in-memory :class:`~repro.storage.table.Table` that
holds its rows: a zero-copy view of the block's row range (and of the
aligned per-row weights), which is the unit of work of the
partition-parallel execution pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.storage.table import Table
    from repro.storage.zonemaps import ColumnZone


@dataclass(frozen=True)
class Block:
    """A contiguous range of rows of a logical dataset.

    Attributes
    ----------
    dataset:
        Name of the dataset (table or sample) this block belongs to.
    index:
        Position of the block within the dataset (0-based).
    row_start, row_end:
        Half-open row range ``[row_start, row_end)`` covered by the block.
    size_bytes:
        Estimated serialized size of the block.
    zones:
        Optional per-column zone maps (min/max/null-count/distinct estimate)
        of the block's rows, attached by :meth:`BlockSet.with_zones`.
        Metadata only — excluded from equality so annotated and bare blocks
        still compare as the same row range.
    """

    dataset: str
    index: int
    row_start: int
    row_end: int
    size_bytes: int
    zones: "Mapping[str, ColumnZone] | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.row_end < self.row_start:
            raise ValueError("block row range is inverted")
        if self.size_bytes < 0:
            raise ValueError("block size must be non-negative")

    @property
    def num_rows(self) -> int:
        return self.row_end - self.row_start


class BlockSet:
    """An ordered collection of blocks belonging to one logical dataset."""

    def __init__(self, dataset: str, blocks: Sequence[Block]) -> None:
        self.dataset = dataset
        self._blocks = list(blocks)
        for i, block in enumerate(self._blocks):
            if block.dataset != dataset:
                raise ValueError(
                    f"block {i} belongs to dataset {block.dataset!r}, expected {dataset!r}"
                )

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __getitem__(self, index: int) -> Block:
        return self._blocks[index]

    @property
    def total_bytes(self) -> int:
        return sum(b.size_bytes for b in self._blocks)

    @property
    def total_rows(self) -> int:
        return sum(b.num_rows for b in self._blocks)

    def prefix_covering_rows(self, num_rows: int) -> "BlockSet":
        """The smallest block prefix covering at least ``num_rows`` rows.

        This models Fig. 4: a smaller logical sample maps onto a prefix of the
        physical blocks of the larger sample in the same family.
        """
        selected: list[Block] = []
        covered = 0
        for block in self._blocks:
            if covered >= num_rows:
                break
            selected.append(block)
            covered += block.num_rows
        return BlockSet(self.dataset, selected)

    def with_zones(self, table: "Table") -> "BlockSet":
        """A copy of this block set with per-column zone maps on every block.

        ``table`` must hold the rows the blocks describe.  For callers that
        split once and reuse the blocks, the executor's partition triage
        consults the attached zones for a one-shot whole-partition skip
        check; the per-query pipeline paths instead use the table's cached
        :meth:`~repro.storage.table.Table.zone_map_index` (annotating a
        fresh split per query would re-scan the data the index already
        summarizes).
        """
        from repro.storage.zonemaps import zones_for_range

        annotated = [
            replace(block, zones=zones_for_range(table, block.row_start, block.row_end))
            for block in self._blocks
        ]
        return BlockSet(self.dataset, annotated)

    def difference(self, other: "BlockSet") -> "BlockSet":
        """Blocks in ``self`` that are not present in ``other``.

        Used to model intermediate-data reuse (§4.4): when a query moves from
        a smaller sample to a larger one in the same family, only the
        *additional* blocks need to be scanned.
        """
        other_keys = {(b.dataset, b.index) for b in other}
        remaining = [b for b in self._blocks if (b.dataset, b.index) not in other_keys]
        return BlockSet(self.dataset, remaining)


@dataclass(frozen=True)
class TablePartition:
    """One block's rows of a table, as a zero-copy view.

    ``table`` materialises the block's row range of ``source`` by slicing
    every column's backing array — NumPy basic slices, so no row data is
    copied.  ``weights`` is the aligned slice of the per-row weights when the
    source rows carry any (``None`` otherwise).
    """

    source: "Table"
    block: Block
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.block.row_end > self.source.num_rows:
            raise ValueError(
                f"block rows [{self.block.row_start}, {self.block.row_end}) exceed "
                f"table {self.source.name!r} with {self.source.num_rows} rows"
            )

    @property
    def index(self) -> int:
        return self.block.index

    @property
    def num_rows(self) -> int:
        return self.block.num_rows

    @property
    def size_bytes(self) -> int:
        return self.block.size_bytes

    @property
    def table(self) -> "Table":
        return self.source.slice_rows(self.block.row_start, self.block.row_end)

    @property
    def zones(self) -> "Mapping[str, ColumnZone] | None":
        """The block's zone maps, when they were attached at split time."""
        return self.block.zones


def split_into_row_ranges(dataset: str, num_rows: int, num_partitions: int) -> BlockSet:
    """Split ``num_rows`` rows into ``num_partitions`` near-equal row ranges.

    The row-count-based sibling of :func:`split_into_blocks`, used when the
    caller wants an exact partition count (e.g. one partition per pipeline
    worker) rather than a byte-sized block.  ``size_bytes`` is left at the
    per-row granularity of one byte so relative sizes stay meaningful.
    """
    if num_rows < 0:
        raise ValueError("num_rows must be non-negative")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    num_partitions = min(num_partitions, max(1, num_rows))
    edges = np.linspace(0, num_rows, num_partitions + 1).astype(int)
    blocks = [
        Block(
            dataset=dataset,
            index=i,
            row_start=int(start),
            row_end=int(end),
            size_bytes=int(end - start),
        )
        for i, (start, end) in enumerate(zip(edges[:-1], edges[1:]))
        if end > start
    ]
    if not blocks:
        blocks = [Block(dataset=dataset, index=0, row_start=0, row_end=num_rows,
                        size_bytes=num_rows)]
    return BlockSet(dataset, blocks)


def rows_per_block(row_width_bytes: int, block_bytes: int) -> int:
    """Rows in each full block: as many as fit in ``block_bytes``, at least one."""
    if row_width_bytes <= 0:
        raise ValueError("row_width_bytes must be positive")
    if block_bytes <= 0:
        raise ValueError("block_bytes must be positive")
    return max(1, block_bytes // row_width_bytes)


def split_into_blocks(
    dataset: str,
    num_rows: int,
    row_width_bytes: int,
    block_bytes: int,
) -> BlockSet:
    """Split a dataset of ``num_rows`` rows into blocks of about ``block_bytes``.

    The last block may be smaller.  A dataset with zero rows produces an
    empty block set.
    """
    if num_rows < 0:
        raise ValueError("num_rows must be non-negative")
    per_block = rows_per_block(row_width_bytes, block_bytes)
    blocks: list[Block] = []
    start = 0
    index = 0
    while start < num_rows:
        end = min(start + per_block, num_rows)
        blocks.append(
            Block(
                dataset=dataset,
                index=index,
                row_start=start,
                row_end=end,
                size_bytes=(end - start) * row_width_bytes,
            )
        )
        start = end
        index += 1
    return BlockSet(dataset, blocks)
