"""HDFS-style block placement across simulated nodes.

The paper relies on HDFS to "spread those files across the nodes in a
cluster" (§2.2.1).  Placement here is round-robin with a deterministic
rotation per dataset, which matches HDFS's roughly uniform spread while
remaining reproducible.  Only the bytes each node ends up storing matter to
the simulator, so they are computed in closed form rather than by placing
block objects one at a time.
"""

from __future__ import annotations

from repro.storage.block import rows_per_block


def round_robin_bytes(
    num_rows: int,
    row_width_bytes: int,
    block_bytes: int,
    num_nodes: int,
    start_node: int = 0,
) -> list[int]:
    """Bytes stored on each node (indexed by node id) under round-robin placement.

    The dataset is cut into blocks as
    :func:`~repro.storage.block.split_into_blocks` cuts it — full blocks of
    :func:`~repro.storage.block.rows_per_block` rows and a possibly short
    last block — and block ``i`` goes to node ``(start_node + i) % num_nodes``.
    ``start_node`` rotates the assignment so different datasets do not all
    start on node 0 (mirrors HDFS picking a random first replica).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if num_rows < 0:
        raise ValueError("num_rows must be non-negative")
    per_block = rows_per_block(row_width_bytes, block_bytes)
    full_block_bytes = per_block * row_width_bytes
    num_blocks = -(-num_rows // per_block)
    rounds, extra = divmod(num_blocks, num_nodes)
    totals = [rounds * full_block_bytes] * num_nodes
    for offset in range(extra):
        totals[(start_node + offset) % num_nodes] += full_block_bytes
    if num_blocks:
        missing_rows = num_blocks * per_block - num_rows
        totals[(start_node + num_blocks - 1) % num_nodes] -= missing_rows * row_width_bytes
    return totals
