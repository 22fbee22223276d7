"""Simulated cluster substrate.

The paper evaluates BlinkDB on a 100-node EC2 cluster storing 17 TB of data on
HDFS, executed by Hive on Hadoop MapReduce or Shark (Hive on Spark).  This
package is the stand-in for that hardware: it models nodes (cores, memory,
disk), HDFS-style block placement across nodes, and a latency cost model for
scanning, shuffling, and aggregating data with a given degree of parallelism.

The cost model is deliberately first-order — latency is dominated by bytes
scanned divided by per-node bandwidth, plus task scheduling overheads and a
shuffle term — because those are exactly the effects the paper's latency
numbers reflect (§6.2, §6.5).
"""

from repro.cluster.cost_model import CostModel, ScanEstimate, StorageTier
from repro.cluster.node import Node
from repro.cluster.placement import round_robin_bytes
from repro.cluster.simulator import ClusterSimulator, SimulatedExecution

__all__ = [
    "CostModel",
    "ScanEstimate",
    "StorageTier",
    "Node",
    "round_robin_bytes",
    "ClusterSimulator",
    "SimulatedExecution",
]
