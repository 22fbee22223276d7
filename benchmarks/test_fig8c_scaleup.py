"""Fig. 8(c): query latency as a function of cluster size (scale-up).

The paper grows the cluster from 1 to 100 nodes while growing the data
proportionally (100 GB per node) and reports BlinkDB's query latency for two
workload suites — *selective* queries that touch a small slice of the data on
a few machines, and *bulk* queries that scan a sizeable sample across every
machine — each with the samples fully cached or entirely on disk.  Latencies
stay nearly flat (BlinkDB scales gracefully) and the cached/bulk gap is the
largest contributor.
"""

from __future__ import annotations

from benchmarks._report import print_header, print_table
from repro.cluster.cost_model import CostModel
from repro.common.config import ClusterConfig
from repro.common.units import GB

CLUSTER_SIZES = (1, 20, 40, 60, 80, 100)
DATA_PER_NODE_BYTES = 100 * GB
#: Fraction of the per-node data a bulk query's chosen sample scans (the
#: sample resolution BlinkDB picks for a "crunch everything" query).
BULK_SAMPLE_FRACTION = 0.015
#: Bytes a selective query touches in total (a few HDFS blocks), regardless of
#: cluster size.
SELECTIVE_BYTES = 2 * GB


def run_scaleup():
    rows = []
    for num_nodes in CLUSTER_SIZES:
        cluster = ClusterConfig(num_nodes=num_nodes)
        model = CostModel(cluster)
        data_bytes = num_nodes * DATA_PER_NODE_BYTES
        bulk_bytes = int(data_bytes * BULK_SAMPLE_FRACTION)
        selective_bytes = min(SELECTIVE_BYTES, data_bytes)

        latencies = {
            "selective_cached": model.estimate(selective_bytes, cached_fraction=1.0,
                                               output_groups=10).total_seconds,
            "selective_disk": model.estimate(selective_bytes, cached_fraction=0.0,
                                             output_groups=10).total_seconds,
            "bulk_cached": model.estimate(bulk_bytes, cached_fraction=1.0,
                                          output_groups=10).total_seconds,
            "bulk_disk": model.estimate(bulk_bytes, cached_fraction=0.0,
                                        output_groups=10).total_seconds,
        }
        rows.append({"nodes": num_nodes, **{k: round(v, 2) for k, v in latencies.items()}})
    return rows


def test_fig8c_scaleup():
    rows = run_scaleup()

    print_header("Fig. 8(c) — query latency (s) vs cluster size (100 GB of data per node)")
    print_table(rows)

    multi_node = [row for row in rows if row["nodes"] >= 20]

    # 1. Cached samples are read faster than on-disk samples for both suites.
    for row in multi_node:
        assert row["bulk_cached"] < row["bulk_disk"]
        assert row["selective_cached"] <= row["selective_disk"]

    # 2. Latency stays nearly flat as data and cluster grow together: the
    #    largest multi-node latency of each series is within a small factor of
    #    the smallest (the paper's "scales gracefully" claim).
    for series in ("selective_cached", "selective_disk", "bulk_cached", "bulk_disk"):
        values = [row[series] for row in multi_node]
        assert max(values) <= max(4.0 * min(values), min(values) + 5.0)

    # 3. Bulk queries on disk are the slowest suite, selective cached the fastest.
    for row in multi_node:
        assert row["bulk_disk"] >= row["selective_cached"]
    # 4. Everything stays interactive (well under a minute), as in the figure.
    assert all(row[s] < 30 for row in multi_node for s in
               ("selective_cached", "selective_disk", "bulk_cached", "bulk_disk"))
