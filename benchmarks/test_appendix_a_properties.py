"""Appendix A (Lemmas A.1 / A.2): sub-optimality bounds of the discrete family.

Because a family only stores resolutions with caps ``K_i = ⌊K₁/cⁱ⌋``, a query
whose *optimal* cap is ``K_opt`` must run on the nearest stored resolution.
The paper proves that

* (A.1) for an error-constrained query, the chosen resolution's response time
  is within a factor ``c + 1/K_opt`` of the optimum (rows read scale the same
  way under the I/O-bound assumption), and
* (A.2) for a time-constrained query, the standard deviation grows by at most
  ``1/√(1/c − 1/K_opt)``.

This benchmark sweeps K_opt across a built family and verifies both bounds
using rows read as the response-time proxy and the ``1/√K`` error scaling.
"""

from __future__ import annotations

import math

import numpy as np
from benchmarks._report import print_header, print_table
from repro.common.config import SamplingConfig
from repro.sampling.family import StratifiedSampleFamily
from repro.workloads.conviva import generate_sessions_table

RATIO = 2.0


def run_property_sweep():
    table = generate_sessions_table(num_rows=60_000, seed=11, num_cities=40)
    config = SamplingConfig(largest_cap=800, min_cap=25, resolution_ratio=RATIO)
    family = StratifiedSampleFamily.build(table, ("city",), config)
    caps = sorted(family.caps)

    rng = np.random.default_rng(3)
    k_opts = sorted(rng.integers(caps[0], caps[-1], size=12).tolist())
    rows = []
    for k_opt in k_opts:
        # Error-constrained path: the smallest stored cap ≥ K_opt (lemma A.1).
        chosen_error = family.smallest_cap_at_least(k_opt)
        time_factor = chosen_error.cap / k_opt
        time_bound = RATIO + 1.0 / k_opt

        # Time-constrained path: the largest stored cap ≤ K_opt (lemma A.2).
        chosen_time = family.largest_cap_at_most(k_opt)
        error_factor = math.sqrt(k_opt / chosen_time.cap)
        error_bound = 1.0 / math.sqrt(1.0 / RATIO - 1.0 / k_opt)

        rows.append(
            {
                "K_opt": k_opt,
                "cap_for_error_bound": chosen_error.cap,
                "time_factor": round(time_factor, 3),
                "time_factor_bound": round(time_bound, 3),
                "cap_for_time_bound": chosen_time.cap,
                "error_factor": round(error_factor, 3),
                "error_factor_bound": round(error_bound, 3),
            }
        )
    return rows


def test_appendix_a_suboptimality_bounds():
    rows = run_property_sweep()

    print_header("Appendix A — discrete-resolution sub-optimality factors vs proven bounds")
    print_table(rows)

    for row in rows:
        assert row["time_factor"] <= row["time_factor_bound"] + 1e-9, row
        assert row["error_factor"] <= row["error_factor_bound"] + 1e-9, row
