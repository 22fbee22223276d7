"""Table 5 / Appendix A: storage overhead of stratified samples on Zipf data.

The paper tabulates the fraction of a Zipf-distributed table (maximum
frequency M = 10⁹) retained by a stratified sample ``S(φ, K)`` for Zipf
exponents s ∈ [1.0, 2.0] and caps K ∈ {10⁴, 10⁵, 10⁶}.  This benchmark
regenerates the full table analytically and additionally validates the
analytic model against an empirically constructed stratified sample on a
small synthetic Zipf table.
"""

from __future__ import annotations

import pytest

from benchmarks._report import print_header, print_table
from repro.sampling.skew import stratified_sample_rows, zipf_frequencies, zipf_storage_fraction

EXPONENTS = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
CAPS = (10_000, 100_000, 1_000_000)

#: The subset of Table 5 entries quoted verbatim in the paper's text/appendix.
PAPER_VALUES = {
    (1.0, 10_000): 0.49,
    (1.0, 100_000): 0.58,
    (1.0, 1_000_000): 0.69,
    (1.5, 10_000): 0.024,
    (1.5, 100_000): 0.052,
    (1.5, 1_000_000): 0.114,
    (2.0, 10_000): 0.0038,
    (2.0, 100_000): 0.012,
    (2.0, 1_000_000): 0.038,
}


def run_table5():
    rows = []
    for s in EXPONENTS:
        row = {"s": s}
        for cap in CAPS:
            row[f"K={cap:,}"] = round(zipf_storage_fraction(s, cap, max_frequency=1e9), 4)
        rows.append(row)
    return rows


def test_table5_storage_overhead():
    rows = run_table5()

    print_header("Table 5 — S(φ, K) storage as a fraction of the original Zipf(s) table")
    print_table(rows)

    by_key = {
        (row["s"], cap): row[f"K={cap:,}"] for row in rows for cap in CAPS
    }
    # 1. Match the paper's quoted entries to within 15%.
    for (s, cap), expected in PAPER_VALUES.items():
        assert by_key[(s, cap)] == pytest.approx(expected, rel=0.15), (s, cap)
    # 2. Monotonicity: storage grows with K and shrinks with the exponent.
    for s in EXPONENTS:
        values = [by_key[(s, cap)] for cap in CAPS]
        assert values == sorted(values)
    for cap in CAPS:
        values = [by_key[(s, cap)] for s in EXPONENTS]
        assert values == sorted(values, reverse=True)

    # 3. The analytic model agrees with an empirical stratified sample built on
    #    a small synthetic Zipf table (same formula, actual data).
    s, cap_small, num_values, total_rows = 1.5, 50, 2_000, 500_000
    frequencies = zipf_frequencies(num_values, s, total_rows)
    empirical_fraction = stratified_sample_rows(frequencies, cap_small) / total_rows
    analytic_fraction = zipf_storage_fraction(s, cap_small, max_frequency=float(frequencies[0]))
    assert empirical_fraction == pytest.approx(analytic_fraction, rel=0.35)
