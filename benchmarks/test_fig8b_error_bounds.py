"""Fig. 8(b): actual vs. requested relative error.

The paper sweeps the requested error bound from 2% to 32% over a set of
Conviva queries and shows that the measured error (against the exact answer)
is almost always at or below the requested bound, approaching it as the bound
loosens (smaller samples).
"""

from __future__ import annotations

import math

from benchmarks._report import print_header, print_table
from repro.workloads.tracegen import generate_trace

ERROR_BOUNDS = (0.02, 0.04, 0.08, 0.16, 0.32)
NUM_QUERIES = 12


def _measured_error(approx, exact) -> float | None:
    """Worst per-group deviation from the exact answer, relative to the truth."""
    errors = []
    for group in exact.groups:
        if not approx.has_group(group.key):
            continue
        for name, exact_value in group.aggregates.items():
            if name not in approx.group(group.key).aggregates:
                continue
            truth = exact_value.value
            estimate = approx.group(group.key).aggregates[name].value
            if truth == 0 or not math.isfinite(estimate):
                continue
            errors.append(abs(estimate - truth) / abs(truth))
    return max(errors) if errors else None


def run_error_bound_sweep(db, table):
    from benchmarks.test_fig8a_time_bounds import covered_templates

    base_queries = generate_trace(
        covered_templates(db),
        table,
        num_queries=NUM_QUERIES,
        seed=43,
        measure_columns=("session_time",),
    )
    rows = []
    for bound in ERROR_BOUNDS:
        measured = []
        satisfied = 0
        for sql in base_queries:
            approx = db.query(f"{sql} ERROR WITHIN {bound * 100:g}% AT CONFIDENCE 95%")
            exact = db.query_exact(sql)
            error = _measured_error(approx, exact)
            if error is None:
                continue
            measured.append(error)
            if approx.metadata["decision"].bound_satisfied:
                satisfied += 1
        rows.append(
            {
                "requested_error_%": bound * 100,
                "min_actual_%": round(100 * min(measured), 2),
                "avg_actual_%": round(100 * sum(measured) / len(measured), 2),
                "max_actual_%": round(100 * max(measured), 2),
                "declared_satisfiable": satisfied,
            }
        )
    return rows


def test_fig8b_relative_error_bounds(conviva_db, conviva_table):
    rows = run_error_bound_sweep(conviva_db, conviva_table)

    print_header("Fig. 8(b) — actual vs requested relative error (Conviva queries)")
    print_table(rows)

    # Shape checks: on average the measured error respects the requested
    # bound once the bound is within reach of the available samples, and the
    # average measured error grows as the requested bound loosens (smaller
    # samples are chosen), mirroring the paper's "measured error approaches
    # the bound at higher error rates".
    loose = [row for row in rows if row["requested_error_%"] >= 8]
    for row in loose:
        assert row["avg_actual_%"] <= row["requested_error_%"] * 1.25
    averages = [row["avg_actual_%"] for row in rows]
    assert averages[-1] >= averages[0]
