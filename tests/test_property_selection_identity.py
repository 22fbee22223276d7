"""Count-first family selection picks what aggregating every family picked.

:class:`~repro.runtime.selection.SampleFamilySelector` counts the query's
matching rows on every family's smallest resolution and aggregates the query
on the winner's only.  The reference below is the selector as it was before
that split: it executed (filter, per-group fold, finalize) the query on
every family's smallest resolution, took the same count, and kept the
family with the highest rows-selected / rows-read ratio, ties going to the
fewest columns.  For statements drawn over the Conviva templates —
unbounded, ``ERROR WITHIN``, ``WITHIN``, a disjunctive ``WHERE`` and a free
``GROUP BY`` — on a facade before and after one append, both selectors must
agree on the family, the reason and every probed resolution's counts; on
the winner's rows, groups, worst error and aggregate; on the bound
resolution and whether it meets the bound; and the final answers must be
bit-identical.

Two catalogs are searched.  ``skewed`` is the suite's usual sessions shape,
where the strata outgrow the caps.  In ``tied`` every stratum fits under
the cap, so two stratified families hold every row of the table and their
ratios tie exactly: there the fewest-columns tie-break decides the family.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.core.blinkdb import BlinkDB
from repro.engine.executor import ExecutionContext, Plannable
from repro.net.protocol import encode_result
from repro.planner.logical import LogicalPlan
from repro.planner.physical import PlanMode
from repro.runtime.selection import FamilySelection, ProbeResult, SampleFamilySelector
from repro.sampling.family import StratifiedSampleFamily
from repro.sampling.resolution import SampleResolution
from repro.workloads.conviva import conviva_query_templates, generate_sessions_table
from repro.workloads.tracegen import instantiate_template

TABLE_SHAPE = dict(num_cities=40, num_countries=15, num_customers=100, num_dmas=20, num_asns=50)

#: name -> (table rows, largest cap, smallest cap, storage budget fraction)
CATALOGS = {
    "skewed": (20_000, 80, 10, 0.5),
    "tied": (3_000, 1_000, 1_000, 3.0),
}

DIMENSIONS = (
    "dt", "city", "customer", "dma", "country", "asn", "genre", "os", "browser", "endedflag",
)
AGGREGATES = ("COUNT(*)", "SUM(session_time)", "AVG(jointimems)")
SHAPES = ("unbounded", "error", "within", "disjunctive", "group_by")


# -- the reference: aggregate every family's smallest resolution ------------------------


class ExecuteEveryFamilySelector(SampleFamilySelector):
    """Selection as it ran before counting came first (unmemoized)."""

    def select_for_columns(
        self, plan: Plannable, columns: set[str], probe_on_miss: bool = True
    ) -> FamilySelection:
        plan = LogicalPlan.of(plan)
        families = self._all_families(plan.table)
        stratified = [
            f for f in families if isinstance(f, StratifiedSampleFamily) and f.covers(columns)
        ]
        if columns and stratified:
            best = min(stratified, key=lambda f: (len(f.columns), f.columns))
            return FamilySelection(family=best, reason="superset-match")
        if not columns:
            uniform = self._uniform_family(families)
            if uniform is not None:
                return FamilySelection(family=uniform, reason="no-filter-uniform")
        if not probe_on_miss:
            uniform = self._uniform_family(families)
            fallback = uniform if uniform is not None else families[0]
            return FamilySelection(family=fallback, reason="fallback-no-probe")

        probes: list[tuple[FamilySelection, ProbeResult]] = []
        for family in families:
            probe = self.probe(plan, family.smallest)
            probes.append((FamilySelection(family=family, reason="probe"), probe))
        best_selection, best_probe = max(
            probes,
            key=lambda item: (item[1].selectivity, -len(getattr(item[0].family, "columns", ()))),
        )
        return FamilySelection(
            family=best_selection.family,
            reason="probe-best-ratio",
            probe=best_probe,
            probes=tuple(p for _, p in probes),
        )

    def probe(self, plan: Plannable, resolution: SampleResolution) -> ProbeResult:
        plan = LogicalPlan.of(plan)
        context = ExecutionContext(
            weights=resolution.weights,
            exact=False,
            unit_weight_exact=False,
            rows_read=resolution.num_rows,
            population_read=resolution.represented_rows,
            sample_name=resolution.name,
        )
        result = self.executor.execute(plan, resolution.table, context)
        rows_matched = self.executor.count_matching(plan, resolution.table, record=False)
        return ProbeResult(
            resolution=resolution,
            rows_read=resolution.num_rows,
            rows_matched=rows_matched,
            result=result,
            num_groups=max(1, len(result.groups)),
        )


@contextmanager
def reference_selection(db: BlinkDB):
    """Plan with :class:`ExecuteEveryFamilySelector` while the block runs."""
    runtime = db.runtime
    current = runtime.planner.selector
    runtime.planner.selector = ExecuteEveryFamilySelector(db.catalog, runtime.executor)
    try:
        yield
    finally:
        runtime.planner.selector = current


# -- facades ---------------------------------------------------------------------------------


def _sessions(rows: int, seed: int):
    return generate_sessions_table(num_rows=rows, seed=seed, **TABLE_SHAPE)


def _facade(catalog: str) -> BlinkDB:
    rows, largest_cap, min_cap, budget = CATALOGS[catalog]
    db = BlinkDB(
        BlinkDBConfig(
            sampling=SamplingConfig(
                largest_cap=largest_cap, min_cap=min_cap, uniform_sample_fraction=0.1
            ),
            cluster=ClusterConfig(num_nodes=20),
        )
    )
    db.load_table(_sessions(rows, seed=7), simulated_rows=20_000_000)
    db.register_workload(templates=conviva_query_templates())
    db.build_samples(storage_budget_fraction=budget)
    return db


@pytest.fixture(scope="module", params=sorted(CATALOGS))
def facades(request) -> tuple[BlinkDB, BlinkDB]:
    """The catalog before and after one append (whose memo was warm at the append)."""
    before = _facade(request.param)
    after = _facade(request.param)
    for sql in (
        "SELECT COUNT(*) FROM sessions WHERE genre = 'drama' GROUP BY browser",
        "SELECT AVG(session_time) FROM sessions WHERE dt = 3 GROUP BY country",
    ):
        after.query(sql)
    source = _sessions(300, seed=99)
    after.append(
        "sessions", {name: list(source.column(name).values()) for name in source.column_names}
    )
    return before, after


# -- statements ------------------------------------------------------------------------------


def _literal(table, column: str, row: int) -> str:
    value = table.column(column).value_at(row % table.num_rows)
    return f"'{value}'" if isinstance(value, str) else str(value)


def render(spec: dict, table) -> str:
    """The SQL text of one drawn statement over ``table``'s values."""
    shape = spec["shape"]
    if shape in ("unbounded", "error", "within"):
        template = conviva_query_templates()[spec["template"]]
        return instantiate_template(
            template,
            table,
            np.random.default_rng(spec["seed"]),
            measure_columns=("session_time", "jointimems"),
            error_bound_percent=spec["error"] if shape == "error" else None,
            time_bound_seconds=spec["seconds"] if shape == "within" else None,
        )
    left, right = spec["columns"]
    rows = spec["rows"]
    if shape == "disjunctive":
        return (
            f"SELECT {spec['aggregate']} FROM sessions"
            f" WHERE {left} = {_literal(table, left, rows[0])}"
            f" OR {right} = {_literal(table, right, rows[1])}"
        )
    where = f" WHERE {left} = {_literal(table, left, rows[0])}" if spec["filtered"] else ""
    return f"SELECT {spec['aggregate']} FROM sessions{where} GROUP BY {right}"


statements = st.fixed_dictionaries(
    {
        "shape": st.sampled_from(SHAPES),
        "template": st.integers(0, len(conviva_query_templates()) - 1),
        "seed": st.integers(0, 2**32 - 1),
        "error": st.sampled_from([5.0, 10.0, 20.0]),
        "seconds": st.sampled_from([1.0, 5.0, 30.0]),
        "columns": st.tuples(st.sampled_from(DIMENSIONS), st.sampled_from(DIMENSIONS)),
        "rows": st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        "aggregate": st.sampled_from(AGGREGATES),
        "filtered": st.booleans(),
    }
)


# -- what must agree -------------------------------------------------------------------------


def _canonical(result) -> str:
    return json.dumps(encode_result(result), sort_keys=True)


def _binding(selection, probe, resolution, satisfied) -> dict:
    return {
        "family": selection.family.smallest.name,
        "reason": selection.reason,
        "probes": [(p.resolution.name, p.rows_read, p.rows_matched) for p in selection.probes],
        "winner": (
            probe.resolution.name,
            probe.rows_read,
            probe.rows_matched,
            probe.num_groups,
            repr(probe.worst_relative_error),
            _canonical(probe.result),
        ),
        "resolution": resolution.name,
        "satisfied": satisfied,
    }


def plan_facts(plan) -> dict:
    facts = {
        "mode": plan.mode.value,
        "probed_resolutions": plan.probed_resolutions,
        "bound_satisfied": plan.bound_satisfied,
    }
    if plan.mode is PlanMode.DISJUNCTIVE:
        facts["bindings"] = [
            _binding(b.selection, b.probe, b.resolution, b.satisfied) for b in plan.branch_plans
        ]
    elif plan.selection is not None:
        facts["bindings"] = [
            _binding(plan.selection, plan.probe, plan.resolution, plan.bound_satisfied)
        ]
    return facts


def plan_and_answer(db: BlinkDB, sql: str) -> tuple[dict, str]:
    return plan_facts(db.runtime.explain(sql)), _canonical(db.query(sql))


#: A statement no family covers whose winner, on the tied catalog, is
#: decided by the fewest-columns tie-break.
TIED = {
    "shape": "group_by",
    "template": 0,
    "seed": 0,
    "error": 10.0,
    "seconds": 5.0,
    "columns": ("dt", "browser"),
    "rows": (3, 0),
    "aggregate": "COUNT(*)",
    "filtered": True,
}


@settings(max_examples=60, deadline=None)
@given(spec=statements)
@example(spec=TIED)
def test_count_first_selection_matches_execute_every_family(facades, spec):
    for db in facades:
        sql = render(spec, db.catalog.table("sessions"))
        facts, answer = plan_and_answer(db, sql)
        with reference_selection(db):
            expected_facts, expected_answer = plan_and_answer(db, sql)
        assert facts == expected_facts, sql
        assert answer == expected_answer, sql


def test_tied_example_ties():
    # Keeps the pinned example meaningful: on the tied catalog, families with
    # different column counts reach the best ratio, and the one with fewer
    # columns is chosen.
    db = _facade("tied")
    selection = db.runtime.explain(render(TIED, db.catalog.table("sessions"))).selection
    assert selection.reason == "probe-best-ratio"
    columns = {
        family.smallest.name: len(getattr(family, "columns", ()))
        for _, family in db.catalog.iter_families("sessions")
    }
    best = selection.probe.selectivity
    tied = [p.resolution.name for p in selection.probes if p.selectivity == best]
    assert len({columns[name] for name in tied}) >= 2, tied
    assert columns[selection.probe.resolution.name] == min(columns[name] for name in tied)
