"""The physical query plan: the runtime's per-query decisions, reified.

A :class:`PhysicalPlan` binds a :class:`~repro.planner.logical.LogicalPlan`
to concrete execution choices: the sample family and resolution chosen by
the cost-based planner (with the Error-Latency-Profile rationale for the
choice), the partition layout when the query runs through the
partition-parallel pipeline, the pruned column list the executor will
materialize, and — for disjunctive queries — one bound sub-plan per
disjoint branch.  The exact baselines use the same type with a
full-resolution binding (``mode = EXACT``), so every answer path in the
system executes a plan.

:meth:`PhysicalPlan.render` produces the ``EXPLAIN`` text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.planner.logical import LogicalPlan, predicate_key
from repro.sql.ast import Predicate

if TYPE_CHECKING:  # pragma: no cover - type-only imports, avoids cycles
    from repro.runtime.selection import FamilySelection, ProbeResult
    from repro.runtime.sizing import ErrorLatencyProfile
    from repro.sampling.resolution import SampleResolution


class PlanMode(enum.Enum):
    """How a physical plan answers its query."""

    APPROXIMATE = "approximate"  # one sample resolution, serial staged execution
    EXACT = "exact"  # the full base table (baselines, query_exact)
    DISJUNCTIVE = "disjunctive"  # union of per-branch approximate plans


@dataclass(frozen=True)
class PartitionSpec:
    """The partition layout of a pipeline execution.

    ``num_partitions`` zero-copy row-range partitions are partial-aggregated
    (fanned over the runtime's thread pool) and merged in simulated-cluster
    completion order on ``sim_workers`` lanes; ``deadline_seconds`` cuts the
    merge for anytime answers.
    """

    num_partitions: int
    sim_workers: int
    scan_latency_seconds: float | None = None
    task_overhead_seconds: float = 0.0
    deadline_seconds: float | None = None
    reference_workers: int | None = None


@dataclass(frozen=True)
class ScanEstimate:
    """Zone-map based scan accounting of one plan — estimated, not measured.

    Produced by the planner from the chosen resolution's block zone maps
    without evaluating the predicate: how many blocks the compiled kernel is
    expected to *skip* outright, *take all* rows from without evaluation,
    or *evaluate*, plus the statistics-based selectivity estimate.  ELP
    sizing discounts predicted scan latencies by :attr:`scan_fraction`, and
    EXPLAIN surfaces the numbers.
    """

    blocks_total: int
    blocks_skipped: int
    blocks_take_all: int
    rows_total: int
    rows_skipped: int
    estimated_selectivity: float | None = None
    #: Compressed-execution footprint of the scanned table: logical bytes,
    #: resident encoded bytes, and the per-kind block mix (e.g. "rle:12
    #: raw:3").  Zero/empty when the table is stored raw.
    raw_bytes: int = 0
    encoded_bytes: int = 0
    encoding_kinds: str = ""

    @property
    def skip_fraction(self) -> float:
        """Estimated fraction of rows skipped without being read."""
        if self.rows_total == 0:
            return 0.0
        return self.rows_skipped / self.rows_total

    @property
    def scan_fraction(self) -> float:
        """Estimated fraction of rows that must actually be read."""
        return 1.0 - self.skip_fraction

    def describe(self) -> str:
        parts = [
            f"zone-blocks={self.blocks_total}",
            f"skipped~{self.blocks_skipped}",
        ]
        if self.blocks_take_all:
            parts.append(f"take-all~{self.blocks_take_all}")
        parts.append(f"rows-skipped~{self.rows_skipped:,} ({self.skip_fraction:.1%})")
        if self.estimated_selectivity is not None:
            parts.append(f"est-selectivity~{self.estimated_selectivity:.3f}")
        return " ".join(parts)

    @property
    def compression_ratio(self) -> float:
        """Logical-to-resident size ratio (1.0 when stored raw)."""
        if self.raw_bytes <= 0 or self.encoded_bytes <= 0:
            return 1.0
        return self.raw_bytes / self.encoded_bytes

    def describe_encoding(self) -> str | None:
        """One-line encoding summary, or ``None`` for raw storage."""
        if not self.encoding_kinds:
            return None
        return (
            f"{self.encoding_kinds}"
            f" resident~{self.encoded_bytes:,}B"
            f" of {self.raw_bytes:,}B"
            f" ({self.compression_ratio:.1f}x)"
        )


@dataclass(frozen=True)
class BranchPlan:
    """One disjoint OR branch of a disjunctive plan, fully bound."""

    branch: Predicate | None
    logical: LogicalPlan
    selection: "FamilySelection"
    probe: "ProbeResult"
    resolution: "SampleResolution"
    satisfied: bool


@dataclass(frozen=True)
class PhysicalPlan:
    """A logical plan bound to concrete execution choices."""

    logical: LogicalPlan
    mode: PlanMode
    #: Family selection outcome (None for EXACT plans).
    selection: "FamilySelection | None" = None
    #: The probe anchoring the ELP (None for EXACT plans).
    probe: "ProbeResult | None" = None
    #: The resolution the answer is computed on (None for EXACT plans).
    resolution: "SampleResolution | None" = None
    #: The full Error-Latency Profile, when one was built.
    profile: "ErrorLatencyProfile | None" = field(default=None, compare=False)
    #: Whether the chosen resolution is predicted to satisfy the bound.
    bound_satisfied: bool = True
    #: Whether the scan can be confined to the matching strata (§3.1).
    clustered_scan: bool = False
    #: Whether the execution is deadline-cut (anytime answer).
    anytime: bool = False
    #: Partition layout; None means serial single-partition execution.
    partitioning: PartitionSpec | None = None
    #: Columns the executor materializes (column pruning); () means all.
    pruned_columns: tuple[str, ...] = ()
    #: Zone-map scan accounting for the chosen resolution (None when the
    #: plan has no join-free WHERE).
    scan_estimate: ScanEstimate | None = None
    #: Per-branch plans of a DISJUNCTIVE plan.
    branch_plans: tuple[BranchPlan, ...] = ()
    #: Human-readable planner decisions, one line each (EXPLAIN rationale).
    rationale: tuple[str, ...] = ()

    @property
    def sample_rows(self) -> int | None:
        return self.resolution.num_rows if self.resolution is not None else None

    @property
    def family_key(self) -> tuple[str, ...] | None:
        if self.selection is None:
            return None
        return getattr(self.selection.family, "key", None)

    @property
    def probed_resolutions(self) -> tuple[str, ...]:
        if self.selection is None:
            return ()
        return tuple(p.resolution.name for p in self.selection.probes)

    # -- rendering (EXPLAIN) -------------------------------------------------------
    def render(self) -> str:
        """Multi-line EXPLAIN text: plan shape, bindings, and rationale."""
        lines = [f"PhysicalPlan [{self.mode.value}]"]
        lines.append(f"  logical: {self.logical.describe()}")
        lines.append(f"  fingerprint: {self.logical.fingerprint()}")
        if self.mode is PlanMode.DISJUNCTIVE:
            lines.append(f"  branches: {len(self.branch_plans)} (disjoint union)")
            for i, branch in enumerate(self.branch_plans):
                predicate = predicate_key(branch.branch) or "<all rows>"
                lines.append(f"  branch[{i}]: {predicate}")
                lines.append(
                    f"    family={_family_label(branch.selection)}"
                    f" reason={branch.selection.reason}"
                    f" resolution={branch.resolution.name}"
                    f" rows={branch.resolution.num_rows:,}"
                    f" satisfied={branch.satisfied}"
                )
        elif self.mode is PlanMode.EXACT:
            lines.append(f"  binding: full base table {self.logical.table!r} (exact)")
        else:
            assert self.selection is not None and self.resolution is not None
            lines.append(
                f"  family: {_family_label(self.selection)}"
                f" (reason={self.selection.reason})"
            )
            lines.append(
                f"  resolution: {self.resolution.name}"
                f" ({self.resolution.num_rows:,} rows)"
            )
            if self.profile is not None:
                for entry in self.profile:
                    marker = "->" if entry.name == self.resolution.name else "  "
                    lines.append(
                        f"    {marker} {entry.name}: rows={entry.resolution.num_rows:,}"
                        f" err~{_pct(entry.predicted_relative_error)}"
                        f" latency~{entry.predicted_latency_seconds:.3f}s"
                    )
        columns = ", ".join(self.pruned_columns) if self.pruned_columns else "<all>"
        scan = "clustered-strata" if self.clustered_scan else "full-sample"
        if self.mode is PlanMode.EXACT:
            scan = "full-table"
        lines.append(f"  scan: {scan}; columns: {columns}")
        if self.scan_estimate is not None:
            lines.append(f"  scan-estimate: {self.scan_estimate.describe()}")
            encoding = self.scan_estimate.describe_encoding()
            if encoding is not None:
                lines.append(f"  encoding: {encoding}")
        lines.append(f"  stages: {self._stages()}")
        if self.partitioning is not None:
            spec = self.partitioning
            deadline = (
                f", deadline={spec.deadline_seconds:g}s"
                if spec.deadline_seconds is not None
                else ""
            )
            lines.append(
                f"  partitions: {spec.num_partitions}"
                f" on {spec.sim_workers} simulated lanes{deadline}"
            )
        lines.append(
            f"  bound: {'satisfied' if self.bound_satisfied else 'NOT satisfied'}"
            + (" (anytime deadline-cut)" if self.anytime else "")
        )
        for line in self.rationale:
            lines.append(f"  * {line}")
        return "\n".join(lines)

    def _stages(self) -> str:
        stages = ["prune"]
        if self.logical.joins:
            stages.append("join")
        if self.logical.where is not None:
            stages.append("filter")
        if self.partitioning is not None:
            stages.append(f"partial-aggregate x{self.partitioning.num_partitions}")
            stages.append("merge")
        else:
            stages.append("aggregate")
        stages.append("estimate")
        return " -> ".join(stages)


@dataclass(frozen=True)
class ExplainResult:
    """What an ``EXPLAIN SELECT ...`` statement returns: a rendered plan.

    Carries the bound :class:`PhysicalPlan` for programmatic inspection and
    its rendered text for display; no query was executed to produce it.
    """

    plan: PhysicalPlan
    text: str

    def __str__(self) -> str:
        return self.text


def _family_label(selection: "FamilySelection") -> str:
    columns = getattr(selection.family, "columns", None)
    if columns:
        return f"stratified[{','.join(columns)}]"
    return "uniform"


def _pct(value: float) -> str:
    if value != value or value == float("inf"):  # NaN / unbounded
        return "unbounded"
    return f"{100.0 * value:.2f}%"
