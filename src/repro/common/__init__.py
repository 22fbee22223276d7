"""Shared utilities used across every BlinkDB subsystem.

The :mod:`repro.common` package holds the pieces that do not belong to any one
subsystem: the exception hierarchy, configuration objects, deterministic
random-number helpers, and unit conversions.  Everything here is deliberately
dependency-free (NumPy only) so that any other package can import it without
creating cycles.
"""

from repro.common.clock import CLOCK, Clock, ManualClock, MonotonicClock, monotonic
from repro.common.config import BlinkDBConfig, ClusterConfig, SamplingConfig
from repro.common.errors import (
    BlinkDBError,
    CatalogError,
    ConstraintUnsatisfiableError,
    ExecutionError,
    OptimizationError,
    ParseError,
    PlanningError,
    SampleNotFoundError,
    SchemaError,
)
from repro.common.rng import derive_rng, make_rng
from repro.common.units import (
    GB,
    KB,
    MB,
    TB,
    format_bytes,
    format_duration,
    parse_size,
)

__all__ = [
    "CLOCK",
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "monotonic",
    "BlinkDBConfig",
    "ClusterConfig",
    "SamplingConfig",
    "BlinkDBError",
    "CatalogError",
    "ConstraintUnsatisfiableError",
    "ExecutionError",
    "OptimizationError",
    "ParseError",
    "PlanningError",
    "SampleNotFoundError",
    "SchemaError",
    "make_rng",
    "derive_rng",
    "KB",
    "MB",
    "GB",
    "TB",
    "format_bytes",
    "format_duration",
    "parse_size",
]
