"""The unified metrics registry: one labeled namespace over every counter.

:class:`MetricsRegistry` holds named instruments with two exposition
formats:

* ``db.metrics()`` — a JSON-friendly nested dict (dashboards, tests);
* ``db.metrics_text()`` — Prometheus-style text exposition
  (``# HELP`` / ``# TYPE`` headers, ``name{label="value"} 1.23`` samples).

Instruments are **labeled**: one :class:`LabeledCounter` named
``queries_total`` holds a child per label set (``mode="approximate"``,
``mode="exact"`` …), exactly like a Prometheus client.  Instruments with no
label names hold a single anonymous child.  Hot paths resolve their child
once (``counter.child(service="s1", state="completed")``) and update the
bound handle, which costs one uncontended lock and no label lookup; the
query service keeps its counters and latency windows this way.

Surfaces whose owners keep their own counters (runtime lifetime stats,
per-table ingest counters, the tracer, the accuracy ledger) are read by
**collectors** — callbacks registered with
:meth:`MetricsRegistry.register_collector` that refresh gauges at
exposition time, adding nothing to the paths that increment them.

Everything is thread-safe: creation races resolve to one instrument, and
each instrument guards its children map with its own lock (hammered by
``tests/test_obs_metrics.py``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable, Mapping

LabelValues = tuple[tuple[str, str], ...]


def _label_key(labelnames: tuple[str, ...], labels: Mapping[str, object]) -> LabelValues:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


def _render_labels(key: LabelValues) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Instrument:
    """Shared labeled-children machinery: one child object per label set.

    :meth:`child` resolves (get-or-create) the handle for one label set; hot
    paths resolve it once and keep it, so each update costs the child's own
    lock and no label lookup.  :meth:`remove` retires a source's series.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[LabelValues, object] = {}

    def _new_child(self):
        raise NotImplementedError

    def child(self, **labels: object):
        """The child for one label set, created on first use."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def remove(self, **labels: object) -> None:
        """Drop every child whose label set includes ``labels`` (all if none).

        Handles already resolved keep working but are no longer exposed; the
        next :meth:`child` call for a removed label set starts from zero.
        """
        match = {(name, str(value)) for name, value in labels.items()}
        with self._lock:
            for key in [key for key in self._children if match <= set(key)]:
                del self._children[key]

    def _items(self) -> list[tuple[LabelValues, object]]:
        with self._lock:
            return sorted(self._children.items())

    def _header(self, full: str) -> list[str]:
        lines = [f"# HELP {full} {self.help}"] if self.help else []
        lines.append(f"# TYPE {full} {self.kind}")
        return lines


class _Cell:
    """One label set's value, guarded so concurrent updates are never lost."""

    __slots__ = ("_lock", "_value")

    def __init__(self, initial: float = 0) -> None:
        self._lock = threading.Lock()
        self._value = initial

    def _add(self, amount: float) -> float:
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> float:
        return self._value


class CounterChild(_Cell):
    """A bound counter handle (see :meth:`LabeledCounter.child`)."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> float:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        return self._add(amount)


class GaugeChild(_Cell):
    """A bound gauge handle (see :meth:`LabeledGauge.child`)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> float:
        return self._add(amount)


class _Scalar(_Instrument):
    """Counters and gauges: one number per label set."""

    def value(self, **labels: object) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
        return child.value if child is not None else 0.0

    def samples(self) -> list[tuple[LabelValues, float]]:
        return [(key, child.value) for key, child in self._items()]

    def describe(self) -> dict[str, object]:
        samples = self.samples()
        if not self.labelnames:
            return {"value": samples[0][1] if samples else 0.0}
        return {
            "series": [
                {"labels": dict(key), "value": value} for key, value in samples
            ]
        }

    def render(self, prefix: str) -> list[str]:
        full = f"{prefix}{self.name}"
        lines = self._header(full)
        samples = self.samples()
        if not samples and not self.labelnames:
            # An unlabeled instrument always has a current value (zero); a
            # labeled one with no children has no series to expose yet.
            samples = [((), 0.0)]
        for key, value in samples:
            lines.append(f"{full}{_render_labels(key)} {_format_value(value)}")
        return lines


class LabeledCounter(_Scalar):
    """A monotonically increasing counter with one child per label set."""

    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild()

    def inc(self, amount: float = 1, **labels: object) -> float:
        return self.child(**labels).inc(amount)


class LabeledGauge(_Scalar):
    """A last-value gauge with one child per label set."""

    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild(0.0)

    def set(self, value: float, **labels: object) -> None:
        self.child(**labels).set(value)

    def inc(self, amount: float = 1, **labels: object) -> float:
        return self.child(**labels).inc(amount)


def percentile_of(values: Iterable[float], fraction: float) -> float:
    """The ``fraction``-quantile (nearest-rank) of a collection of values.

    The element at index ``round(fraction * (n - 1))`` of the sorted values;
    ``0.0`` for an empty collection.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be in [0, 1]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))]


class SummaryWindow:
    """Observations with exact quantiles over a sliding window (thread-safe).

    ``count`` and ``mean_s`` cover the whole lifetime; the quantiles and
    ``max_s`` describe the most recent ``window`` observations, and the
    lifetime maximum is reported separately as ``max_lifetime_s`` so a
    dashboard can tell "slow lately" apart from "slow once, ever".
    """

    __slots__ = ("_lock", "_window", "_count", "_total", "_max")

    def __init__(self, window: int = 8192) -> None:
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        with self._lock:
            self._window.append(seconds)
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def summary(self) -> dict[str, float]:
        with self._lock:
            count = self._count
            mean = self._total / count if count else 0.0
            lifetime_max = self._max
            ordered = sorted(self._window)
        return {
            "count": count,
            "mean_s": mean,
            "p50_s": percentile_of(ordered, 0.50),
            "p90_s": percentile_of(ordered, 0.90),
            "p95_s": percentile_of(ordered, 0.95),
            "p99_s": percentile_of(ordered, 0.99),
            "max_s": ordered[-1] if ordered else 0.0,
            "max_lifetime_s": lifetime_max,
        }


class LabeledHistogram(_Instrument):
    """Windowed quantiles per label set (Prometheus summary shape)."""

    kind = "summary"

    _QUANTILES = (("0.5", "p50_s"), ("0.9", "p90_s"), ("0.95", "p95_s"), ("0.99", "p99_s"))

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        window: int = 8192,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.window = window

    def _new_child(self) -> SummaryWindow:
        return SummaryWindow(window=self.window)

    def observe(self, seconds: float, **labels: object) -> None:
        self.child(**labels).observe(seconds)

    def summaries(self) -> list[tuple[LabelValues, dict[str, float]]]:
        return [(key, window.summary()) for key, window in self._items()]

    def describe(self) -> dict[str, object]:
        summaries = self.summaries()
        if not self.labelnames:
            return summaries[0][1] if summaries else {}
        return {
            "series": [
                {"labels": dict(key), **summary} for key, summary in summaries
            ]
        }

    def render(self, prefix: str) -> list[str]:
        full = f"{prefix}{self.name}"
        lines = self._header(full)
        for key, summary in self.summaries():
            for quantile, source in self._QUANTILES:
                qkey = key + (("quantile", quantile),)
                lines.append(
                    f"{full}{_render_labels(qkey)} {_format_value(summary[source])}"
                )
            mean = summary["mean_s"]
            count = int(summary["count"])
            lines.append(f"{full}_count{_render_labels(key)} {count}")
            lines.append(
                f"{full}_sum{_render_labels(key)} {_format_value(mean * count)}"
            )
        return lines


Collector = Callable[[], None]


class MetricsRegistry:
    """Named, labeled instruments plus pull-collectors, in one namespace."""

    def __init__(self, namespace: str = "blinkdb") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._instruments: dict[str, LabeledCounter | LabeledGauge | LabeledHistogram] = {}
        self._collectors: dict[object, Collector] = {}

    # -- instrument creation (get-or-create, type-checked) -----------------------
    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> LabeledCounter:
        return self._get_or_create(LabeledCounter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> LabeledGauge:
        return self._get_or_create(LabeledGauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames: Iterable[str] = (), window: int = 8192
    ) -> LabeledHistogram:
        return self._get_or_create(LabeledHistogram, name, help, labelnames, window=window)

    def _get_or_create(self, cls, name: str, help: str, labelnames: Iterable[str], **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, labelnames, **kwargs)
                self._instruments[name] = instrument
                return instrument
        if not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        if instrument.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels {instrument.labelnames}"
            )
        return instrument

    def get(self, name: str):
        with self._lock:
            return self._instruments.get(name)

    # -- collectors (absorption of pre-existing surfaces) ------------------------
    def register_collector(self, collector: Collector, key: object | None = None) -> None:
        """Add a callback that refreshes mirrored instruments at exposition.

        ``key`` makes registration idempotent: a collector registered under
        the same key replaces the previous one (re-registering a source is a
        refresh, not a duplication).
        """
        with self._lock:
            self._collectors[key if key is not None else collector] = collector

    def collect(self) -> None:
        """Run every collector (collector errors must not break exposition)."""
        with self._lock:
            collectors = list(self._collectors.values())
        for collector in collectors:
            try:
                collector()
            except Exception:  # noqa: BLE001 - a dead source loses its gauges only
                pass

    # -- exposition ---------------------------------------------------------------
    def describe(self, collect: bool = True) -> dict[str, object]:
        """JSON exposition: ``{name: {kind, help, value/series}}``."""
        if collect:
            self.collect()
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {
            name: {"kind": instrument.kind, "help": instrument.help, **instrument.describe()}
            for name, instrument in instruments
        }

    def render_text(self, collect: bool = True) -> str:
        """Prometheus-style text exposition (one sample line per child)."""
        if collect:
            self.collect()
        with self._lock:
            instruments = sorted(self._instruments.items())
        prefix = f"{self.namespace}_" if self.namespace else ""
        lines: list[str] = []
        for _, instrument in instruments:
            lines.extend(instrument.render(prefix))
        return "\n".join(lines) + ("\n" if lines else "")
