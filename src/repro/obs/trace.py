"""Query-lifecycle span tracing.

One query's path through the system — admission wait, planning, family
selection, resolution sizing, partition dispatch, kernel triage, merge,
estimation — becomes a tree of timed :class:`Span` nodes rooted at a
:class:`QueryTrace`.  The tree is attached to the answer under
``result.metadata["trace"]`` and rendered by ``EXPLAIN ANALYZE``.

Design constraints, in order:

* **The untraced hot path must stay near-free.**  :meth:`SpanTracer.begin`
  makes one deterministic sampling decision; when the query is not sampled it
  returns the shared :data:`NULL_TRACE`, whose spans are a no-op singleton —
  no allocation, no clock reads, no locking.  The overhead benchmark
  (``benchmarks/test_tracing_overhead.py``) holds this to a budget.
* **Span trees must survive the partition pipeline's thread fan-out.**
  Parentage is *explicit* (``parent.span("child")``), never thread-local:
  partial-aggregation workers run on a shared pool whose threads interleave
  spans of many concurrent queries, so an implicit "current span" would
  mis-attach children.  The pipeline captures its dispatch span and opens
  per-partition children from inside the worker threads; the per-trace lock
  makes the concurrent appends safe.
* **Trees are inspectable, not just printable.**  ``find``/``spans`` walk the
  tree, ``to_dict`` is JSON-friendly, ``render`` is the human view.

Sampling is counted rather than random: at rate ``r`` the first ``n``
unforced ``begin()`` calls trace exactly ``floor(round(r * n, 9))`` of them,
evenly spaced, which keeps tests and benchmarks deterministic.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator

from repro.common.clock import Clock, monotonic


class Span:
    """One timed operation in a query's lifecycle (a context manager).

    Children are opened with :meth:`span` — from any thread — and close
    before their parent in the non-error path, so a finished tree satisfies
    the nesting invariant ``parent.start <= child.start`` and
    ``child.end <= parent.end`` (property-tested in
    ``tests/test_obs_trace.py``).
    """

    __slots__ = ("name", "attrs", "start_s", "end_s", "thread", "children", "_trace")

    def __init__(self, name: str, trace: "QueryTrace", start_s: float, **attrs: object) -> None:
        self.name = name
        self.attrs: dict[str, object] = dict(attrs)
        self.start_s = start_s
        self.end_s: float | None = None
        self.thread = threading.current_thread().name
        self.children: list[Span] = []
        self._trace = trace

    # -- lifecycle ----------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> "Span":
        """Open a child span (started now); safe from any thread."""
        child = Span(name, self._trace, self._trace.clock(), **attrs)
        with self._trace._lock:
            self.children.append(child)
        return child

    def record_span(self, name: str, start_s: float, end_s: float, **attrs: object) -> "Span":
        """Attach an already-measured interval as a closed child span.

        Used for phases observed outside the trace's lifetime — the service
        records the admission/queue wait this way, since the ticket was
        enqueued before the worker began the trace.
        """
        child = Span(name, self._trace, start_s, **attrs)
        child.end_s = max(start_s, end_s)
        with self._trace._lock:
            self.children.append(child)
        return child

    def annotate(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    def finish(self) -> None:
        if self.end_s is None:
            self.end_s = self._trace.clock()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()

    # -- inspection ---------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else self._trace.clock()
        return max(0.0, end - self.start_s)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        with self._trace._lock:
            children = list(self.children)
        for child in children:
            yield from child.walk()

    def to_dict(self) -> dict[str, object]:
        with self._trace._lock:
            children = list(self.children)
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in children],
        }


class QueryTrace:
    """The span tree of one query execution (a context manager over its root).

    ``trace.span(...)`` opens children of the root; subsystems that need
    deeper nesting receive a parent :class:`Span` and call ``parent.span``.
    Exiting the trace closes the root (and, defensively, any span a crashed
    stage left open — a trace is always renderable).
    """

    __slots__ = ("clock", "root", "_lock")

    def __init__(self, name: str = "query", clock: Clock = monotonic, **attrs: object) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self.root = Span(name, self, clock(), **attrs)

    # -- recording ----------------------------------------------------------------
    @property
    def sampled(self) -> bool:
        return True

    def span(self, name: str, **attrs: object) -> Span:
        return self.root.span(name, **attrs)

    def annotate(self, **attrs: object) -> None:
        self.root.annotate(**attrs)

    def finish(self) -> None:
        # Close leftovers bottom-up so parents never finish before children.
        for span in reversed(list(self.root.walk())):
            span.finish()

    def __enter__(self) -> "QueryTrace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()

    # -- inspection ---------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Every span of the tree, depth-first from the root."""
        return list(self.root.walk())

    def find(self, name: str) -> Span | None:
        """The first span (depth-first) with the given name, or ``None``."""
        for span in self.root.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list[Span]:
        return [span for span in self.root.walk() if span.name == name]

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    def to_dict(self) -> dict[str, object]:
        return self.root.to_dict()

    def render(self) -> str:
        """Indented one-line-per-span text, durations in milliseconds."""
        lines: list[str] = []
        origin = self.root.start_s

        def emit(span: Span, depth: int) -> None:
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            lines.append(
                f"{'  ' * depth}{span.name}"
                f"  +{1e3 * (span.start_s - origin):.3f}ms"
                f"  {1e3 * span.duration_s:.3f}ms"
                + (f"  [{attrs}]" if attrs else "")
            )
            for child in span.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        return "\n".join(lines)


class _NullSpan:
    """The do-nothing span: every recording call returns instantly.

    A singleton shared by all untraced executions; instrumentation code calls
    the same methods either way and pays only a virtual dispatch.
    """

    __slots__ = ()

    name = "null"
    attrs: dict[str, object] = {}
    children: tuple = ()
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    finished = True

    def span(self, name: str, **attrs: object) -> "_NullSpan":
        return self

    def record_span(self, name: str, start_s: float, end_s: float, **attrs: object) -> "_NullSpan":
        return self

    def annotate(self, **attrs: object) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def walk(self) -> Iterator["_NullSpan"]:
        return iter(())

    def to_dict(self) -> dict[str, object]:
        return {}


class _NullTrace:
    """The unsampled trace: same surface as :class:`QueryTrace`, all no-ops."""

    __slots__ = ()

    root = _NullSpan()
    duration_s = 0.0

    @property
    def sampled(self) -> bool:
        return False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def annotate(self, **attrs: object) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullTrace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def spans(self) -> list:
        return []

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list:
        return []

    def to_dict(self) -> dict[str, object]:
        return {}

    def render(self) -> str:
        return "<trace not sampled>"


NULL_SPAN = _NullSpan()
NULL_TRACE = _NullTrace()

#: What instrumentation code passes around: a real or a null trace/span.
AnyTrace = QueryTrace | _NullTrace
AnySpan = Span | _NullSpan


class SpanTracer:
    """Creates (or declines to create) one :class:`QueryTrace` per query.

    ``sample_rate`` trades trace coverage for hot-path cost.  The decision
    is made from integer counts, so it cannot drift: the ``k``-th unforced
    ``begin()`` is traced when ``floor(round(k * sample_rate, 9))`` exceeds
    the number of unforced begins traced so far.  After ``n`` unforced
    begins exactly ``floor(round(n * sample_rate, 9))`` have been traced
    (``n`` of ``n`` at rate 1, none at rate 0), evenly spaced.  Assigning a
    new ``sample_rate`` starts the count again from ``k = 1``.
    ``force=True`` (EXPLAIN ANALYZE) bypasses sampling — and the disabled
    switch — because the caller is about to render the trace; forced begins
    do not count towards the sampling schedule.
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_rate: float = 1.0,
        clock: Clock = monotonic,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.clock = clock
        self._lock = threading.Lock()
        self._started = 0
        self._sampled = 0
        # Unforced begins seen at the current rate, and how many were traced.
        self._schedule_rate = sample_rate
        self._unforced = 0
        self._unforced_sampled = 0

    def begin(self, name: str = "query", force: bool = False, **attrs: object) -> AnyTrace:
        """A new trace for one query, or :data:`NULL_TRACE` when not sampled."""
        with self._lock:
            self._started += 1
            if not force:
                if not self.enabled or self.sample_rate <= 0.0:
                    return NULL_TRACE
                if self.sample_rate != self._schedule_rate:
                    self._schedule_rate = self.sample_rate
                    self._unforced = self._unforced_sampled = 0
                self._unforced += 1
                due = math.floor(round(self._unforced * self.sample_rate, 9))
                if due <= self._unforced_sampled:
                    return NULL_TRACE
                self._unforced_sampled += 1
            self._sampled += 1
        return QueryTrace(name, clock=self.clock, **attrs)

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"traces_started": self._started, "traces_sampled": self._sampled}
