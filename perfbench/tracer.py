"""Span recording around the program's public callables, from outside it.

Nothing in the program changes: :class:`Tracer` replaces a callable with a
wrapper while tracing is on and puts the original back afterwards.  A
module-level function is replaced in every ``repro`` module that imported
it by name, so call sites that bound it at import time are covered too.

A span's parent is the wrapped call that encloses it on the same thread, and
a span's self time is its duration minus the durations of its children.
Each span also carries the request id current on its thread (see
:meth:`Tracer.set_request`), which joins the spans of one request.
Spans stay in memory until :meth:`Tracer.spans` hands them out.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Thread-name prefix of the runtime's partition pool.  Spans there run
#: inside the enclosing ``PartitionPipeline.run`` span of another thread.
POOL_THREAD_PREFIX = "blinkdb-partition"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    self_s: float
    parent: str | None
    thread: str
    request_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` where owner is a class or module.

    With ``span`` false the wrapper only counts calls (and, with ``hits``,
    calls whose result is not ``None``) without entering the span stack, so
    the caller's self time keeps the call.  ``on_result(args, result)``
    returns named amounts added to the tracer's counters.  ``request_kwarg``
    names a keyword argument that, when given, becomes the thread's request
    id before the span opens.
    """

    name: str
    module: str
    owner: str | None
    attr: str
    span: bool = True
    hits: bool = False
    on_result: Callable[[tuple, Any], dict[str, float]] | None = None
    request_kwarg: str | None = None


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- request context ------------------------------------------------------------
    def set_request(self, request_id: str | None) -> None:
        self._local.request_id = request_id

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- wrappers -------------------------------------------------------------------
    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.request_kwarg is not None and kwargs.get(target.request_kwarg):
                tracer.set_request(kwargs[target.request_kwarg])
            stack = tracer._stack()
            frame = [time.perf_counter(), 0.0, target.name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][2]
                tracer._finish(target, frame[0], end, duration - frame[1], parent)
            if target.on_result is not None:
                for key, value in target.on_result(args, result).items():
                    tracer._count(key, value)
            return result

        return wrapper

    def _finish(self, target: Target, start: float, end: float, self_s: float,
                parent: str | None) -> None:
        span = Span(
            target.name,
            start,
            end,
            self_s,
            parent,
            threading.current_thread().name,
            getattr(self._local, "request_id", None),
        )
        with self._lock:
            self._spans.append(span)
            self.counts[target.name + ".calls"] = self.counts.get(target.name + ".calls", 0.0) + 1

    def _count_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer._count(target.name + ".calls")
            if target.hits and result is not None:
                tracer._count(target.name + ".hits")
            return result

        return wrapper

    # -- install / remove -------------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        for target in targets:
            module = sys.modules[target.module]
            owner = getattr(module, target.owner) if target.owner else module
            original = owner.__dict__[target.attr] if target.owner else getattr(module, target.attr)
            if target.span:
                wrapped = self._span_wrapper(target, original)
            else:
                wrapped = self._count_wrapper(target, original)
            if target.owner:
                self._patch(owner, target.attr, wrapped)
                continue
            # A function: patch every repro module that holds it by name.
            for name, candidate in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")) or candidate is None:
                    continue
                for attr, value in list(vars(candidate).items()):
                    if value is original:
                        self._patch(candidate, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)


# -- aggregation ------------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self seconds per span name."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.self_s
    return totals


def on_pool_thread(span: Span) -> bool:
    return span.thread.startswith(POOL_THREAD_PREFIX)


def write_spans(path: str, spans: list[Span]) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.__dict__) + "\n")
