"""Span tracer unit tests plus hypothesis properties of span trees.

The tracer's contract is structural: every sampled query produces exactly
one root span, every child's interval nests inside its parent's, and spans
opened by partition worker threads join the same tree as the dispatching
thread (explicit parenting — thread-local context would misparent spans
when pool threads interleave queries).  The property tests drive randomized
tree shapes and fan-outs through a ManualClock so the invariants are exact,
not wall-clock-flaky.
"""

from __future__ import annotations

import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.clock import ManualClock
from repro.obs.trace import NULL_SPAN, NULL_TRACE, QueryTrace, SpanTracer


def make_trace(clock=None) -> QueryTrace:
    return QueryTrace(clock=clock or ManualClock())


class TestSpanBasics:
    def test_trace_has_single_root_named_query(self):
        trace = make_trace()
        assert trace.root.name == "query"
        assert [s for s in trace.spans() if s is trace.root] == [trace.root]

    def test_span_context_manager_records_interval(self):
        clock = ManualClock()
        trace = make_trace(clock)
        with trace.span("plan") as span:
            clock.advance(0.5)
        assert span.finished
        assert span.duration_s == 0.5
        assert span in trace.root.children

    def test_nested_spans_attach_to_explicit_parent(self):
        trace = make_trace()
        with trace.span("dispatch") as dispatch:
            with dispatch.span("estimate") as estimate:
                pass
        assert estimate in dispatch.children
        assert estimate not in trace.root.children

    def test_record_span_backdates_an_interval(self):
        clock = ManualClock()
        clock.advance(10.0)
        trace = make_trace(clock)
        span = trace.root.record_span("admission-wait", 4.0, 9.0, admission="admitted")
        assert span.start_s == 4.0 and span.end_s == 9.0
        assert span.attrs["admission"] == "admitted"

    def test_record_span_clamps_inverted_interval(self):
        trace = make_trace()
        span = trace.root.record_span("weird", 5.0, 3.0)
        assert span.end_s == span.start_s

    def test_finish_closes_leftover_spans_bottom_up(self):
        clock = ManualClock()
        trace = make_trace(clock)
        outer = trace.span("dispatch")
        inner = outer.span("partition")
        clock.advance(1.0)
        trace.finish()
        assert inner.finished and outer.finished and trace.root.finished
        assert inner.end_s <= outer.end_s <= trace.root.end_s

    def test_annotate_merges_attrs(self):
        trace = make_trace()
        trace.annotate(table="sessions")
        with trace.span("plan") as span:
            span.annotate(family="stratified")
        assert trace.root.attrs["table"] == "sessions"
        assert span.attrs["family"] == "stratified"

    def test_to_dict_and_render_round_trip_names(self):
        trace = make_trace()
        with trace.span("plan"):
            pass
        trace.finish()
        tree = trace.to_dict()
        assert tree["name"] == "query"
        assert [c["name"] for c in tree["children"]] == ["plan"]
        assert "plan" in trace.render()

    def test_find_walks_depth_first(self):
        trace = make_trace()
        with trace.span("dispatch") as dispatch:
            with dispatch.span("estimate"):
                pass
        assert trace.find("estimate") is not None
        assert trace.find("missing") is None
        assert len(trace.find_all("estimate")) == 1


class TestNullObjects:
    def test_null_trace_is_inert_and_reusable(self):
        assert not NULL_TRACE.sampled
        with NULL_TRACE.span("plan") as span:
            assert span is NULL_SPAN
        NULL_TRACE.finish()
        assert NULL_TRACE.find("plan") is None
        assert NULL_TRACE.render() == "<trace not sampled>"

    def test_null_span_children_are_null(self):
        with NULL_SPAN.span("inner") as inner:
            assert inner is NULL_SPAN
        NULL_SPAN.annotate(anything="goes")
        assert NULL_SPAN.record_span("x", 0.0, 1.0) is NULL_SPAN


class TestSpanTracer:
    def test_disabled_tracer_returns_null_trace(self):
        tracer = SpanTracer(enabled=False, sample_rate=1.0, clock=ManualClock())
        assert tracer.begin() is NULL_TRACE

    def test_force_overrides_sampling(self):
        tracer = SpanTracer(enabled=True, sample_rate=0.0, clock=ManualClock())
        assert tracer.begin() is NULL_TRACE
        assert tracer.begin(force=True).sampled

    def test_credit_accumulator_is_deterministic(self):
        tracer = SpanTracer(enabled=True, sample_rate=0.25, clock=ManualClock())
        sampled = [tracer.begin().sampled for _ in range(100)]
        # Exactly one in four, evenly spaced — not a coin flip.
        assert sum(sampled) == 25
        assert sampled[:8] == [False, False, False, True] * 2

    def test_new_rate_starts_a_new_schedule(self):
        tracer = SpanTracer(enabled=True, sample_rate=1.0, clock=ManualClock())
        assert all(tracer.begin().sampled for _ in range(100))
        tracer.sample_rate = 0.5
        sampled = [tracer.begin().sampled for _ in range(10)]
        assert sampled == [False, True] * 5

    def test_stats_count_started_and_sampled(self):
        tracer = SpanTracer(enabled=True, sample_rate=0.5, clock=ManualClock())
        for _ in range(10):
            tracer.begin()
        stats = tracer.stats
        assert stats["traces_started"] == 10
        assert stats["traces_sampled"] == 5


# -- property tests -----------------------------------------------------------------

tree_shapes = st.recursive(
    st.just([]),
    lambda children: st.lists(children, min_size=1, max_size=3),
    max_leaves=12,
)


def build_tree(trace_or_span, shape, clock):
    for child_shape in shape:
        with trace_or_span.span("node") as child:
            clock.advance(0.125)
            build_tree(child, child_shape, clock)
        clock.advance(0.125)


@settings(max_examples=60, deadline=None)
@given(shape=tree_shapes)
def test_property_single_root_and_span_count(shape):
    clock = ManualClock()
    trace = make_trace(clock)
    build_tree(trace, shape, clock)
    trace.finish()
    spans = trace.spans()
    roots = [s for s in spans if s.name == "query"]
    assert roots == [trace.root]

    def count(sub):
        return 1 + sum(count(child) for child in sub)

    assert len(spans) == count(shape)  # root + one per shape node


@settings(max_examples=60, deadline=None)
@given(shape=tree_shapes)
def test_property_children_nest_within_parent_intervals(shape):
    clock = ManualClock()
    trace = make_trace(clock)
    build_tree(trace, shape, clock)
    trace.finish()
    for parent in trace.spans():
        assert parent.finished
        for child in parent.children:
            assert parent.start_s <= child.start_s
            assert child.end_s <= parent.end_s


@settings(max_examples=20, deadline=None)
@given(fanout=st.integers(min_value=1, max_value=8))
def test_property_fanout_spans_join_across_threads(fanout):
    trace = QueryTrace()  # real clock: threads advance it concurrently
    with trace.span("partition-dispatch") as dispatch:
        barrier = threading.Barrier(fanout)

        def worker(index: int) -> None:
            barrier.wait()
            with dispatch.span("partition", index=index):
                pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(fanout)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    trace.finish()
    partitions = trace.find_all("partition")
    assert len(partitions) == fanout
    assert {span.attrs["index"] for span in partitions} == set(range(fanout))
    # All joined under the dispatching span, none misparented to the root.
    assert all(span in dispatch.children for span in partitions)
    assert {span.thread for span in partitions} != {dispatch.thread} or fanout == 0


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=200),
)
@example(rate=0.45, n=140)  # float credit arithmetic traces 62 of the 63 due here
def test_property_sampling_credit_accumulator_hits_ceil(rate, n):
    import math

    tracer = SpanTracer(enabled=True, sample_rate=rate, clock=ManualClock())
    sampled = sum(tracer.begin().sampled for _ in range(n))
    assert sampled == math.ceil(round(rate * n, 9)) or sampled == math.floor(rate * n)
