"""The closed-loop load driver against fake transports: rows, outcomes, joins."""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import QueryRejectedError
from repro.service.loadgen import LoadReport, LoadRow, mixed_bound_trace, run_closed_loop
from repro.workloads.conviva import conviva_query_templates

STATEMENTS = [f"SELECT COUNT(*) FROM t WHERE k = {i}" for i in range(10)]


class _Recorder:
    """A transport factory whose clients echo each statement back."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.connected: list[int] = []
        self.calls: list[tuple[int, str, float | None]] = []

    def connect(self, index: int):
        with self.lock:
            self.connected.append(index)

        def ask(sql: str, timeout: float | None = None) -> str:
            with self.lock:
                self.calls.append((index, sql, timeout))
            return f"answer:{sql}"

        return ask


def test_statements_are_dealt_round_robin_in_client_order():
    recorder = _Recorder()
    report = run_closed_loop(recorder.connect, STATEMENTS, num_clients=3, timeout=7.5)
    assert sorted(recorder.connected) == [0, 1, 2]
    assert report.submitted == len(STATEMENTS)
    assert report.completed == len(STATEMENTS)
    # Rows come back client by client, each client's in the order it asked.
    assert [row.client for row in report.rows] == [0] * 4 + [1] * 3 + [2] * 3
    for index in range(3):
        assert [row.sql for row in report.rows if row.client == index] == STATEMENTS[index::3]
    assert all(row.result == f"answer:{row.sql}" for row in report.rows)
    assert all(row.error is None and row.latency_seconds >= 0 for row in report.rows)
    # The caller's timeout reaches every call.
    assert {timeout for _, _, timeout in recorder.calls} == {7.5}


def test_rejections_are_shed_and_other_errors_failed_as_rows():
    rejected = QueryRejectedError("queue full", reason="shed-queue-full")
    broken = RuntimeError("transport dropped")

    def connect(index: int):
        def ask(sql: str, timeout: float | None = None) -> str:
            position = STATEMENTS.index(sql)
            if position % 5 == 1:
                raise rejected
            if position % 5 == 2:
                raise broken
            return sql

        return ask

    report = run_closed_loop(connect, STATEMENTS, num_clients=2)
    assert (report.submitted, report.completed, report.shed, report.failed) == (10, 6, 2, 2)
    for row in report.rows:
        position = STATEMENTS.index(row.sql)
        if position % 5 == 1:
            assert (row.outcome, row.error, row.result) == ("shed", rejected, None)
        elif position % 5 == 2:
            assert (row.outcome, row.error, row.result) == ("failed", broken, None)
        else:
            assert (row.outcome, row.error, row.result) == ("completed", None, row.sql)


def test_driver_returns_only_after_every_client_finishes():
    # Client 0's first call blocks until client 1 has issued all of its
    # statements; the report must still hold every row of both clients.
    release = threading.Event()
    done: list[str] = []

    def connect(index: int):
        def ask(sql: str, timeout: float | None = None) -> str:
            if index == 0:
                assert release.wait(timeout=30)
            done.append(sql)
            if index == 1 and sql == STATEMENTS[-1]:
                release.set()
            return sql

        return ask

    report = run_closed_loop(connect, STATEMENTS, num_clients=2)
    assert report.submitted == len(STATEMENTS) == len(done)
    assert sorted(row.sql for row in report.rows) == sorted(STATEMENTS)
    assert report.failed == 0


def test_clients_beyond_the_statements_issue_nothing():
    recorder = _Recorder()
    report = run_closed_loop(recorder.connect, STATEMENTS[:2], num_clients=4)
    assert sorted(recorder.connected) == [0, 1, 2, 3]
    assert [(row.client, row.sql) for row in report.rows] == [
        (0, STATEMENTS[0]),
        (1, STATEMENTS[1]),
    ]


def test_zero_clients_is_rejected_before_connecting():
    recorder = _Recorder()
    with pytest.raises(ValueError, match="num_clients"):
        run_closed_loop(recorder.connect, STATEMENTS, num_clients=0)
    assert recorder.connected == []


def test_report_percentiles_and_describe_count_only_completed_rows():
    rows = (
        LoadRow(0, "a", "completed", 1.0),
        LoadRow(0, "b", "completed", 3.0),
        LoadRow(1, "c", "shed", 100.0),
        LoadRow(1, "d", "failed", 200.0),
    )
    report = LoadReport(wall_seconds=2.0, rows=rows)
    assert report.latency_percentile(0.0) == 1.0
    assert report.latency_percentile(1.0) == 3.0
    assert report.throughput_qps == 1.0
    described = report.describe()
    assert described["submitted"] == 4
    assert (described["completed"], described["shed"], described["failed"]) == (2, 1, 1)
    assert LoadReport(wall_seconds=0.0, rows=rows).throughput_qps == 0.0
    assert LoadReport(wall_seconds=1.0, rows=()).latency_percentile(0.5) == 0.0


def test_mixed_bound_trace_is_seeded_and_mixes_all_three_bounds(sessions_table):
    templates = conviva_query_templates()
    first = mixed_bound_trace(templates, sessions_table, num_queries=40, seed=3)
    assert first == mixed_bound_trace(templates, sessions_table, num_queries=40, seed=3)
    assert len(first) == 40
    error_bounded = [sql for sql in first if "ERROR WITHIN" in sql]
    time_bounded = [sql for sql in first if sql.endswith("SECONDS")]
    assert error_bounded and time_bounded
    assert len(error_bounded) + len(time_bounded) < 40  # some are unbounded
