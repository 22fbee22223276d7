"""The repository benchmark: one command, three workloads, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 20 --trace 0

Workloads
---------
``adhoc``        wire (``repro.client.Client`` -> ``NetworkServer`` in another
                 process, one service worker), closed loop, one connection;
                 every statement is new, so neither the result cache nor the
                 probe memo can serve a repeat.
``dashboard``    the same set-up; a fixed pool of statements
                 is sent again and again, so after the first pass every
                 answer is a result-cache hit.
``live_ingest``  in-process, one thread: the window repeats one ``db.append``
                 of a batch, then ten passes over a fixed statement pool
                 with ``db.query``, until it ends (at most ten appends; the
                 last one's passes go on to the end).  After the window the
                 batches it did not reach are appended, untimed, so every
                 run ends on the same data.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced window, then a window with the layers' public callables wrapped
(see ``layers.py``), each half of ``--seconds``, and prints the per-layer
metrics.  Either way the statements answered after the window are checked:
over the wire they must be bit-identical to the in-process answer on the
same data generation, and they are compared with the exact answer for
``rel_error_p50``/``bar_coverage``.
A correctness or regime failure prints the result with ``"correct": false``
and exits 1.  Each run also leaves a record (git sha, seed, host, sample
counts, every failed operation) under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Iterator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("adhoc", "dashboard", "live_ingest")

#: Dashboard statements; they all fit the server's 512-entry result cache.
DASHBOARD_POOL = 16
#: live_ingest: statements in its pool, passes over the pool after each
#: append, and appends per window at most.  A fixed mix of appends and
#: queries keeps the share of each in the window the same whatever the
#: host's speed, so a slower host lowers qps in proportion, no more.
INGEST_POOL = 24
INGEST_PASSES = 10
INGEST_MAX_APPENDS = 10
#: The dashboard and live_ingest pools are fixed, like a real dashboard's
#: panels; the workload seed orders them and draws the appended rows.
POOL_SEED = 1717
#: Seconds the serving process may take to set up before the run gives up.
SERVER_START_TIMEOUT = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "qps": "1/s",
    "success_ratio": "ratio",
    "sim_latency_p50": "sim_s",
    "rel_error_p50": "ratio",
    "bar_coverage": "ratio",
    "peak_rss_mb": "MiB",
    "stored_bytes_ratio": "ratio",
}


# -- load ------------------------------------------------------------------------------
class Window:
    """Outcomes of one measured window: completed queries and failed operations."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.latencies: list[float] = []
        self.times_by_request: dict[str, float] = {}
        self.failures: list[dict[str, Any]] = []
        self.statements: list[str] = []
        self.elapsed = 0.0
        self.retries = 0
        self._lock = threading.Lock()

    def ok(self, sql: str, seconds: float, request_id: str | None = None) -> None:
        with self._lock:
            self.statements.append(sql)
            self.latencies.append(seconds)
            if request_id is not None:
                self.times_by_request[request_id] = seconds

    def failed(self, operation: str, detail: str, error: BaseException) -> None:
        from repro.client import TransportError
        from repro.net import protocol

        if isinstance(error, TransportError):
            code = "transport"
        else:
            code = protocol.error_code_for(error)[0]
        with self._lock:
            self.statements.append(detail)
            self.failures.append(
                {"operation": operation, "detail": detail, "code": code, "message": str(error)}
            )

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)


def wire_window(port: int, next_sql: Callable[[int], str], connections: int,
                seconds: float) -> Window:
    """Closed loop: each connection sends its next statement after the answer."""
    from repro.client import Client

    window = Window()
    deadline = window.started + seconds

    def connection(index: int) -> None:
        with Client("127.0.0.1", port, session_name=f"bench-{index}") as client:
            while time.perf_counter() < deadline:
                sql = next_sql(index)
                started = time.perf_counter()
                try:
                    result = client.query(sql)
                except Exception as error:  # noqa: BLE001 - a failure is a row
                    window.failed("query", sql, error)
                    continue
                window.ok(sql, time.perf_counter() - started, result.metadata.get("trace_id"))
            with window._lock:
                window.retries += client.stats["retries"]

    threads = [threading.Thread(target=connection, args=(i,)) for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.elapsed = time.perf_counter() - window.started
    return window


class ServerProcess:
    """The wire workloads' serving process and its control channel."""

    def __init__(self, setups: int, trace: bool, spans_out: str | None) -> None:
        command = [sys.executable, os.path.join(ROOT, "perfbench", "server.py"),
                   "--setups", str(setups), "--trace", str(int(trace))]
        if spans_out:
            command += ["--spans-out", spans_out]
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.ready = self._read(SERVER_START_TIMEOUT)

    def _read(self, timeout: float) -> dict[str, Any]:
        box: list[str] = []
        reader = threading.Thread(target=lambda: box.append(self.process.stdout.readline()))
        reader.daemon = True
        reader.start()
        reader.join(timeout)
        if not box or not box[0]:
            raise RuntimeError("serving process did not answer")
        return json.loads(box[0])

    def call(self, cmd: str, timeout: float = 120.0, **fields: Any) -> dict[str, Any]:
        self.process.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.process.stdin.flush()
        return self._read(timeout)

    def send(self, cmd: str) -> None:
        self.process.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.process.stdin.flush()

    def close(self) -> None:
        try:
            if self.process.poll() is None:
                self.send("quit")
                self.process.stdin.close()
                self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()


# -- workloads ------------------------------------------------------------------------------
def statement_supply(workload: str, seed: int, connections: int, table) -> Callable[[int], str]:
    """Per-connection statement source for a wire workload."""
    import numpy as np

    import common

    if workload == "adhoc":
        stream = common.statement_stream(table, seed)
        lock = threading.Lock()

        def next_unique(index: int) -> str:
            with lock:
                return next(stream)

        return next_unique
    pool = common.take(common.statement_stream(table, POOL_SEED), DASHBOARD_POOL)
    orders: list[Iterator[str]] = []
    for index in range(connections):
        order = list(pool)
        np.random.default_rng([seed, index]).shuffle(order)
        orders.append(_cycle(order))
    return lambda index: next(orders[index])


def _cycle(items: list[str]) -> Iterator[str]:
    while True:
        yield from items


def _passes(items: list[str], passes: int | None) -> Iterator[str]:
    """``passes`` passes over ``items``, or endless ones for ``None``."""
    if passes is None:
        yield from _cycle(items)
    else:
        for _ in range(passes):
            yield from items


def statement_table():
    """The table the statements' literals are drawn from (the rows served)."""
    import common
    from repro.workloads.conviva import generate_sessions_table

    return generate_sessions_table(
        num_rows=common.TABLE_ROWS, seed=common.TABLE_SEED, **common.TABLE_SHAPE
    )


def regime_problems(workload: str, window: Window, counters: dict[str, float]) -> list[str]:
    """A workload must stay in the regime it was chosen for."""
    problems = []
    if workload == "adhoc":
        if len(set(window.statements)) != len(window.statements):
            problems.append("adhoc repeated a statement")
        if counters.get("cache_hits", 0.0) > 0:
            problems.append(f"adhoc hit the result cache {counters['cache_hits']:.0f} times")
    elif workload == "dashboard":
        misses = counters.get("cache_misses", 0.0)
        if misses > 2 * DASHBOARD_POOL or len(window.latencies) < 10 * DASHBOARD_POOL:
            problems.append(
                f"dashboard left the cache-hit regime: {misses:.0f} misses "
                f"in {len(window.latencies)} queries"
            )
    return problems


def run_wire(workload: str, seed: int, seconds: float, trace: bool, tag: str) -> dict[str, Any]:
    import common
    import layers
    from repro.client import Client
    from repro.net import protocol
    from tracer import Tracer, self_times

    # One connection: the serving process answers one query at a time
    # anyway (one service worker; a cache hit runs on the handler thread),
    # so a second connection adds no parallel work, only threads contending
    # for the interpreter lock and the host's cores, which made latency and
    # throughput swing from run to run.
    connections = 1
    spans_out = os.path.join(OUT_DIR, f"{tag}-server-spans.jsonl") if trace else None
    server = ServerProcess(1 if trace else common.SETUP_REPEATS, trace, spans_out)
    try:
        port = server.ready["port"]
        table = statement_table()
        supply = statement_supply(workload, seed, connections, table)
        problems: list[str] = []
        outcome: dict[str, Any] = {"setup_s": server.ready["setup_s"], "append_s": []}

        before = server.call("counters")
        window = wire_window(port, supply, connections, seconds)
        counters = layers.delta(server.call("counters"), before)
        problems += regime_problems(workload, window, counters)
        outcome["window"] = window
        outcome["regime_counters"] = counters

        if trace:
            untraced_p50 = statistics.median(window.latencies)
            client_tracer = Tracer()
            server.call("trace_on")
            client_tracer.install(layers.CLIENT_TARGETS)
            traced = wire_window(port, supply, connections, seconds)
            client_tracer.uninstall()
            summary = server.call("trace_off")
            decode_s = self_times(client_tracer.spans()).get("net.decode", 0.0)
            problems += regime_problems(workload, traced, summary["counters"])
            outcome["traced_window"] = traced
            outcome["per_layer"] = layers.per_layer_metrics(
                summary,
                queries=len(traced.latencies),
                appends=0,
                client={
                    "wire": True,
                    "times": traced.times_by_request,
                    "decode_s": decode_s,
                    "retries": traced.retries,
                    "untraced_p50_s": untraced_p50,
                    "traced_p50_s": statistics.median(traced.latencies),
                },
                setup_self_s=server.ready["setup_self_s"],
            )

        # Audit: wire answer == in-process answer, then accuracy vs exact.
        sqls = common.audit_statements(table)
        with Client("127.0.0.1", port, session_name="bench-audit") as client:
            wire_results = [client.query(sql) for sql in sqls]
            audited = server.call("audit", sqls=sqls)
        mismatched = [
            sql for sql, result, inproc in zip(sqls, wire_results, audited["approx"])
            if common.canonical(result) != inproc
        ]
        if mismatched:
            problems.append(
                f"{len(mismatched)} wire answers differ from in-process: {mismatched[:2]}"
            )
        exact = [protocol.decode_result(payload) for payload in audited["exact"]]
        outcome["audit"] = common.audit_summary(list(zip(wire_results, exact)))
        outcome["audit"]["statements"] = len(sqls)
        outcome["audit"]["wire_mismatches"] = len(mismatched)

        finish = server.call("finish")
        outcome.update(
            stored_bytes_ratio=finish["stored_bytes_ratio"], peak_rss_mb=finish["peak_rss_mb"]
        )
        outcome["problems"] = problems
        return outcome
    finally:
        server.close()


def run_live_ingest(seed: int, seconds: float, trace: bool, tag: str) -> dict[str, Any]:
    import numpy as np

    import common
    import layers
    from tracer import Tracer, self_times, write_spans

    setup_tracer = Tracer()
    if trace:
        setup_tracer.install(layers.SETUP_TARGETS)
    try:
        db, _, setup_times = common.repeated_setup(1 if trace else common.SETUP_REPEATS)
    finally:
        setup_tracer.uninstall()
    try:
        table = statement_table()
        pool = common.take(common.statement_stream(table, POOL_SEED), INGEST_POOL)
        np.random.default_rng(seed).shuffle(pool)
        batches = common.append_batches(INGEST_MAX_APPENDS * (2 if trace else 1))
        outcome: dict[str, Any] = {"setup_s": setup_times, "append_s": []}
        problems: list[str] = []

        def window_loop(tracer: Tracer | None) -> tuple[Window, list[float], set[str]]:
            window = Window()
            appends: list[float] = []
            append_ids: set[str] = set()
            deadline = window.started + seconds
            count = 0
            for index in range(INGEST_MAX_APPENDS):
                if time.perf_counter() >= deadline:
                    break
                request_id = f"a{len(batches)}"
                batch = batches.pop()
                if tracer is not None:
                    tracer.set_request(request_id)
                    append_ids.add(request_id)
                mark = time.perf_counter()
                try:
                    db.append(common.TABLE, batch)
                    appends.append(time.perf_counter() - mark)
                except Exception as error:  # noqa: BLE001 - a failure is a row
                    window.failed("append", request_id, error)
                # The last append's passes go on until the window ends.
                passes = INGEST_PASSES if index < INGEST_MAX_APPENDS - 1 else None
                for sql in _passes(pool, passes):
                    if time.perf_counter() >= deadline:
                        break
                    request_id = f"q{count}"
                    count += 1
                    if tracer is not None:
                        tracer.set_request(request_id)
                    mark = time.perf_counter()
                    try:
                        db.query(sql)
                    except Exception as error:  # noqa: BLE001 - a failure is a row
                        window.failed("query", sql, error)
                        continue
                    window.ok(sql, time.perf_counter() - mark, request_id)
            window.elapsed = time.perf_counter() - window.started
            return window, appends, append_ids

        window, appends, _ = window_loop(None)
        outcome["window"] = window
        outcome["append_s"] = appends
        if not trace:
            # Append the batches the window did not reach, untimed, so that
            # every run ends on the same data and the audit reads the same rows.
            while batches:
                db.append(common.TABLE, batches.pop())

        if trace:
            tracer = Tracer()
            before = common.program_counters(db)
            tracer.install(layers.SERVER_TARGETS)
            try:
                traced, traced_appends, append_ids = window_loop(tracer)
            finally:
                tracer.uninstall()
            counters = layers.delta(common.program_counters(db), before)
            summary = layers.serving_summary(tracer.spans(), tracer.counts, counters, append_ids)
            write_spans(os.path.join(OUT_DIR, f"{tag}-spans.jsonl"), tracer.spans())
            outcome["traced_window"] = traced
            outcome["per_layer"] = layers.per_layer_metrics(
                summary,
                queries=len(traced.latencies),
                appends=len(traced_appends),
                client={
                    "wire": False,
                    "times": traced.times_by_request,
                    "untraced_p50_s": statistics.median(window.latencies),
                    "traced_p50_s": statistics.median(traced.latencies),
                },
                setup_self_s=self_times(setup_tracer.spans()),
            )

        sqls = common.audit_statements(table)
        approx = [db.query(sql) for sql in sqls]
        again = [common.canonical(db.query(sql)) for sql in sqls]
        unstable = [sql for sql, a, b in zip(sqls, approx, again) if common.canonical(a) != b]
        if unstable:
            problems.append(f"{len(unstable)} answers changed on an unchanged generation")
        exact = [db.query_exact(sql) for sql in sqls]
        outcome["audit"] = common.audit_summary(list(zip(approx, exact)))
        outcome["audit"]["statements"] = len(sqls)
        outcome["audit"]["wire_mismatches"] = 0
        outcome["stored_bytes_ratio"] = common.stored_bytes_ratio(db)
        outcome["peak_rss_mb"] = common.peak_rss_mb()
        outcome["problems"] = problems
        return outcome
    finally:
        db.close()


# -- report -----------------------------------------------------------------------------------
def end_to_end(outcome: dict[str, Any]) -> dict[str, float]:
    import common

    window: Window = outcome["window"]
    audit = outcome["audit"]
    return {
        "setup_s": statistics.median(outcome["setup_s"]),
        "query_p50_ms": statistics.median(window.latencies) * 1e3,
        "query_p95_ms": common.percentile(window.latencies, 0.95) * 1e3,
        "qps": len(window.latencies) / window.elapsed,
        "success_ratio": len(window.latencies) / max(1, window.attempted),
        "sim_latency_p50": audit["sim_latency_p50"],
        "rel_error_p50": audit["rel_error_p50"],
        "bar_coverage": audit["bar_coverage"],
        "peak_rss_mb": outcome["peak_rss_mb"],
        "stored_bytes_ratio": outcome["stored_bytes_ratio"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import common
    import layers

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # A traced run measures two windows; each gets half of the time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    if args.workload == "live_ingest":
        outcome = run_live_ingest(args.seed, seconds, bool(args.trace), tag)
    else:
        outcome = run_wire(args.workload, args.seed, seconds, bool(args.trace), tag)

    window: Window = outcome["window"]
    measured = outcome.get("traced_window", window)
    if args.trace:
        values = outcome["per_layer"]
        units = layers.PER_LAYER_UNITS
    else:
        values = end_to_end(outcome)
        units = END_TO_END_UNITS
    problems = list(outcome["problems"])
    if not args.trace and any(not math.isfinite(v) for v in values.values()):
        problems.append("a metric is not finite: " + ", ".join(
            k for k, v in values.items() if not math.isfinite(v)))
    audit = outcome["audit"]
    tail = len(window.latencies) - math.ceil(0.95 * len(window.latencies))
    if not args.trace and tail < 10:
        print(f"perfbench: only {tail} samples beyond query_p95_ms", file=sys.stderr)
    if audit["non_finite_references"]:
        print(f"perfbench: {audit['non_finite_references']} exact references are not finite",
              file=sys.stderr)
    attempted = window.attempted + (measured.attempted if measured is not window else 0)
    failed = len(window.failures) + (len(measured.failures) if measured is not window else 0)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": common.git_sha(ROOT),
        "host": common.host_fingerprint(),
        "samples": {
            "queries": len(measured.latencies),
            "appends": len(outcome["append_s"]),
            "setups": len(outcome["setup_s"]),
            "sampled_estimates": audit["sampled_estimates"],
            "beyond_query_p95": tail,
        },
        "query_ms": {
            f"p{q}": common.percentile(measured.latencies, q / 100) * 1e3 for q in (50, 90, 95, 99)
        },
        "setup_s": outcome["setup_s"],
        "append_s": outcome["append_s"],
        "audit": audit,
        "regime_counters": outcome.get("regime_counters", {}),
        "failures": window.failures + (measured.failures if measured is not window else []),
        "problems": problems,
        "result": result,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {tag}: {len(measured.latencies)} queries, "
          f"{len(outcome['append_s'])} appends, {len(outcome['setup_s'])} set-ups")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
