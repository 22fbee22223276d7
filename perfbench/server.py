"""The serving process of the wire workloads.

Started by ``run.py``; never run by hand.  It sets the database up
``--setups`` times, serves the last instance on an ephemeral loopback port,
prints one JSON line with the port and set-up timings, and then answers
control commands, one JSON object per line on stdin, with one JSON line on
stdout each:

``counters``   the program's own counters (result cache, probe memo, scans)
``trace_on``   wrap the layers' public callables and start recording spans
``trace_off``  restore the callables; reply with the aggregated spans
``audit``      answer ``sqls`` in-process, approximately and exactly
``finish``     stored bytes and peak memory of this process
``quit``       close the server and exit
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import layers  # noqa: E402
from repro.net import protocol  # noqa: E402
from tracer import Tracer, self_times, write_spans  # noqa: E402

#: Service worker threads.  Queries are Python work under one interpreter
#: lock, so a second worker adds no throughput; on a two-core host it lowered
#: adhoc's qps by a third and doubled its run-to-run spread.  With one worker
#: the adhoc connections queue for it, which ``service.queue_wait_ms`` shows.
WORKERS = 1


def reply(obj: object) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.install(layers.SETUP_TARGETS)
    try:
        db, server, timings = common.repeated_setup(
            args.setups, finish=lambda db: db.serve_network(num_workers=WORKERS)
        )
    finally:
        setup_tracer.uninstall()
    reply(
        {
            "port": server.port,
            "setup_s": timings,
            "setup_self_s": self_times(setup_tracer.spans()),
        }
    )

    tracer: Tracer | None = None
    before: dict[str, float] = {}
    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "counters":
                reply(common.program_counters(db, server.service))
            elif name == "trace_on":
                tracer = Tracer()
                before = common.program_counters(db, server.service)
                tracer.install(layers.SERVER_TARGETS)
                reply({"tracing": True})
            elif name == "trace_off":
                if tracer is None:
                    raise ValueError("trace_off before trace_on")
                tracer.uninstall()
                counters = layers.delta(common.program_counters(db, server.service), before)
                spans = tracer.spans()
                if args.spans_out:
                    write_spans(args.spans_out, spans)
                reply(layers.serving_summary(spans, tracer.counts, counters, set()))
            elif name == "audit":
                approx = [common.canonical(db.query(sql)) for sql in command["sqls"]]
                exact = [protocol.encode_result(db.query_exact(sql)) for sql in command["sqls"]]
                reply({"approx": approx, "exact": exact})
            elif name == "finish":
                reply(
                    {
                        "stored_bytes_ratio": common.stored_bytes_ratio(db),
                        "peak_rss_mb": common.peak_rss_mb(),
                    }
                )
            elif name == "quit":
                break
            else:
                raise ValueError(f"unknown command {name!r}")
    finally:
        server.close()
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
