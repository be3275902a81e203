"""Observability CLI: traces, dashboard, Prometheus: ``python -m repro.obs``.

Default mode stands up a small cluster, loads a TPC-H subset at
``--scale``, runs the chosen query with ``SET trace = on``, prints the
text flame summary and per-query metrics, and (with ``--export``)
writes Chrome trace_event JSON loadable in Perfetto.

    python -m repro.obs --query 3 --export trace.json

Three telemetry modes ride the same standup:

* ``--top`` — run a 4-stream concurrent TPC-H batch and render the
  text dashboard (activity table, queue gauges, per-segment
  utilization bars) from the busiest mid-schedule telemetry snapshot.
* ``--prom`` — run a mixed serial/concurrent workload and print the
  MetricsRegistry in Prometheus text exposition format; ``--check``
  self-validates the exposition and exits nonzero on violations.
* ``--smoke`` — SELECT over all four pg_stat_* system views through
  the normal SQL path (filter, ORDER BY, aggregation) and exit nonzero
  if any view misbehaves — the CI gate for the introspection surface.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.engine import Engine
from repro.executor.concurrent import ConcurrentRunner
from repro.obs.activity import render_top
from repro.obs.export import (
    prometheus_violations,
    render_prometheus,
    render_summary,
    to_chrome_trace,
)
from repro.tpch import QUERIES, create_table_sql, generate

#: Tables required per supported query (Q1/Q6 scan lineitem; Q3 joins).
_TABLES = ("customer", "orders", "lineitem")


def _standup(args):
    """One loaded cluster + session, shared by every mode."""
    engine = Engine(
        num_segment_hosts=4,
        segments_per_host=2,
        seed=args.seed,
        interconnect=args.mode,
    )
    session = engine.connect()
    data = generate(args.scale, seed=args.seed or 19940601)
    for table in _TABLES:
        session.execute(create_table_sql(table))
        session.load_rows(table, getattr(data, table))
    session.execute("ANALYZE")
    return engine, session


def _telemetry_workload(engine, session) -> None:
    """A small mixed workload: serial statements plus a contended
    2-stream batch, so queue-pressure metrics and the workload
    repository have something to show."""
    session.execute("CREATE RESOURCE QUEUE obs_narrow WITH (active_statements=1)")
    for number in (1, 6):
        for stmt in QUERIES[number]:
            session.execute(stmt)
    runner = ConcurrentRunner(
        engine,
        streams=[[QUERIES[6][0]], [QUERIES[1][0]]],
        queues={0: "obs_narrow", 1: "obs_narrow"},
    )
    runner.run()


def _run_top(engine, args) -> int:
    streams = [
        [QUERIES[1][0], QUERIES[6][0]] for _stream in range(4)
    ]
    snapshots = []

    def probe(stream, index):
        snapshots.append(engine.telemetry.overview())

    runner = ConcurrentRunner(engine, streams, before_query=probe)
    batch = runner.run()
    if snapshots:
        busiest = max(
            snapshots,
            key=lambda snap: (len(snap["activity"]), snap["now"]),
        )
    else:
        busiest = engine.telemetry.overview()
    print(render_top(busiest))
    print()
    print(
        f"batch: {len(batch.outcomes)} statements, "
        f"makespan {batch.makespan:.4f}s, {batch.qps:.2f} qps"
    )
    return 0


def _run_prom(engine, session, check: bool) -> int:
    _telemetry_workload(engine, session)
    text = render_prometheus(engine.metrics)
    print(text, end="")
    if check:
        problems = prometheus_violations(text)
        for problem in problems:
            print(f"invalid exposition: {problem}", file=sys.stderr)
        if problems:
            return 1
    return 0


def _run_smoke(engine, session) -> int:
    """System-view smoke: every view answers through plain SQL."""
    _telemetry_workload(engine, session)
    failures = []

    def check(label, sql, predicate):
        rows = session.execute(sql).rows
        if not predicate(rows):
            failures.append(f"{label}: unexpected result {rows!r}")
        else:
            print(f"ok: {label} ({len(rows)} rows)")

    check(
        "pg_stat_segments covers every segment",
        "SELECT segment_id, host, tasks FROM pg_stat_segments "
        "ORDER BY segment_id",
        lambda rows: len(rows) == engine.num_segments,
    )
    check(
        "pg_stat_segments aggregates",
        "SELECT count(*), sum(busy_seconds) FROM pg_stat_segments",
        lambda rows: rows and rows[0][0] == engine.num_segments,
    )
    check(
        "pg_resqueue_status filter + order",
        "SELECT queue, slots, slots_in_use, waiters FROM pg_resqueue_status "
        "WHERE slots > 0 ORDER BY queue",
        lambda rows: "pg_default" in [row[0] for row in rows],
    )
    check(
        "pg_stat_statements repository",
        "SELECT fingerprint, calls, mean_seconds FROM pg_stat_statements "
        "WHERE calls >= 1 ORDER BY calls DESC",
        lambda rows: len(rows) >= 1,
    )
    check(
        "pg_stat_activity shows the probe itself",
        "SELECT query_id, state, queue FROM pg_stat_activity "
        "WHERE state = 'running' ORDER BY query_id",
        lambda rows: len(rows) == 1 and rows[0][1] == "running",
    )
    for failure in failures:
        print(f"smoke failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability CLI for the simulated cluster",
    )
    parser.add_argument(
        "--query", type=int, default=3, choices=sorted(QUERIES),
        help="TPC-H query number (default: 3)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.001,
        help="TPC-H scale factor (default: 0.001)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="engine + data seed"
    )
    parser.add_argument(
        "--mode", choices=("udp", "tcp"), default="udp",
        help="interconnect mode (default: udp)",
    )
    parser.add_argument(
        "--export", metavar="PATH", default=None,
        help="write Chrome trace_event JSON to PATH",
    )
    parser.add_argument(
        "--top", action="store_true",
        help="render the live-cluster text dashboard from a "
        "concurrent TPC-H batch",
    )
    parser.add_argument(
        "--prom", action="store_true",
        help="print the metrics registry in Prometheus text format",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="with --prom: validate the exposition, exit 1 on violations",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run system-view smoke queries through the SQL path",
    )
    args = parser.parse_args(argv)

    engine, session = _standup(args)
    if args.top:
        return _run_top(engine, args)
    if args.prom:
        return _run_prom(engine, session, check=args.check)
    if args.smoke:
        return _run_smoke(engine, session)

    session.execute("SET trace = on")
    result = None
    for stmt in QUERIES[args.query]:
        result = session.execute(stmt)
    # Select the trace by the statement's engine-wide query id — never
    # "the latest trace", which under concurrent sessions could belong
    # to someone else's statement.
    trace = session.tracer.for_query(result.query_id)
    if trace is None:
        print("no trace recorded (statement did not dispatch)")
        return 1
    trace.label = f"tpch-q{args.query} scale={args.scale} {args.mode}"

    print(render_summary(trace))
    print()
    print(f"rows returned: {len(result.rows)}")
    print("metrics (this statement):")
    for key, value in result.metrics.items():
        print(f"  {key} = {value}")

    if args.export:
        document = to_chrome_trace(trace)
        with open(args.export, "w") as fh:
            json.dump(document, fh, indent=1)
        print(f"wrote {args.export} ({len(document['traceEvents'])} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
