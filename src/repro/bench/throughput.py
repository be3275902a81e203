"""Multi-stream throughput benchmark on the simulated clock.

The SQL-on-Hadoop comparisons HAWQ was measured against (Tapdiya &
Fabbri; the BigBench evaluations) report *multi-stream* throughput, not
single-query latency. This bench replays N ∈ {1, 2, 4, 8} concurrent
TPC-H streams through the :class:`~repro.executor.concurrent.
ConcurrentRunner` — closed-loop sessions contending for per-segment
slots under resource-queue admission — and records aggregate
queries/sec, p50/p99 tail latency and admission wait-time percentiles
into ``BENCH_throughput.json``.

    python -m repro.bench --throughput            # report + JSON artifact
    python -m repro.bench --throughput --check    # CI gate

Each stream's statement order is a seeded draw (``DeterministicRng``
per stream), so the whole workload — and therefore every interleaving
decision — is a pure function of the seed. The ``--check`` gate
requires:

* every per-query answer bit-identical to a fresh serial run of the
  same statements (the concurrency-safety property),
* aggregate qps at N=8 at least ``QPS_FLOOR``,
* qps monotone N=1 → N=8 (more streams must add throughput),
* p99/p50 at N=8 under ``TAIL_RATIO_CEILING`` (admission control must
  bound the tail, not just the mean).

All times are simulated seconds; the artifact carries a ``history``
list so qps drift is visible across runs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.bench.reporting import carry_history, print_figure
from repro.engine import Engine
from repro.executor.concurrent import BatchResult, ConcurrentRunner
from repro.tpch import QUERIES, create_table_sql, generate
from repro.util import DeterministicRng

#: Root seed; override with ``--seed N``.
DEFAULT_SEED = 53
#: TPC-H scale for throughput runs (chaos-sized: sub-second per query).
SCALE = 0.0005
DATA_SEED = 19940601
TABLES = ("customer", "orders", "lineitem")
STREAM_COUNTS = (1, 2, 4, 8)
STATEMENTS_PER_STREAM = 6

#: ``--check`` gates (simulated clock, so these are stable across
#: machines): aggregate queries/sec the 8-stream run must sustain, and
#: the widest tolerable p99/p50 latency spread at 8 streams.
QPS_FLOOR = 10.0
TAIL_RATIO_CEILING = 5.0


def _query_pool() -> List[str]:
    """The statement mix: two lineitem scans, the 3-way join, and a
    selective customer point lookup (keys exist at this scale)."""
    return [
        QUERIES[6][0],
        QUERIES[1][0],
        QUERIES[3][0],
        "SELECT c_custkey, c_name FROM customer WHERE c_custkey = 7",
        "SELECT c_custkey, c_name FROM customer WHERE c_custkey = 42",
    ]


def make_streams(seed: int, count: int) -> List[List[str]]:
    """Seeded per-stream statement orders: stream i's sequence depends
    only on (seed, i), so adding streams never reshuffles earlier ones."""
    pool = _query_pool()
    streams = []
    for stream_id in range(count):
        rng = DeterministicRng(seed, "throughput", f"stream{stream_id}")
        streams.append(
            [pool[rng.randrange(len(pool))] for _ in range(STATEMENTS_PER_STREAM)]
        )
    return streams


def build_engine(seed: int) -> Engine:
    engine = Engine(num_segment_hosts=3, segments_per_host=2, seed=seed)
    session = engine.connect()
    data = generate(SCALE, seed=DATA_SEED)
    for table in TABLES:
        session.execute(create_table_sql(table))
        session.load_rows(table, getattr(data, table))
    session.execute("ANALYZE")
    return engine


def _serial_reference(seed: int, streams: List[List[str]]) -> Dict[tuple, list]:
    """Fresh-engine serial twin: expected rows per (stream, index)."""
    engine = build_engine(seed)
    session = engine.connect()
    expected = {}
    for stream_id, stream in enumerate(streams):
        for index, sql in enumerate(stream):
            expected[(stream_id, index)] = session.query(sql)
    return expected


def run_streams(seed: int, count: int) -> Dict[str, object]:
    """One N-stream run plus its serial bit-identity check."""
    streams = make_streams(seed, count)
    engine = build_engine(seed)
    batch: BatchResult = ConcurrentRunner(engine, streams).run()
    expected = _serial_reference(seed, streams)
    mismatches = sum(
        1
        for outcome in batch.outcomes
        if outcome.rows != expected[(outcome.stream, outcome.index)]
    )
    queue_stats = {
        name: {
            "admitted": stats.admitted,
            "parked": stats.parked,
            "wait_seconds": stats.wait_seconds,
            "max_depth": stats.max_depth,
        }
        for name, stats in batch.queue_stats.items()
    }
    return {
        "streams": count,
        "queries": len(batch.outcomes),
        "makespan_s": batch.makespan,
        "qps": batch.qps,
        "p50_s": batch.p50,
        "p99_s": batch.p99,
        "queue_wait_s": sum(o.queue_wait for o in batch.outcomes),
        "wait_p50_s": batch.wait_percentile(50.0),
        "wait_p95_s": batch.wait_percentile(95.0),
        "wait_p99_s": batch.wait_percentile(99.0),
        "slot_wait_s": sum(o.slot_wait for o in batch.outcomes),
        "answers_match": mismatches == 0,
        "mismatches": mismatches,
        "queues": queue_stats,
    }


def _append_history(out_path: str, runs: Dict[str, dict]) -> list:
    """Carry prior qps history forward plus this run's N=8 numbers."""
    top = runs[str(STREAM_COUNTS[-1])]
    return carry_history(
        out_path,
        {
            "streams": top["streams"],
            "qps": top["qps"],
            "p50_s": top["p50_s"],
            "p99_s": top["p99_s"],
            "wait_p99_s": top["wait_p99_s"],
        },
        series=("streams",),
    )


def run_throughput(
    out_path: Optional[str] = "BENCH_throughput.json",
    check: bool = False,
    seed: int = DEFAULT_SEED,
) -> int:
    """Full multi-stream sweep; returns a process exit code."""
    runs = {str(n): run_streams(seed, n) for n in STREAM_COUNTS}
    report = {
        "scale_factor": SCALE,
        "seed": seed,
        "statements_per_stream": STATEMENTS_PER_STREAM,
        "qps_floor": QPS_FLOOR,
        "tail_ratio_ceiling": TAIL_RATIO_CEILING,
        "runs": runs,
    }
    print_figure(
        "Throughput: N concurrent TPC-H streams (simulated clock)",
        ["streams", "queries", "makespan s", "qps", "p50 s", "p99 s",
         "wait p50 s", "wait p99 s", "answers"],
        [
            (
                entry["streams"],
                entry["queries"],
                entry["makespan_s"],
                entry["qps"],
                entry["p50_s"],
                entry["p99_s"],
                entry["wait_p50_s"],
                entry["wait_p99_s"],
                "match" if entry["answers_match"] else "DIVERGED",
            )
            for entry in runs.values()
        ],
        notes=[
            "closed-loop streams; per-segment slots; resource-queue admission",
            "wait pXX: admission (resource-queue) wait-time percentiles",
            "every answer compared bit-for-bit against a fresh serial run",
        ],
    )
    if out_path:
        report["history"] = _append_history(out_path, runs)
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {out_path}")
    if not check:
        return 0
    failures = []
    for entry in runs.values():
        if not entry["answers_match"]:
            failures.append(
                f"N={entry['streams']}: {entry['mismatches']} queries "
                "diverged from their serial run"
            )
    top = runs[str(STREAM_COUNTS[-1])]
    base = runs[str(STREAM_COUNTS[0])]
    if top["qps"] < QPS_FLOOR:
        failures.append(
            f"N={top['streams']} qps {top['qps']:.2f} below floor {QPS_FLOOR}"
        )
    if top["qps"] <= base["qps"]:
        failures.append(
            f"qps did not rise with streams ({base['qps']:.2f} -> "
            f"{top['qps']:.2f})"
        )
    if top["p50_s"] > 0 and top["p99_s"] / top["p50_s"] > TAIL_RATIO_CEILING:
        failures.append(
            f"N={top['streams']} tail ratio p99/p50 "
            f"{top['p99_s'] / top['p50_s']:.1f} exceeds {TAIL_RATIO_CEILING}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"OK: qps {base['qps']:.2f} (N={base['streams']}) -> "
        f"{top['qps']:.2f} (N={top['streams']}), "
        f"tail ratio {top['p99_s'] / max(top['p50_s'], 1e-12):.2f}"
    )
    return 0
