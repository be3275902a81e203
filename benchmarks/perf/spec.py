"""The benchmark's contract: workloads, metric names, units and bounds.

``BENCHMARK.json`` at the repo root is this module rendered by
``python benchmarks/perf/spec.py`` (a test keeps the two equal). A bound
is the share of the parent commit's median by which an end-to-end metric
may get worse before a change counts as a regression.
"""

from __future__ import annotations

import json
import os

#: How long one run measures at the default ``--seconds``; round counts
#: in workloads.py are sized for it.
RUN_SECONDS = 10

#: (name, why) — the one-line reason each workload exists.
WORKLOADS = (
    ("tpch_power",
     "all 22 TPC-H queries, cache-resident: executor join/agg/motion does most of the work"),
    ("scan_cold",
     "4 scan shapes x 3 formats with a cache far smaller than the data: storage decode and hdfs reads dominate"),
    ("short_serial",
     "400 point lookups/tiny joins on one session: per-statement fixed cost (sql, planner, catalog, txn, rpc, obs) is the latency"),
    ("short_streams",
     "the same templates as closed-loop 8-stream batches: the event-loop driver and resource queues instead of the serial driver"),
    ("load_write",
     "create/load/insert/analyze/read-back/vacuum/drop in three formats: the write path, WAL and space ratio beside reads"),
)

#: (name, unit, better, bound) — what a client of the engine sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.12),
    ("op_p50_ms", "ms", "lower", 0.20),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("sim_s", "sim_s", "lower", 0.05),
    ("stored_bytes_per_user_byte", "B/B", "lower", 0.02),
)

_PACKAGES = (
    "sql", "planner", "catalog", "txn", "cluster", "network", "simtime",
    "executor", "columnar", "storage", "hdfs", "interconnect", "obs",
)

#: (name, unit, better) — single layers, from the traced pass.
PER_LAYER = (
    ("sql.parse.self_s", "s", "lower"),
    ("sql.parse.calls", "count", "lower"),
    ("planner.analyze.self_s", "s", "lower"),
    ("planner.plan.self_s", "s", "lower"),
    ("planner.dispatch.self_s", "s", "lower"),
    ("planner.calls", "count", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("catalog.calls", "count", "lower"),
    ("txn.self_s", "s", "lower"),
    ("txn.calls", "count", "lower"),
    ("txn.wal_records", "count", "lower"),
    ("cluster.rpc.self_s", "s", "lower"),
    ("cluster.rpc.messages", "count", "lower"),
    ("cluster.rpc.bytes", "B", "lower"),
    ("cluster.resqueue.self_s", "s", "lower"),
    ("cluster.resqueue.parked", "count", "lower"),
    ("cluster.resqueue.wait_sim_s", "sim_s", "lower"),
    ("network.simnet.self_s", "s", "lower"),
    ("network.datagrams", "count", "lower"),
    ("simtime.scheduler.self_s", "s", "lower"),
    ("simtime.scheduler.tasks", "count", "lower"),
    ("executor.runtime.self_s", "s", "lower"),
    ("executor.concurrent.self_s", "s", "lower"),
    ("executor.slice.self_s", "s", "lower"),
    ("executor.slice.tasks", "count", "lower"),
    ("executor.tuples", "count", "lower"),
    ("storage.scan.self_s", "s", "lower"),
    ("storage.scan.calls", "count", "lower"),
    ("storage.scan.bytes_read", "B", "lower"),
    ("storage.write.self_s", "s", "lower"),
    ("storage.write.bytes", "B", "lower"),
    ("storage.cache.hits", "count", "higher"),
    ("storage.cache.misses", "count", "lower"),
    ("storage.cache.hit_ratio", "ratio", "higher"),
    ("hdfs.self_s", "s", "lower"),
    ("hdfs.reads", "count", "lower"),
    ("hdfs.writes", "count", "lower"),
    ("hdfs.stored_bytes", "B", "lower"),
    ("interconnect.exchange.self_s", "s", "lower"),
    ("interconnect.motion_streams", "count", "lower"),
    ("interconnect.motion_bytes", "B", "lower"),
    ("obs.self_s", "s", "lower"),
    ("obs.calls", "count", "lower"),
    ("python.gc_s", "s", "lower"),
    ("python.gc_collections", "count", "lower"),
    ("python.pycalls", "count", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
    ("harness.trace_overhead_share", "ratio", "lower"),
    ("harness.cal_ms", "ms", "lower"),
    ("harness.cal_spread", "ratio", "lower"),
    ("harness.round_wall_s", "s", "lower"),
    ("harness.datagen_s", "s", "lower"),
) + tuple((f"{package}.pycalls", "count", "lower") for package in _PACKAGES)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
