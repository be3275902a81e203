"""Wall-clock benchmarks for the vectorized executor + block decode cache.

Everything else under ``repro.bench`` reports *simulated* seconds — the
paper-shape figures — which by design are identical between the row and
batch executors. This module measures what the vectorized path actually
buys: real elapsed time.

    python -m repro.bench --wallclock          # report + BENCH_wallclock.json
    python -m repro.bench --wallclock --check  # fail if batch is too slow

The ``--check`` guard has two gates. A 100k-row CO scan-filter-aggregate
microbenchmark (the shape vectorization helps most) with a warm block
cache must show batch mode beating row mode by the backend's threshold:
``CHECK_THRESHOLD`` (5x) on the NumPy backend, where typed vectors,
fused selection kernels and the bincount aggregate fold carry the work,
or ``CHECK_THRESHOLD_FALLBACK`` (1.5x) under ``REPRO_NO_NUMPY=1``, where
batching only amortizes interpretation overhead. And the geometric mean
of the whole-query batch-over-row speedups across the Fig 8 + Fig 9
TPC-H sets must stay above ``TPCH_GEOMEAN_FLOOR`` (1.35x on either
backend): a statement also pays parse, plan, catalog and dispatch,
which no executor change touches, so this is the number a user's wait
actually follows. Every
run also records ``{commit, backend, speedup, tpch_geomean_speedup}`` in
the report's ``history`` — one entry per commit and backend — so
regressions are visible across commits, not just against the gates.
"""

from __future__ import annotations

import json
import math
import time
from typing import Dict, Optional

from repro.bench.harness import (
    BenchConfig,
    NOMINAL_160GB,
    default_scale_factor,
    get_hawq,
)
from repro.bench.reporting import carry_history, print_figure
from repro.columnar import NUMPY_AVAILABLE
from repro.engine import Engine
from repro.tpch.queries import COMPLEX_JOIN_QUERIES, SIMPLE_SELECTION_QUERIES
from repro.util import DeterministicRng

#: Minimum warm-cache speedup of batch over row mode on the microbench
#: when the NumPy vector backend is active.
CHECK_THRESHOLD = 5.0

#: The pure-python ``array`` fallback still has to win, but it only
#: amortizes per-row interpretation, so the bar is lower.
CHECK_THRESHOLD_FALLBACK = 1.5


#: Floor on the geometric-mean whole-query TPC-H speedup: the measured
#: mean less its run-to-run spread, one floor for both backends (joins
#: and motions run no faster on typed vectors than on lists). It is a
#: ratio to the row executor, so it is re-based whenever that reference
#: gets faster: PR 15 made the row path's rows-from-column-blocks
#: adapter a C-level ``zip`` (row mode on these CO tables 25-40 %
#: faster, batch mode unchanged at a warm cache), which took the ratio
#: from 1.79-2.03x to 1.45-1.57x on NumPy (five runs) and 1.62-1.65x on
#: the fallback. At the bench's scale factor a third of a statement is
#: fixed cost outside the executor, which keeps this well below the
#: microbenchmark's ratio.
TPCH_GEOMEAN_FLOOR = 1.35


def active_backend() -> str:
    """Which vector backend this process is using."""
    return "numpy" if NUMPY_AVAILABLE else "fallback"


def check_threshold() -> float:
    """The speedup the ``--check`` gate requires for this backend."""
    return CHECK_THRESHOLD if NUMPY_AVAILABLE else CHECK_THRESHOLD_FALLBACK


#: Root seed for the microbenchmark's engine and data; override with
#: ``python -m repro.bench --wallclock --seed N``.
DEFAULT_SEED = 77

#: Rows in the scan-filter-agg microbenchmark table.
MICROBENCH_ROWS = 100_000

MICROBENCH_QUERY = """
    SELECT c, count(*), sum(a), avg(b)
    FROM wallclock_mb
    WHERE a % 7 < 5 AND b < 0.9
    GROUP BY c
"""


def _metrics_summary(snapshot) -> Dict[str, object]:
    """Compact per-query observability readout for the JSON report."""
    hits = snapshot.total("cache_hits")
    misses = snapshot.total("cache_misses")
    lookups = hits + misses
    return {
        "bytes_read": snapshot.total("bytes_read"),
        "motion_bytes": snapshot.total("motion_bytes"),
        "motion_streams": snapshot.total("motion_streams"),
        "rpc_messages": snapshot.total("rpc_messages"),
        "datagrams_delivered": snapshot.total("datagrams_delivered"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": hits / lookups if lookups else None,
    }


def _tpch_config(executor_mode: str) -> BenchConfig:
    return BenchConfig(
        nominal_bytes=NOMINAL_160GB,
        scale_factor=default_scale_factor(),
        storage_format="co",
        compression="none",
        io_cached=True,
        executor_mode=executor_mode,
    )


def run_tpch_wallclock(repeats: int = 3) -> Dict[str, dict]:
    """Wall + simulated seconds for the Fig 8 (simple selection) and
    Fig 9 (complex join) query sets under both executor modes."""
    out: Dict[str, dict] = {}
    benches = {mode: get_hawq(_tpch_config(mode)) for mode in ("row", "batch")}
    for figure, numbers in (
        ("fig08_simple_selection", SIMPLE_SELECTION_QUERIES),
        ("fig09_complex_joins", COMPLEX_JOIN_QUERIES),
    ):
        queries = {}
        for n in numbers:
            entry = {}
            for mode, bench in benches.items():
                wall, result = bench.time_query(n, repeats=repeats)
                entry[mode] = {
                    "wall_s": wall,
                    "simulated_s": result.cost.seconds,
                    "metrics": _metrics_summary(result.metrics),
                }
            entry["speedup"] = entry["row"]["wall_s"] / entry["batch"]["wall_s"]
            queries[f"q{n}"] = entry
        out[figure] = queries
    return out


def _make_microbench_engine(executor_mode: str, seed: int = DEFAULT_SEED) -> "Engine":
    engine = Engine(
        num_segment_hosts=4,
        segments_per_host=1,
        seed=seed,
        executor_mode=executor_mode,
    )
    session = engine.connect()
    session.execute(
        "CREATE TABLE wallclock_mb (a INT, b DOUBLE, c INT) "
        "WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)"
    )
    rng = DeterministicRng(seed, "wallclock", "microbench-data")
    rows = [
        (i, rng.random(), i % 23) for i in range(MICROBENCH_ROWS)
    ]
    session.load_rows("wallclock_mb", rows)
    return engine


def _time_microbench(executor_mode: str, repeats: int, seed: int) -> float:
    engine = _make_microbench_engine(executor_mode, seed=seed)
    session = engine.connect()
    session.execute(MICROBENCH_QUERY)  # warm the block decode cache
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        session.execute(MICROBENCH_QUERY)
        best = min(best, time.perf_counter() - start)
    return best


def run_microbench(repeats: int = 3, seed: int = DEFAULT_SEED) -> dict:
    """Warm-cache scan-filter-agg over 100k CO rows: row vs batch."""
    row_s = _time_microbench("row", repeats, seed)
    batch_s = _time_microbench("batch", repeats, seed)
    return {
        "rows": MICROBENCH_ROWS,
        "seed": seed,
        "query": " ".join(MICROBENCH_QUERY.split()),
        "backend": active_backend(),
        "row_wall_s": row_s,
        "batch_wall_s": batch_s,
        "speedup": row_s / batch_s,
        "threshold": check_threshold(),
    }


def tpch_geomean_speedup(tpch: Dict[str, dict]) -> float:
    """Geometric mean of the per-query batch-over-row wall speedups."""
    speedups = [
        entry["speedup"] for queries in tpch.values() for entry in queries.values()
    ]
    return math.exp(sum(map(math.log, speedups)) / len(speedups))


def run_wallclock(
    out_path: Optional[str] = "BENCH_wallclock.json",
    check: bool = False,
    repeats: int = 3,
    seed: int = DEFAULT_SEED,
) -> int:
    """Full wall-clock report; returns a process exit code."""
    report = {
        "scale_factor": default_scale_factor(),
        "seed": seed,
        "backend": active_backend(),
        "microbench": run_microbench(repeats=repeats, seed=seed),
        "tpch": run_tpch_wallclock(repeats=repeats),
    }
    report["tpch_geomean_speedup"] = tpch_geomean_speedup(report["tpch"])
    rows = []
    for figure, queries in report["tpch"].items():
        for q, entry in queries.items():
            rows.append(
                (
                    figure.split("_")[0],
                    q,
                    entry["row"]["wall_s"] * 1e3,
                    entry["batch"]["wall_s"] * 1e3,
                    entry["speedup"],
                    entry["batch"]["simulated_s"],
                )
            )
    print_figure(
        "Wall-clock: row vs batch executor (warm block cache)",
        ["figure", "query", "row ms", "batch ms", "speedup", "sim s"],
        rows,
        notes=[
            "simulated seconds identical across modes by construction",
            f"geometric-mean speedup {report['tpch_geomean_speedup']:.2f}x "
            f"(required >= {TPCH_GEOMEAN_FLOOR}x)",
        ],
    )
    micro = report["microbench"]
    print_figure(
        f"Microbench: scan-filter-agg over {micro['rows']} CO rows",
        ["row ms", "batch ms", "speedup", "required"],
        [
            (
                micro["row_wall_s"] * 1e3,
                micro["batch_wall_s"] * 1e3,
                micro["speedup"],
                f">= {micro['threshold']}x",
            )
        ],
    )
    if out_path:
        report["history"] = carry_history(
            out_path,
            {
                "backend": micro["backend"],
                "speedup": micro["speedup"],
                "threshold": micro["threshold"],
                "tpch_geomean_speedup": report["tpch_geomean_speedup"],
            },
            series=("backend",),
        )
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {out_path}")
    if not check:
        return 0
    status = 0
    for label, measured, required in (
        ("microbench batch speedup", micro["speedup"], check_threshold()),
        ("TPC-H geomean batch speedup", report["tpch_geomean_speedup"],
         TPCH_GEOMEAN_FLOOR),
    ):
        if measured < required:
            print(
                f"FAIL: {label} {measured:.2f}x ({micro['backend']} backend) "
                f"below required {required}x"
            )
            status = 1
        else:
            print(
                f"OK: {label} {measured:.2f}x >= {required}x "
                f"({micro['backend']} backend)"
            )
    return status
