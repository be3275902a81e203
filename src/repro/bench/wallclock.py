"""Wall-clock microbenchmark for the vectorized executor's typed kernels.

Everything else under ``repro.bench`` reports *simulated* seconds — the
paper-shape figures — which by design are identical between the row and
batch executors. Real elapsed time of whole statements is measured and
gated in one place, ``benchmarks/perf`` (absolute bounds in
``BENCHMARK.json``). This module keeps the one check that kit cannot
make at its scale factor: it runs the typed-vector kernels at a size
where they pay.

    python -m repro.bench --wallclock          # report + BENCH_wallclock.json
    python -m repro.bench --wallclock --check  # fail if batch is too slow

A 100k-row CO scan-filter-aggregate (the shape vectorization helps most)
with a warm block cache must show batch mode beating row mode by the
platform's threshold: ``CHECK_THRESHOLD`` (5x) with NumPy, where typed
vectors, fused selection kernels and the bincount aggregate fold carry
the work, or ``CHECK_THRESHOLD_FALLBACK`` (1.5x) without it
(``REPRO_NO_NUMPY=1``), where the blocks decode to plain lists and
batching only amortizes interpretation overhead. Every run also records
``{commit, backend, speedup}`` in the report's ``history`` — one entry
per commit and backend — so regressions are visible across commits, not
just against the gate.
"""

from __future__ import annotations

import json
import time
from typing import Optional

from repro.bench.reporting import carry_history, print_figure
from repro.columnar import NUMPY_AVAILABLE
from repro.engine import Engine
from repro.util import DeterministicRng

#: Minimum warm-cache speedup of batch over row mode on the microbench
#: when CO blocks decode to typed (NumPy) vectors.
CHECK_THRESHOLD = 5.0

#: Without NumPy the blocks decode to plain lists; batches of lists still
#: have to win, but they only amortize per-row interpretation, so the bar
#: is lower.
CHECK_THRESHOLD_FALLBACK = 1.5


def active_backend() -> str:
    """What this process's CO blocks decode to: ``numpy`` (typed
    vectors) or ``fallback`` (plain lists; the name is the artifact's
    ``history`` key)."""
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


def run_wallclock(
    out_path: Optional[str] = "BENCH_wallclock.json",
    check: bool = False,
    repeats: int = 3,
    seed: int = DEFAULT_SEED,
) -> int:
    """Run the microbenchmark; returns a process exit code."""
    micro = run_microbench(repeats=repeats, seed=seed)
    report = {"microbench": micro}
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
            },
            series=("backend",),
        )
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {out_path}")
    if not check:
        return 0
    verdict = (
        f"microbench batch speedup {micro['speedup']:.2f}x "
        f"({micro['backend']} backend)"
    )
    if micro["speedup"] < micro["threshold"]:
        print(f"FAIL: {verdict} below required {micro['threshold']}x")
        return 1
    print(f"OK: {verdict} >= {micro['threshold']}x")
    return 0
