"""A miniature of the paper's evaluation: HAWQ vs Stinger on TPC-H.

Loads the same generated dataset into both engines, runs a few of the
paper's highlighted queries, verifies the answers agree, and prints the
simulated speedups (Figures 8/9 in miniature).

Run with:  python examples/hawq_vs_stinger.py
"""

from repro.bench.harness import (
    BenchConfig,
    NOMINAL_160GB,
    get_hawq,
    get_stinger,
)
from repro.bench.reference import mismatch
from repro.tpch.queries import QUERIES

SHOWCASE = (1, 5, 6, 9)  # two simple selections, two complex joins


def main() -> None:
    config = BenchConfig(
        nominal_bytes=NOMINAL_160GB, scale_factor=0.002, io_cached=True,
        storage_format="co",
    )
    print("loading TPC-H into HAWQ (CO format) and Stinger (ORC)...")
    hawq = get_hawq(config)
    stinger = get_stinger(config)

    print(f"{'query':>6} {'HAWQ s':>10} {'Stinger s':>10} {'speedup':>8}  answers")
    for number in SHOWCASE:
        hawq_result = hawq.run_query(number)
        stinger_result, status = stinger.run_query(number)
        agree = status == "ok" and mismatch(
            hawq_result.rows, stinger_result.rows
        ) is None
        speedup = stinger_result.seconds / hawq_result.cost.seconds
        print(
            f"{'Q' + str(number):>6} {hawq_result.cost.seconds:>10.1f} "
            f"{stinger_result.seconds:>10.1f} {speedup:>7.0f}x  "
            f"{'match' if agree else 'MISMATCH'}"
        )

    print(
        "\n(simulated seconds at a nominal 160GB on the paper's 16-node "
        "testbed; the full per-figure reproduction lives in benchmarks/)"
    )


if __name__ == "__main__":
    main()
