"""Figure 6: overall execution time of all 22 TPC-H queries at 160 GB.

Paper (CPU-bound case, data fits in page cache):
Stinger 7935 s, HAWQ AO 239 s, CO 211 s, Parquet 172 s — HAWQ ~45x.
"""

from repro.bench import contract
from repro.bench.figures import PAPER_160GB as PAPER, fig06
from repro.bench.reporting import print_figure


def test_fig06_overall_160g(benchmark):
    measured = benchmark.pedantic(fig06, rounds=1, iterations=1)
    rows = [
        (
            system,
            PAPER[system],
            measured[system],
            PAPER["stinger"] / PAPER[system],
            measured["stinger"] / measured[system],
        )
        for system in ("stinger", "ao", "co", "parquet")
    ]
    print_figure(
        "Figure 6: overall TPC-H time, 160GB (CPU-bound)",
        ["system", "paper s", "measured s", "paper speedup", "measured speedup"],
        rows,
        notes=["headline: HAWQ ~45x faster than Stinger at 160GB"],
    )
    benchmark.extra_info.update(
        {f"sim_{k}": v for k, v in measured.items() if k != "oom"}
    )
    contract.check_figure("fig06", measured)

    # Shape assertions: ordering and rough factors must match the paper.
    assert measured["oom"] == [], "no query should OOM at 160GB"
    assert measured["parquet"] <= measured["co"] <= measured["ao"]
    speedup = measured["stinger"] / measured["parquet"]
    assert 20 <= speedup <= 90, f"expected ~45x, got {speedup:.0f}x"
