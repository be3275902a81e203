"""Figure 9: complex join queries (Q5, 7, 8, 9, 10, 18) at 1.6 TB.

Paper: HAWQ ~40x faster — cost-based planning, pipelined motions and the
interconnect dominate here; some Stinger runs OOM outright.
"""

from repro.bench import contract
from repro.bench.figures import fig08, fig09, speedups
from repro.bench.reporting import print_figure


def test_fig09_complex_joins(benchmark):
    per_query = benchmark.pedantic(fig09, rounds=1, iterations=1)
    rows = [
        (q, c["hawq"], "OOM" if c["stinger"] is None else c["stinger"],
         "-" if c["stinger"] is None else c["stinger"] / c["hawq"])
        for q, c in per_query.items()
    ]
    print_figure(
        "Figure 9: complex join queries, 1.6TB",
        ["query", "HAWQ s", "Stinger s", "speedup"],
        rows,
        notes=["paper: HAWQ ~40x faster on complex joins"],
    )
    ratios = speedups(per_query)
    mean = sum(ratios) / len(ratios)
    benchmark.extra_info["mean_speedup"] = mean
    contract.check_figure("fig09", per_query)
    assert mean > 12, f"expected ~40x on complex joins, got {mean:.0f}x"
    # Complex joins must show a larger gap than simple selections (Fig 8).
    simple_ratios = speedups(fig08())
    assert mean > sum(simple_ratios) / len(simple_ratios)
