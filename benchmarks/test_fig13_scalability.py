"""Figure 13: scalability, 4 -> 16 nodes.

Paper:
(a) fixed 40 GB *per node*: total time grows only ~13% while the data
    quadruples — near-linear scale-up;
(b) fixed 160 GB *total*: time drops to ~28% of the 4-node time at 16
    nodes — near-linear speed-up.
"""

from repro.bench import contract
from repro.bench.figures import NODES, PER_NODE_BYTES, fig13a, fig13b
from repro.bench.reporting import print_figure


def test_fig13a_scaleup(benchmark):
    out = benchmark.pedantic(fig13a, rounds=1, iterations=1)
    base = out[str(NODES[0])]
    rows = [
        (n, PER_NODE_BYTES * n / 1e9, out[str(n)], out[str(n)] / base) for n in NODES
    ]
    print_figure(
        "Figure 13(a): fixed 40GB/node, 4->16 nodes (scale-up)",
        ["nodes", "dataset GB", "suite s", "vs 4 nodes"],
        rows,
        notes=["paper: time grows only ~13% as data quadruples"],
    )
    growth = out[str(NODES[-1])] / base
    benchmark.extra_info["growth"] = growth
    contract.check_figure("fig13a", out)
    assert growth < 1.4, f"scale-up should be near-flat, got {growth:.2f}x"


def test_fig13b_speedup(benchmark):
    out = benchmark.pedantic(fig13b, rounds=1, iterations=1)
    base = out[str(NODES[0])]
    rows = [(n, out[str(n)], out[str(n)] / base, base / out[str(n)]) for n in NODES]
    print_figure(
        "Figure 13(b): fixed 160GB total, 4->16 nodes (speed-up)",
        ["nodes", "suite s", "vs 4 nodes", "speedup"],
        rows,
        notes=["paper: 16-node time is ~28% of the 4-node time"],
    )
    ratio = out[str(NODES[-1])] / base
    benchmark.extra_info["ratio"] = ratio
    contract.check_figure("fig13b", out)
    assert 0.15 <= ratio <= 0.6, f"expected ~0.28, got {ratio:.2f}"
    # Monotone improvement with cluster size.
    times = [out[str(n)] for n in NODES]
    assert times == sorted(times, reverse=True), times
