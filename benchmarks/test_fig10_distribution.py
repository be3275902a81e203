"""Figure 10: hash vs random data distribution (Q5, 8, 9, 18; AO & CO).

Paper: designating good distribution keys brings ~2x on these queries —
co-located equi-joins skip the redistribution motions entirely
(Section 2.3's alignment argument, Q9 walked through in Section 8.3).
"""

from repro.bench import contract
from repro.bench.figures import PAPER_DISTRIBUTION_GAIN, distribution_gains, fig10
from repro.bench.reporting import print_figure


def test_fig10_distribution(benchmark):
    out = benchmark.pedantic(fig10, rounds=1, iterations=1)
    rows = [
        (f"{fmt.upper()} {q}", hash_time, out[fmt]["random"][q],
         out[fmt]["random"][q] / hash_time)
        for fmt in ("ao", "co")
        for q, hash_time in out[fmt]["hash"].items()
    ]
    print_figure(
        "Figure 10: hash vs random distribution, 1.6TB",
        ["config", "hash s", "random s", "random/hash"],
        rows,
        notes=[f"paper: distribution keys bring ~{PAPER_DISTRIBUTION_GAIN}x overall"],
    )
    improvements = distribution_gains(out)
    mean = sum(improvements) / len(improvements)
    benchmark.extra_info["mean_improvement"] = mean
    contract.check_figure("fig10", out)
    assert all(r > 1.0 for r in improvements), improvements
    assert 1.2 <= mean <= 4.0, f"expected ~2x, got {mean:.2f}x"
