"""The five ``benchmarks/perf`` workloads on the simulated clock.

One ``--quick`` round of each at the contract's seed, run as the kit's
command line runs it (``repro.bench.contract.collect_workloads``): every
answer right, and ``sim_s``, ``stored_bytes_per_user_byte`` and
``tpch_power``'s must-repeat counters exactly as ``CONTRACT.json``
holds them.
"""

from repro.bench import contract
from repro.bench.reporting import print_figure


def test_workloads_repeat_the_contract(benchmark):
    out = benchmark.pedantic(contract.collect_workloads, rounds=1, iterations=1)
    print_figure(
        f"benchmarks/perf workloads, seed {out['seed']}, one --quick round",
        ["workload", "correct", "sim_s", "stored B / user B"],
        [
            (w, out[w]["correct"], out[w]["sim_s"], out[w]["stored_bytes_per_user_byte"])
            for w in contract.WORKLOADS
        ],
    )
    contract.check(("workloads",), out)
    assert all(out[w]["correct"] and not out[w]["failed"] for w in contract.WORKLOADS)
