"""The one benchmark that is not a paper figure, from the command line.

    python -m repro.bench --wallclock          # typed-kernel microbenchmark
    python -m repro.bench --wallclock --check  # perf guard (exit 1 on fail)
    python -m repro.bench --wallclock --check --no-report  # skip the JSON

The paper's figures (6-13 and the ablations) are measured once, in
``repro.bench.figures``; their tables and shape assertions are under
``benchmarks/``, and ``CONTRACT.json`` holds every cell
(``repro.bench.contract``):
``python -m pytest benchmarks/ --benchmark-only --ignore=benchmarks/perf -s``
prints every table.
"""

from __future__ import annotations

import sys

FIGURES_COMMAND = (
    "python -m pytest benchmarks/ --benchmark-only --ignore=benchmarks/perf -s"
)


def main(argv) -> int:
    if "--wallclock" not in argv:
        print("usage: python -m repro.bench --wallclock "
              "[--check] [--no-report] [--seed N]")
        print(f"the paper's figures run via `{FIGURES_COMMAND}`")
        return 2
    from repro.bench.wallclock import DEFAULT_SEED, run_wallclock

    out_path = "BENCH_wallclock.json"
    if "--no-report" in argv:
        # Run without (re)writing the artifact — used by the CI
        # fallback-mode pass so the committed BENCH_wallclock.json stays
        # the numpy-backend run.
        out_path = None
    seed = DEFAULT_SEED
    rest = [
        a for a in argv if a not in ("--wallclock", "--check", "--no-report")
    ]
    if "--seed" in rest:
        at = rest.index("--seed")
        try:
            seed = int(rest[at + 1])
        except (IndexError, ValueError):
            print("--seed requires an integer value")
            return 2
        del rest[at : at + 2]
    if rest:
        print(f"--wallclock takes no other arguments: {rest}")
        return 2
    return run_wallclock(out_path=out_path, check="--check" in argv, seed=seed)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
