"""The repo's benchmark: five workloads, end-to-end and per-layer.

    python benchmarks/perf/run.py                      # every workload, end to end
    python benchmarks/perf/run.py --trace 1            # ... and the per-layer pass
    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/perf/run.py --aa [--runs 10]     # same code twice, against the bounds
    python benchmarks/perf/run.py --quick              # one tiny round each (tests)

Each workload runs in its own fresh subprocess (harness.py) with
``PYTHONHASHSEED=0``. Every metric is printed by name with its unit;
with ``--workload`` the last line of stdout is the run's JSON result
(``correct``, ``attempted``, ``failed``, ``metrics``). ``--trace 0``
reports the end-to-end metrics of the untraced pass, ``--trace 1`` the
per-layer metrics of the traced pass; a wrong answer or a failed op
shows in that result. Without ``--workload`` the exit code is 1 when an
answer was wrong, an op failed, or ``--aa`` found a metric outside its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

#: A run must end well inside the driver's 180 s.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One workload in a fresh interpreter; returns its JSON result."""
    command = [
        sys.executable, os.path.join(HERE, "harness.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"perf: {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def show(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")


def suite(workloads: List[str], seed: int, seconds: float, trace: int, quick: bool) -> int:
    status = 0
    for workload in workloads:
        for mode in range(trace + 1):
            result = run_child(workload, seed, seconds, mode, quick)
            show(workload, result)
            status |= not result["correct"]
    return status


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def aa(workloads: List[str], seed: int, seconds: float, runs: int, quick: bool) -> int:
    """Two sets of ``runs`` runs (seeds seed..seed+runs-1 in each) of the
    same checkout: per workload x end-to-end metric, each set's spread
    and the second median against the first, beside the bound."""
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    status = 0
    for label in "AB":
        values: Dict[str, Dict[str, List[float]]] = {}
        for workload in workloads:
            per_metric = values.setdefault(workload, {})
            started = time.perf_counter()
            for offset in range(runs):
                result = run_child(workload, seed + offset, seconds, 0, quick)
                status |= not result["correct"]
                for name, metric in result["metrics"].items():
                    per_metric.setdefault(name, []).append(metric["value"])
            print(f"set {label}: {workload} x{runs} took "
                  f"{time.perf_counter() - started:.0f} s", flush=True)
        sets.append(values)
    print(f"{'workload':14s} {'metric':27s} {'median A':>12s} {'median B':>12s} "
          f"{'B vs A':>8s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}")
    for workload in workloads:
        for name, _unit, better, bound in spec.END_TO_END:
            first, second = (s[workload][name] for s in sets)
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if better == "lower" else (a - b) / a
            spreads = [spread(v) if len(v) >= 2 else 0.0 for v in (first, second)]
            breach = worse > bound or (name != "setup_s" and max(spreads) > bound)
            status |= breach
            print(f"{workload:14s} {name:27s} {a:12.6g} {b:12.6g} {worse:+8.2%} "
                  f"{spreads[0]:8.2%} {spreads[1]:8.2%} {bound:6.0%}"
                  f"{'  BREACH' if breach else ''}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [name for name, _why in spec.WORKLOADS]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and compare against the bounds")
    parser.add_argument("--runs", type=int, default=3, help="runs per --aa set")
    parser.add_argument("--quick", action="store_true",
                        help="one round at a tiny scale (tests)")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    if args.aa:
        return aa(workloads, args.seed, args.seconds, args.runs, args.quick)
    if args.workload is None:
        return suite(workloads, args.seed, args.seconds, args.trace, args.quick)
    result = run_child(args.workload, args.seed, args.seconds, args.trace, args.quick)
    show(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
