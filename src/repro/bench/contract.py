"""The simulated clock's contract: ``CONTRACT.json`` at the repo root.

What the simulated clock must produce lives in that one file, in three
sections:

* ``statements``: per pinned statement, the DISPATCH payload bytes and
  charged seconds, each TPC-H statement's traffic and seconds, the
  EXPLAIN digests and trees, and the on-disk format digests
  (``repro.bench.statements``);
* ``figures``: every cell of Figs 6-13 and the five ablations
  (``repro.bench.figures``);
* ``workloads``: the five ``benchmarks/perf`` workloads' ``sim_s`` and
  ``stored_bytes_per_user_byte`` at one seed, one ``--quick`` round, and
  ``tpch_power``'s must-repeat counters, read from the kit's command
  line (the kit is never imported).

The tier-1 tests and the figure benchmarks take the same readings and
``check`` them against the file exactly: floats by ``repr``. A mismatch
names every moved cell and, for a figure, its headline ratios before and
after beside the paper's. A deliberate change to the clock is re-pinned
in one step, reviewed as one diff::

    PYTHONPATH=src python -m repro.bench.contract   # re-collect, write, print what moved
    git diff CONTRACT.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.bench import figures, statements
from repro.bench.harness import default_scale_factor

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
PATH = os.path.join(ROOT, "CONTRACT.json")
RUN_PY = os.path.join(ROOT, "benchmarks", "perf", "run.py")

#: The workloads section: each ``benchmarks/perf`` workload, its seed,
#: the end-to-end metrics it pins, and the counters that must repeat on
#: ``tpch_power``'s traced round.
WORKLOADS = ("tpch_power", "scan_cold", "short_serial", "short_streams", "load_write")
WORKLOAD_SEED = 2
WORKLOAD_METRICS = ("sim_s", "stored_bytes_per_user_byte")
MUST_REPEAT = (
    "executor.tuples", "executor.slice.tasks",
    "interconnect.motion_streams", "interconnect.motion_bytes",
    "network.datagrams", "cluster.rpc.messages", "cluster.rpc.bytes",
    "simtime.scheduler.tasks", "storage.scan.calls", "storage.cache.hits",
)

REPIN = "re-pin deliberately: PYTHONPATH=src python -m repro.bench.contract, then review `git diff CONTRACT.json`"


# ----------------------------------------------------------------- the file
@lru_cache(maxsize=None)
def load() -> dict:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


def canonical(value):
    """``value`` as JSON holds it: tuples as lists, keys as strings."""
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def cells(value, prefix: str) -> Dict[str, object]:
    """Every leaf of ``value`` by its slash-joined path; a list of
    numbers (one statement's readings, a list of OOM queries) is one
    cell."""
    if isinstance(value, list) and not all(
        item is None or isinstance(item, (int, float)) for item in value
    ):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(cells(item, f"{prefix}/{key}" if prefix else str(key)))
        return out
    return {prefix: value}


def moved(before, after, prefix: str) -> List[Tuple[str, object, object]]:
    """(path, before, after) of each cell that differs, by ``repr``; a
    cell only one side has reads ``None`` on the other."""
    old, new = cells(before, prefix), cells(after, prefix)
    missing = object()
    out = []
    for path in list(old) + [p for p in new if p not in old]:
        a, b = old.get(path, missing), new.get(path, missing)
        if repr(a) != repr(b):
            out.append((path, None if a is missing else a, None if b is missing else b))
    return out


def _ratio(headline, figure_cells):
    if figure_cells is None:
        return None
    try:
        return headline(figure_cells)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None


def report(changes, old: dict, new: dict) -> List[str]:
    """Lines naming each moved cell, then each touched figure's headline
    ratios before and after beside the paper's. ``old``/``new`` map a
    figure's name to its cells."""
    lines = [f"  {path}: {a!r} -> {b!r}" for path, a, b in changes]
    touched = sorted({path.split("/")[1] for path, _, _ in changes if path.startswith("figures/")})
    for name in touched:
        for label, headline, paper in figures.HEADLINES.get(name, ()):
            before = _ratio(headline, old.get(name))
            after = _ratio(headline, new.get(name))
            lines.append(
                f"  {name} {label}: {_fmt(before)} -> {_fmt(after)}"
                f" (paper {_fmt(paper)})"
            )
    return lines


def _fmt(ratio) -> str:
    return "-" if ratio is None else f"{ratio:.4g}"


# ------------------------------------------------------------------ checks
def check(path: Sequence[str], got) -> None:
    """Assert that ``got`` is the contract's value at ``path``, cell by
    cell, floats by ``repr``."""
    want = load()
    for key in path:
        want = want.get(str(key)) if isinstance(want, dict) else None
    got = canonical(got)
    prefix = "/".join(str(key) for key in path)
    changes = moved(want, got, prefix)
    if changes:
        name = prefix.split("/")[1] if prefix.startswith("figures/") else None
        lines = report(changes, {name: want}, {name: got})
        raise AssertionError(
            f"{PATH}: {len(changes)} cell(s) moved under {prefix}\n"
            + "\n".join(lines) + f"\n{REPIN}"
        )


def check_figure(name: str, got: dict) -> None:
    """``check`` one figure's cells, when the benchmarks run at the scale
    factor the contract was collected at."""
    pinned = load()["figures"]["scale_factor"]
    if default_scale_factor() != pinned:
        print(f"  {name}: not checked against {PATH} (pinned at SF {pinned})")
        return
    check(("figures", name), got)


# --------------------------------------------------------------- workloads
def run_workload(workload: str, trace: int) -> dict:
    """One ``--quick`` round of a ``benchmarks/perf`` workload, as the
    command line runs it; its JSON result."""
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(WORKLOAD_SEED),
         "--quick", "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def collect_workloads() -> dict:
    """The workloads section: per workload, whether its answers were
    right and the pinned end-to-end metrics; ``tpch_power``'s counters."""
    out = {"seed": WORKLOAD_SEED, "quick": True}
    for workload in WORKLOADS:
        result = run_workload(workload, trace=0)
        out[workload] = {"correct": result["correct"], "failed": result["failed"]}
        for name in WORKLOAD_METRICS:
            out[workload][name] = result["metrics"][name]["value"]
    traced = run_workload("tpch_power", trace=1)["metrics"]
    out["tpch_power"]["counters"] = {name: traced[name]["value"] for name in MUST_REPEAT}
    return out


# --------------------------------------------------------------- collector
def collect() -> dict:
    return canonical({
        "statements": statements.collect(),
        "figures": figures.collect(),
        "workloads": collect_workloads(),
    })


def main(argv) -> int:
    if argv:
        print("usage: PYTHONPATH=src python -m repro.bench.contract  (no arguments)")
        return 2
    old = load() if os.path.exists(PATH) else {}
    new = collect()
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(new, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    changes = moved(old, new, "")
    print(f"{PATH}: {len(cells(new, ''))} cells, {len(changes)} moved")
    for line in report(changes, old.get("figures", {}), new["figures"]):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
