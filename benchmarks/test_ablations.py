"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation disables one HAWQ mechanism and measures what it was
buying (the measurements are ``repro.bench.figures.ablation_*``):

* **direct dispatch** (Section 3): single-segment lookups skip the full
  N-gang dispatch;
* **metadata dispatch** (Section 3.1): self-described plans spare QEs a
  catalog-RPC storm against the master;
* **partition elimination** (Section 2.3): date-ranged scans skip
  partitions the predicate excludes;
* **pipelined motions** (Section 3): slices stream through motions
  instead of materializing between stages (the MapReduce failure mode);
* **co-location awareness** (Section 2.3): joins on the distribution
  key skip the redistribution.
"""

from repro.bench import contract, figures
from repro.bench.reporting import print_figure


def _run(benchmark, name, title, header, rows=None):
    """Measure one ablation, print it, record its gain and check its cells."""
    cells = benchmark.pedantic(getattr(figures, name), rounds=1, iterations=1)
    print_figure(
        title, header,
        rows(cells) if rows else [("on", cells["on"]), ("off", cells["off"])],
    )
    benchmark.extra_info["gain"] = cells["off"] / cells["on"]
    contract.check_figure(name, cells)
    assert cells["on"] < cells["off"]
    return cells


def test_ablation_direct_dispatch(benchmark):
    cells = _run(
        benchmark, "ablation_direct_dispatch",
        "Ablation: direct dispatch (40 single-row lookups)",
        ["direct dispatch", "total s"],
    )
    assert cells["rows_on"] == cells["rows_off"] == [1] * 40


def test_ablation_metadata_dispatch(benchmark):
    _run(
        benchmark, "ablation_metadata_dispatch",
        "Ablation: metadata dispatch (self-described plans vs catalog RPCs)",
        ["metadata dispatch", "query s"],
    )


def test_ablation_partition_elimination(benchmark):
    cells = _run(
        benchmark, "ablation_partition_elimination",
        "Ablation: partition elimination (6-month slice of 7 years)",
        ["elimination", "query s"],
    )
    assert cells["answer_on"] == cells["answer_off"]


def test_ablation_pipelining(benchmark):
    _run(
        benchmark, "ablation_pipelining",
        "Ablation: pipelined slices vs staged (materialize-per-stage)",
        ["execution", "query s"],
        rows=lambda c: [("pipelined", c["on"]), ("staged", c["off"])],
    )


def test_ablation_colocation_awareness(benchmark):
    """PlannerOptions.enable_colocation=False makes the planner ignore
    existing hash distributions entirely — every join redistributes, as
    if all tables were randomly distributed (Section 2.3's motivation)."""
    cells = _run(
        benchmark, "ablation_colocation",
        "Ablation: co-location awareness (the paper's Figure 3 query)",
        ["colocation", "query s", "slices"],
        rows=lambda c: [
            ("on", c["on"], c["slices_on"]),
            ("off", c["off"], c["slices_off"]),
        ],
    )
    # The co-located plan is Figure 3(a): fewer slices.
    assert cells["slices_on"] < cells["slices_off"]
