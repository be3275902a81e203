"""Benchmark harness reproducing the paper's evaluation (Section 8)."""

from repro.bench.harness import (
    BenchConfig,
    HawqBench,
    StingerBench,
    suite_seconds,
)
from repro.bench.reporting import format_table, print_figure

__all__ = [
    "BenchConfig",
    "HawqBench",
    "StingerBench",
    "format_table",
    "print_figure",
    "suite_seconds",
]
