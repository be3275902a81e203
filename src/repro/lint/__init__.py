"""``repro.lint``: the determinism & simulated-cost sanitizer.

Every claim this reproduction makes — bit-identical answers under seeded
chaos schedules, byte-identical simulated figures with the decode cache
on, row/batch differential equality — rests on invariants that ordinary
tests cannot see being *violated by new code*:

* no wall-clock or unseeded randomness in engine code (R1, R2),
* every payload byte moved through storage/HDFS/network is charged to
  the ``repro.simtime`` cost model (R3),
* typed ``ClusterError``/``FaultInjected`` exceptions are never swallowed
  by broad ``except`` clauses, so query-level recovery can fire (R4),
* nothing iterates an unordered ``set``/``frozenset`` into plan choice or
  query output without ``sorted(...)`` (R5).

This package machine-enforces them with a small AST-based analysis
framework: a pluggable rule registry (:mod:`repro.lint.rules`), a
project-wide call graph for cost-conformance (:mod:`repro.lint.callgraph`),
per-line ``# lint: allow[RULE-ID] — reason`` suppressions as the one way
to exempt a finding, and machine-readable JSON output.

Run it as ``python -m repro.lint`` (exit 0 clean / 1 findings / 2
internal error) or through the tier-1 gate ``tests/test_lint.py``.
"""

from repro.lint.core import Finding, Project, SourceFile, load_project, repo_root
from repro.lint.rules import RULES, get_rules

__all__ = [
    "Finding",
    "Project",
    "RULES",
    "SourceFile",
    "get_rules",
    "load_project",
    "repo_root",
]
