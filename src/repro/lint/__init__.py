"""``repro.lint``: the determinism & isolation linter.

Every claim this reproduction makes — bit-identical answers under seeded
chaos schedules, serial≡concurrent answers and charges, row/batch
differential equality — rests on invariants that new code can break
without any test noticing yet:

* no wall-clock or unseeded randomness in engine code (R1, R2),
* typed ``ClusterError``/``FaultInjected`` exceptions are never swallowed
  by broad ``except`` clauses, so query-level recovery can fire (R4),
* nothing iterates an unordered ``set``/``frozenset`` into plan choice or
  query output without ``sorted(...)`` (R5),
* observability never charges the clock (R6), module-level state that
  queries share is registered (R7), the scheduler's order is total (R8),
  dispatch and charged iterators are paired with their ends (R9), and
  what one module or function owns, or the engine retired, is named
  nowhere else (R10).

Each rule reads one file's AST (:mod:`repro.lint.rules`); a per-line
``# lint: allow[RULE-ID] — reason`` comment is the one way to exempt a
finding. "Every moved byte is charged" (the retired R3) is checked at run
time instead, by ``tests/test_byte_conservation.py``.

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
