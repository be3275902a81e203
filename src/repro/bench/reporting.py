"""Formatting helpers for benchmark output.

Every figure benchmark prints a table comparing the paper's reported
numbers to the measured (simulated) ones, plus the derived shape metrics
(speedup factors, scaling ratios) that the reproduction is judged on.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Dict, List, Optional, Sequence, Tuple


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in cells)) if cells
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def print_figure(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Optional[Sequence[str]] = None,
) -> str:
    """Print one figure's reproduction table and return the text."""
    lines = ["", "=" * 72, title, "=" * 72]
    lines.append(format_table(headers, rows))
    for note in notes or []:
        lines.append(f"  * {note}")
    text = "\n".join(lines)
    print(text)
    return text


def current_commit() -> str:
    """``git describe`` of the working tree the bench runs in (short
    hash, ``-dirty`` when it has uncommitted changes), or ``unknown``
    outside a checkout."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _same_measurement(a: dict, b: dict) -> bool:
    shared = (a.keys() & b.keys()) - {"commit"}
    return bool(shared) and all(a[key] == b[key] for key in shared)


def carry_history(
    out_path: str, entry: Dict[str, object], series: Sequence[str] = ()
) -> List[dict]:
    """A ``BENCH_*.json``'s prior ``history`` plus this run's ``entry``.

    Entries are keyed by commit: a re-run at the same commit (and the
    same values of the ``series`` fields, e.g. the vector backend)
    replaces the entry it follows instead of piling up beside it, and
    consecutive entries already in the file that agree on every key both
    carry — ``commit`` aside: the same numbers at a later commit, or
    under a report that had since grown a field — collapse to the
    earlier one (which gains the fields only the later one has), so
    every line of the history is a point where something could have
    moved."""
    history: List[dict] = []
    if os.path.exists(out_path):
        try:
            with open(out_path) as fh:
                loaded = json.load(fh).get("history", [])
        except (OSError, ValueError):
            loaded = []
        for old in loaded:
            if history and _same_measurement(history[-1], old):
                history[-1] = {**old, **history[-1]}
            else:
                history.append(old)
    entry = dict(entry, commit=current_commit())
    key = [entry.get(name) for name in ("commit", *series)]
    if history and [history[-1].get(n) for n in ("commit", *series)] == key:
        history[-1] = entry
    else:
        history.append(entry)
    return history
