"""``python -m repro.lint``: run the determinism & cost sanitizer.

    python -m repro.lint                  # lint src/repro against baseline
    python -m repro.lint --json           # machine-readable findings
    python -m repro.lint --select R1,R4   # subset of rules
    python -m repro.lint --update-baseline  # re-grandfather current findings
    python -m repro.lint --types          # also run mypy on the typed subset
    python -m repro.lint path/to/file.py  # explicit paths

Exit-code contract (relied on by CI and ``tests/test_lint.py``):

* ``0`` — no unbaselined findings (and, with ``--types``, a clean or
  skipped type check),
* ``1`` — at least one unbaselined finding (or type errors),
* ``2`` — internal error (bad arguments, unparsable file, crash).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.core import (
    Baseline,
    default_baseline_path,
    load_project,
    repo_root,
)
from repro.lint.rules import RULES, get_rules

#: Modules held to the stricter ``[tool.mypy]`` contract in pyproject.toml.
TYPED_SUBSET = [
    "src/repro/simtime",
    "src/repro/errors.py",
    "src/repro/util",
    "src/repro/storage/cache.py",
]


def run_types(root: Path) -> int:
    """Run mypy over the typed subset; 0 clean/skipped, 1 errors.

    The container this repo targets does not ship mypy, so a missing
    checker degrades to a loud skip rather than a failure — the config
    in pyproject.toml keeps the contract checkable wherever mypy exists.
    """
    try:
        import mypy  # noqa: F401
    except ImportError:
        print("lint --types: mypy is not installed; skipping type check")
        return 0
    cmd = [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"]
    cmd += [str(root / rel) for rel in TYPED_SUBSET]
    proc = subprocess.run(cmd, cwd=root)
    return 0 if proc.returncode == 0 else 1


def changed_files(root: Path) -> List[Path]:
    """Files under ``src/repro`` changed vs main: the merge-base diff
    plus untracked files. Deleted files are skipped (nothing to lint)."""
    base = subprocess.run(
        ["git", "merge-base", "HEAD", "main"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.strip()
    diff = subprocess.run(
        ["git", "diff", "--name-only", base],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    out = []
    for rel in sorted(set(diff) | set(untracked)):
        if not rel.endswith(".py") or not rel.startswith("src/repro/"):
            continue
        path = root / rel
        if path.exists():
            out.append(path)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="determinism & simulated-cost sanitizer for the engine",
    )
    parser.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src/repro)"
    )
    parser.add_argument("--json", action="store_true", help="JSON report on stdout")
    parser.add_argument(
        "--select", help="comma-separated rule ids/names (default: all)"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: src/repro/lint/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="ignore the baseline entirely"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather all current findings "
        "(keeps reasons of entries that still match)",
    )
    parser.add_argument(
        "--types",
        action="store_true",
        help="also run mypy on the typed subset (simtime, errors, util, "
        "storage/cache)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs the main branch (merge-base diff "
        "plus untracked), restricted to src/repro",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.name:26s} {rule.description}")
        return 0

    # The exit-code contract promises 2 — never a traceback-shaped 1 — on
    # internal failure, so the whole run is fenced. Nothing below raises
    # ClusterError/FaultInjected: this is tooling, not engine code.
    try:  # lint: allow[R4]
        root = repo_root()
        rules = get_rules(args.select.split(",") if args.select else None)
        baseline_path = args.baseline or default_baseline_path()
        baseline = (
            Baseline([]) if args.no_baseline else Baseline.load(baseline_path)
        )
        paths = [Path(p) for p in args.paths] or None
        if args.changed:
            if paths is not None:
                print(
                    "repro.lint: --changed and explicit paths are "
                    "mutually exclusive",
                    file=sys.stderr,
                )
                return 2
            changed = changed_files(root)
            if not changed:
                print("repro.lint: --changed: no changed files under src/repro")
                return 0
        # Subset runs (explicit paths or --changed) cannot see findings
        # outside their slice, so unmatched baseline entries are not
        # evidence of staleness there — only full runs enforce them.
        subset = paths is not None or args.changed
        project = load_project(root=root, paths=paths)
        findings = project.run(rules)
        if args.changed:
            # The whole tree is parsed — the charging call graph (R3)
            # crosses files, and a changed file judged without its
            # unchanged callers reports what a full run does not — and
            # the changed files' findings are the report.
            report = {path.relative_to(root).as_posix() for path in changed}
            findings = [f for f in findings if f.path in report]
        new, old = baseline.split(findings)

        if args.update_baseline:
            reasons = {
                Baseline._key(entry): entry.get("reason", "")
                for entry in baseline.entries
            }
            rebuilt = Baseline.from_findings(
                findings,
                reasons={f.key(): reasons[f.key()] for f in findings if f.key() in reasons},
            )
            rebuilt.save(baseline_path)
            print(
                f"baseline updated: {len(findings)} entries "
                f"({len(new)} newly grandfathered) -> {baseline_path}"
            )
            return 0

        stale = [] if subset else baseline.unused()
        drifts = [] if subset else baseline.drifted(findings)
        drifted_keys = {id(d["entry"]) for d in drifts}
        if args.json:
            print(
                json.dumps(
                    {
                        "version": 1,
                        "files": len(project.files),
                        "rules": [r.id for r in rules],
                        "findings": [f.to_json() for f in new],
                        "baselined": len(old),
                        "stale_baseline_entries": stale,
                        "drifted_baseline_entries": [
                            {
                                "rule": d["entry"].get("rule"),
                                "path": d["entry"].get("path"),
                                "code": d["entry"].get("code"),
                                "old_context": d["old_context"],
                                "new_context": d["new_context"],
                                "line": d["line"],
                            }
                            for d in drifts
                        ],
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            for finding in new:
                print(finding.render())
            for drift in drifts:
                entry = drift["entry"]
                print(
                    "BASELINE DRIFT: "
                    f"{entry.get('rule')} {entry.get('path')} "
                    f"{entry.get('code')!r} moved from context "
                    f"[{drift['old_context']}] to "
                    f"[{drift['new_context']}] (line {drift['line']}); "
                    "update the entry's context or fix the finding"
                )
            for entry in stale:
                if id(entry) in drifted_keys:
                    continue  # already reported, with the new context
                print(
                    "stale baseline entry (fixed or moved): "
                    f"{entry.get('rule')} {entry.get('path')} "
                    f"[{entry.get('context')}] {entry.get('code')!r}"
                )
            print(
                f"repro.lint: {len(project.files)} files, "
                f"{len(rules)} rules, {len(new)} new finding(s), "
                f"{len(old)} baselined, {len(stale)} stale baseline entr"
                f"{'y' if len(stale) == 1 else 'ies'}"
                f"{f', {len(drifts)} DRIFTED' if drifts else ''}"
            )

        status = 1 if new or stale else 0
        if args.types and status == 0:
            status = run_types(root)
        return status
    except Exception as exc:  # lint: allow[R4] — CLI fence, see above
        print(f"repro.lint: internal error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    """``repro-lint`` console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
