"""``python -m repro.lint``: run the determinism & isolation linter.

    python -m repro.lint                  # lint src/repro
    python -m repro.lint --json           # machine-readable findings
    python -m repro.lint --select R1,R4   # subset of rules
    python -m repro.lint path/to/file.py  # explicit paths

Exit-code contract (relied on by CI and ``tests/test_lint.py``):

* ``0`` — no findings,
* ``1`` — at least one finding,
* ``2`` — internal error (bad arguments, unparsable file, crash).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.core import load_project
from repro.lint.rules import RULES, get_rules


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="determinism & isolation linter for the engine",
    )
    parser.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src/repro)"
    )
    parser.add_argument("--json", action="store_true", help="JSON report on stdout")
    parser.add_argument(
        "--select", help="comma-separated rule ids/names (default: all)"
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
    try:
        rules = get_rules(args.select.split(",") if args.select else None)
        paths = [Path(p) for p in args.paths] or None
        project = load_project(paths=paths)
        findings = project.run(rules)
        if args.json:
            print(
                json.dumps(
                    {
                        "version": 2,
                        "files": len(project.files),
                        "rules": [r.id for r in rules],
                        "findings": [f.to_json() for f in findings],
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            for finding in findings:
                print(finding.render())
            print(
                f"repro.lint: {len(project.files)} files, "
                f"{len(rules)} rules, {len(findings)} new finding(s)"
            )
        return 1 if findings else 0
    except Exception as exc:  # lint: allow[R4] — CLI fence, see above
        print(f"repro.lint: internal error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    """``repro-lint`` console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
