"""Framework plumbing for the linter: sources, findings, projects.

The moving parts, in the order a run uses them:

* :func:`load_project` walks a source tree and parses every ``.py`` file
  into a :class:`SourceFile` (AST + per-line suppressions).
* :class:`Project` hands each registered rule the parsed files plus
  shared analyses (R7's registry is parsed once and cached here).
* Rules yield :class:`Finding`s; findings matching a per-line
  ``# lint: allow[RULE-ID] — reason`` comment are dropped at collection
  time.  That comment is the only exemption mechanism: it sits on the
  exempted line (or the line above), so it moves and dies with the code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Matches ``lint: allow[R1]``, ``allow[R1, R4]`` and ``allow[*]`` comments.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9_*,\s-]+)\]")


def repo_root() -> Path:
    """The repository root, derived from this package's location."""
    # src/repro/lint/core.py -> src/repro/lint -> src/repro -> src -> root
    return Path(__file__).resolve().parents[3]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str  # repo-relative, POSIX separators
    line: int
    message: str
    #: Qualified name of the enclosing function ("<module>" at top level).
    context: str = "<module>"
    #: The offending source line, stripped.
    code: str = ""

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "context": self.context,
            "code": self.code,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.context}] {self.message}"


class SourceFile:
    """One parsed module: AST, raw lines, suppressions, scope map."""

    def __init__(self, path: str, text: str):
        self.path = path  # repo-relative POSIX path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self.suppressions = self._scan_suppressions()
        self._index()

    # ------------------------------------------------------------ suppressions
    def _scan_suppressions(self) -> Dict[int, set]:
        out: Dict[int, set] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                out[lineno] = {r for r in rules if r}
        return out

    def is_suppressed(self, rule: str, lineno: int) -> bool:
        """True if ``lineno`` (or the line just above it, for own-line
        comments) carries an ``allow`` comment naming ``rule`` or ``*``."""
        for candidate in (lineno, lineno - 1):
            rules = self.suppressions.get(candidate)
            if rules and (rule in rules or "*" in rules):
                return True
        return False

    # ------------------------------------------------------------------ scopes
    def _index(self) -> None:
        """One breadth-first walk: :attr:`nodes` in ``ast.walk`` order,
        which every rule iterates, and each node's innermost enclosing
        function or class."""
        self.nodes: List[ast.AST] = [self.tree]
        self._scope_of: Dict[int, str] = {id(self.tree): "<module>"}
        inner = ["<module>"]  # the scope of each node's children
        for node, scope in zip(self.nodes, inner):  # both grow as read
            for child in ast.iter_child_nodes(node):
                self._scope_of[id(child)] = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner.append(
                        child.name if scope == "<module>" else f"{scope}.{child.name}"
                    )
                else:
                    inner.append(scope)
                self.nodes.append(child)

    def scope_of(self, node: ast.AST) -> str:
        return self._scope_of.get(id(node), "<module>")

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            path=self.path,
            line=lineno,
            message=message,
            context=self.scope_of(node),
            code=self.line_text(lineno),
        )


@dataclass
class Project:
    """All parsed sources plus lazily built shared analyses."""

    root: Path
    files: List[SourceFile] = field(default_factory=list)
    _caches: dict = field(default_factory=dict)

    def shared(self, key: str, build) -> object:
        """Memoize a project-wide analysis (e.g. R7's registry)."""
        if key not in self._caches:
            self._caches[key] = build(self)
        return self._caches[key]

    def run(self, rules: Sequence[object]) -> List[Finding]:
        """Run every rule over every file; drop suppressed findings."""
        findings: List[Finding] = []
        for rule in rules:
            for source in self.files:
                for finding in rule.check_file(source, self):
                    if not source.is_suppressed(finding.rule, finding.line):
                        findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return findings


def _iter_py_files(base: Path) -> Iterable[Path]:
    if base.is_file():
        if base.suffix == ".py":
            yield base
        return
    for path in sorted(base.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def load_project(
    root: Optional[Path] = None, paths: Optional[Sequence[Path]] = None
) -> Project:
    """Parse a source tree. ``paths`` defaults to ``<root>/src/repro``."""
    root = Path(root) if root is not None else repo_root()
    bases = [Path(p) for p in paths] if paths else [root / "src" / "repro"]
    project = Project(root=root)
    seen = set()
    for base in bases:
        base = base if base.is_absolute() else root / base
        for path in _iter_py_files(base):
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                # Explicit path outside the root (e.g. a scratch file):
                # keep it absolute rather than refusing to lint it.
                rel = path.resolve().as_posix()
            if rel in seen:
                continue
            seen.add(rel)
            project.files.append(SourceFile(rel, path.read_text()))
    project.files.sort(key=lambda s: s.path)
    return project


def project_from_sources(sources: Dict[str, str], root: Optional[Path] = None) -> Project:
    """Build a Project from in-memory ``{path: text}`` (used by tests)."""
    project = Project(root=Path(root) if root else repo_root())
    for path, text in sorted(sources.items()):
        project.files.append(SourceFile(path, text))
    return project

