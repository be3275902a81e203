"""Every file, test and ``repro.`` name that DESIGN.md, README.md or
EXPERIMENTS.md cites exists: read through ``ast``, nothing imported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
#: ``path.py`` or ``path.py::Name::name``; a path may leave out its
#: leading directories (``executor/expr.py`` is ``src/repro/executor/``).
CITED = re.compile(r"(?<![\w/.-])((?:\w+/)*\w+\.py)(?!\w)((?:(?:::|\.)\w+)*)")
DOTTED = re.compile(r"(?<![\w./])repro(?:\.\w+)+")


def defined(body):
    """A module's or class's own names: defs, classes, assignments and
    imports, each with its node."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update((n.id, n) for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(((a.asname or a.name).split(".")[0], a) for a in node.names)
    return names


def has(path, members):
    body = ast.parse(path.read_text()).body if members else []
    for name in members:
        node = defined(body).get(name)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def unresolved(text):
    """The citations in ``text`` that name nothing in the repository."""
    files = ["/" + p.relative_to(ROOT).as_posix() for p in ROOT.rglob("*.py")]
    missing = []
    for match in CITED.finditer(text):
        cited, members = match.group(1), re.split(r"::|\.", match.group(2))[1:]
        if not any(f.endswith("/" + cited) and has(ROOT / f[1:], members) for f in files):
            missing.append(match.group(0))
    for match in DOTTED.finditer(text):
        path, parts = ROOT / "src" / "repro", match.group(0).split(".")[1:]
        while parts and ((path / parts[0]).is_dir() or (path / f"{parts[0]}.py").is_file()):
            head = parts.pop(0)
            path = path / head if (path / head).is_dir() else path / f"{head}.py"
        if not has(path / "__init__.py" if path.is_dir() else path, parts):
            missing.append(match.group(0))
    return missing


def test_every_citation_in_the_documents_resolves():
    text = "\n".join((ROOT / doc).read_text() for doc in DOCS)
    assert len(CITED.findall(text)) > 100 and len(DOTTED.findall(text)) > 40
    assert unresolved(text) == []


def test_a_citation_of_a_deleted_test_does_not():
    planted = [
        "tests/test_table_files.py::TestGone", "engine.py::Session._gone",
        "executor/expr.py::_LIKE_CACHE", "repro.chaos.orphaned_files", "repro.txn.gone",
    ]
    assert unresolved(" ".join(planted)) == [planted[0], planted[1], planted[4]]
