"""The determinism & isolation linter: rules, suppressions, CLI, and the
gate on the live tree.

* **Rule cases** — one table, :data:`CASES`: for each kind of finding a
  rule makes, one snippet it flags (at the listed lines) and one it
  leaves alone, linted in memory.
* **The repo gate** — the live tree is parsed and linted once a session
  (``live_lint``). It must have zero findings, every ``# lint: allow``
  in it must exempt a real finding and say why, and R10's plants swap
  one file of that parse. The CLI's exit codes and JSON shape are
  checked in process on a small file set (``scripts/ci.sh`` runs the
  CLI over the whole tree), and one more run of every rule, over the
  same parse in reversed file order, must report the same findings.

Which invariants are left to run-time tests instead, and the plants
that decided it, are in DESIGN.md's lint section.
"""

import ast
import io
import json
import tokenize
from types import SimpleNamespace

import pytest

from repro.lint import Project, SourceFile, load_project, repo_root
from repro.lint.core import _SUPPRESS_RE, project_from_sources
from repro.lint.__main__ import main as lint_main
from repro.lint.rules import OWNED, RULES, CrossQueryIsolationRule, get_rules
from repro.lint.shared_state import SHARED_STATE

REPO = repo_root()
RULE_IDS = ["R1", "R2", "R4", "R5", "R6", "R7", "R8", "R9", "R10"]


def run_rules(sources, select=None):
    """Lint in-memory sources; return findings from the chosen rules."""
    return project_from_sources(sources).run(get_rules(select))


def raw_findings(project):
    """What :meth:`Project.run` reports with every rule, suppressed
    findings kept, in its order."""
    findings = [
        finding
        for rule in get_rules()
        for source in project.files
        for finding in rule.check_file(source, project)
    ]
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


@pytest.fixture(scope="session")
def live_lint():
    """The live tree, parsed and linted once a session, suppressed
    findings kept in ``raw``: tests that judge the tree as it is read
    this, and planting tests swap one file of it."""
    project = load_project()
    raw = raw_findings(project)
    files = {source.path: source for source in project.files}
    return SimpleNamespace(
        project=project,
        raw=raw,
        findings=[f for f in raw if not files[f.path].is_suppressed(f.rule, f.line)],
    )


# ================================================================ rule cases
#: (case id, path, source, lines the case's rule flags). The rule is the
#: id's prefix; each kind of finding has a flagged and a clean case, and
#: a spelling the detector must also read (a bare ``except``,
#: ``charge_control``, a ``closing`` block) has a row of its own.
#: R10's cases are its plants on the live tree (``GUARD_PLANTS``).
CASES = [
    # R1: a host clock outside bench/ and simtime.
    ("R1-time-call", "src/repro/executor/runner.py",
     "import time as clock\nt = clock.monotonic()\n", [2]),
    ("R1-time-attribute-is-no-call", "src/repro/engine.py",
     "import time\ntime.sleep\n", []),
    ("R1-imported-clock", "src/repro/engine.py",
     "from time import perf_counter\ndef f():\n    return perf_counter()\n", [3]),
    ("R1-bench-measures", "src/repro/bench/wallclock.py",
     "from time import perf_counter\nt = perf_counter()\n", []),
    ("R1-datetime-now", "src/repro/obs/activity.py",
     "from datetime import datetime\nt = datetime.now()\n", [2]),
    ("R1-datetime-not-now", "src/repro/obs/activity.py",
     "import datetime\nt = datetime.date.fromordinal(1)\n", []),
    # R2: randomness that no seed names.
    ("R2-from-random", "src/repro/planner/join.py", "from random import shuffle\n", [1]),
    ("R2-rng-module", "src/repro/util/rng.py", "from random import Random\n", []),
    ("R2-random-construction", "src/repro/engine.py",
     "import random\nrng = random.Random()\n", [2]),
    ("R2-seeded-stream", "src/repro/chaos/plan.py",
     "from repro.util import DeterministicRng\nrng = DeterministicRng(7, 'plan')\n", []),
    ("R2-module-level-draw", "src/repro/cluster/fault.py",
     "import random\nx = random.choice([1, 2])\n", [2]),
    ("R2-stream-draw", "src/repro/cluster/fault.py",
     "import random\ndef f(rng):\n    return rng.choice([1, 2])\n", []),
    # R4: a broad handler that swallows.
    ("R4-swallowing-handler", "src/repro/engine.py",
     "def f():\n    try:\n        g()\n    except Exception:\n"
     "        def later():\n            raise ValueError\n        return later\n", [4]),
    ("R4-reraising-handler", "src/repro/engine.py",
     "def f():\n    try:\n        g()\n    except:\n        log()\n        raise\n", []),
    ("R4-bare-except-and-cluster-error", "src/repro/dispatch.py",
     "from repro.errors import ClusterError\ndef f():\n    try:\n        g()\n"
     "    except ClusterError:\n        return None\n    try:\n        g()\n"
     "    except:\n        return None\n", [5, 9]),
    ("R4-narrow-handler", "src/repro/engine.py",
     "def f():\n    try:\n        g()\n    except (KeyError, ValueError):\n"
     "        return None\n", []),
    # R5: unordered iteration into ordered output.
    ("R5-set-expression", "src/repro/columnar/kernels.py",
     "for x in {3, 1, 2} | set():\n    print(x)\n", [1]),
    ("R5-out-of-scope", "src/repro/hdfs/filesystem.py",
     "for x in {3, 1, 2}:\n    print(x)\n", []),
    ("R5-set-bound-local", "src/repro/simtime/scheduler.py",
     "def f(cols):\n    used = set(cols)\n    alive = used\n    return [c for c in alive]\n",
     [4]),
    ("R5-sorted-local", "src/repro/planner/scan.py",
     "def f(cols):\n    used = set(cols)\n    return [c for c in sorted(used)]\n", []),
    ("R5-keys-view", "src/repro/catalog/tables.py",
     "def f(mapping):\n    return list(mapping.keys())\n", [2]),
    ("R5-items-view", "src/repro/catalog/tables.py",
     "def f(mapping):\n    return list(mapping.items())\n", []),
    ("R5-set-default", "src/repro/planner/planner.py",
     "def f(needed, i):\n    return ','.join(needed.get(i, set()))\n", [2]),
    ("R5-list-default", "src/repro/planner/planner.py",
     "def f(needed, i):\n    return ','.join(needed.pop(i, []))\n", []),
    ("R5-set-annotation", "src/repro/executor/nodes.py",
     "from typing import Set\ndef f(names: Set[str]):\n    yield from names\n", [3]),
    ("R5-list-annotation", "src/repro/executor/nodes.py",
     "from typing import List\ndef f(names: List[str]):\n    yield from names\n", []),
    # R6: observability that spends the clock or forces vectors.
    ("R6-charging-call", "src/repro/obs/trace.py",
     "def record(acc):\n    acc.fixed(0.01)\n", [2]),
    ("R6-charging-outside-obs", "src/repro/executor/runner.py",
     "def record(acc):\n    acc.fixed(0.01)\n", []),
    ("R6-cost-write", "src/repro/obs/metrics.py",
     "def record(acc):\n    acc.seconds += 1.0\n", [2]),
    ("R6-cost-read", "src/repro/obs/metrics.py",
     "def record(acc):\n    return acc.seconds\n", []),
    ("R6-materialization", "src/repro/obs/trace.py",
     "def peek(vec):\n    return vec.tolist()\n", [2]),
    ("R6-charge-control", "src/repro/obs/export.py",
     "from repro.cluster.rpc import charge_control\ndef record(acc):\n"
     "    charge_control(acc, 64)\n", [3]),
    ("R6-gather-and-take", "src/repro/obs/metrics.py",
     "def peek(vec, sel):\n    return vec.gather(sel), vec.take(sel)\n", [2, 2]),
    ("R6-local-gather-function", "src/repro/obs/trace.py",
     "def gather(xs):\n    return list(xs)\ndef use(xs):\n    return gather(xs)\n", []),
    # R7: module- and class-level state queries share.
    ("R7-module-write", "src/repro/mycache.py",
     "CACHE = {}\ndef put(k):\n    CACHE[k] = k\n", [3]),
    ("R7-local-shadow", "src/repro/mycache.py",
     "CACHE = {}\ndef put(k):\n    CACHE = {}\n    CACHE[k] = k\n", []),
    ("R7-module-mutator", "src/repro/mycache.py",
     "SEEN = set()\ndef put(k):\n    SEEN.add(k)\n", [3]),
    ("R7-registered", "src/repro/memo.py",
     "MEMO = {}\ndef put(k):\n    MEMO.setdefault(k, k)\n", []),
    ("R7-class-body-mutable", "src/repro/executor/concurrent.py",
     "class Runner:\n    inflight = {}\n    def go(self, sn):\n"
     "        self.inflight.setdefault(sn, 0)\n", [4]),
    ("R7-rebound-per-instance", "src/repro/executor/concurrent.py",
     "class Runner:\n    inflight = {}\n    def __init__(self):\n        self.inflight = {}\n"
     "    def go(self, sn):\n        self.inflight.setdefault(sn, 0)\n", []),
    ("R7-class-body-subscript-write", "src/repro/cluster/resqueue.py",
     "class Manager:\n    waits = {}\n    def admit(self, q, w):\n"
     "        self.waits[q] = w\n", [4]),
    ("R7-instance-subscript-write", "src/repro/cluster/resqueue.py",
     "class Manager:\n    def __init__(self):\n        self.waits = {}\n"
     "    def admit(self, q, w):\n        self.waits[q] = w\n", []),
    ("R7-class-attribute", "src/repro/executor/concurrent.py",
     "class Runner:\n    def go(self):\n        Runner.count = 1\n", [3]),
    ("R7-bench", "src/repro/bench/harness.py",
     "class Runner:\n    def go(self):\n        Runner.count = 1\n", []),
    ("R7-self-filling-memo", "src/repro/mycache.py",
     "class _Memo(dict):\n    def __missing__(self, key):\n        self[key] = key\n"
     "        return key\nMEMO = _Memo()\n", [3]),
    ("R7-registered-memo", "src/repro/memo.py",
     "class _Memo(dict):\n    def __missing__(self, key):\n        self[key] = key\n"
     "        return key\nMEMO = _Memo()\n", []),
    # R8: an interleaving that depends on memory layout.
    ("R8-id-key", "src/repro/simtime/scheduler.py",
     "def key_of(task):\n    return id(task)\n", [2]),
    ("R8-id-out-of-scope", "src/repro/storage/cache.py",
     "def key_of(task):\n    return id(task)\n", []),
    ("R8-unkeyed-heappush", "src/repro/cluster/resqueue.py",
     "from heapq import heappush\ndef push(heap, task):\n    heappush(heap, task)\n", [3]),
    ("R8-tuple-heappush", "src/repro/cluster/resqueue.py",
     "from heapq import heappush\ndef push(heap, t, seq, key):\n"
     "    heappush(heap, (t, seq, key))\n", []),
    ("R8-min-over-view", "src/repro/executor/concurrent.py",
     "def soonest(ready):\n    return min(ready.values())\n", [2]),
    ("R8-min-with-key", "src/repro/executor/concurrent.py",
     "def soonest(ready):\n    return min(ready, key=lambda k: (ready[k], k))\n", []),
    # R9: dispatch without its ends; a charged iterator left open.
    ("R9-dispatch-without-abort", "src/repro/cluster/dispatcher.py",
     "from repro.cluster.rpc import DISPATCH, COMPLETE, RpcMessage\n"
     "def send(bus):\n    bus.send(RpcMessage(kind=DISPATCH))\n    return COMPLETE\n", [3]),
    ("R9-dispatch-paired", "src/repro/cluster/dispatcher.py",
     "from repro.cluster.rpc import ABORT, COMPLETE, DISPATCH, RpcMessage\n"
     "def send(bus):\n    bus.send(RpcMessage(kind=DISPATCH))\n    return COMPLETE, ABORT\n",
     []),
    ("R9-named-iterator-left-open", "src/repro/executor/skim.py",
     "def skim(child, acc):\n    rows = child(acc)\n    for row in rows:\n        break\n", [3]),
    ("R9-named-iterator-closed", "src/repro/executor/skim.py",
     "def skim(child, acc):\n    rows = child(acc)\n    try:\n        for row in rows:\n"
     "            break\n    finally:\n        rows.close()\n", []),
    ("R9-getattr-close", "src/repro/executor/skim.py",
     "def skim(child, acc):\n    rows = child(acc)\n    try:\n        for row in rows:\n"
     "            break\n    finally:\n        close = getattr(rows, 'close', None)\n"
     "        if close is not None:\n            close()\n", []),
    ("R9-contextlib-closing", "src/repro/executor/skim.py",
     "from contextlib import closing\ndef skim(child, acc):\n    rows = child(acc)\n"
     "    with closing(rows):\n        for row in rows:\n            break\n", []),
    ("R9-anonymous-iterator-left-open", "src/repro/executor/skim.py",
     "def skim(child, acc):\n    for row in child(acc):\n        break\n", [2]),
    ("R9-anonymous-iterator-drained", "src/repro/executor/skim.py",
     "def skim(child, acc):\n    for row in child(acc):\n        pass\n", []),
]

#: The registry the R7 cases lint against.
REGISTRY = "SHARED_STATE = {'src/repro/memo.py::MEMO': 'pure memo'}\n"


@pytest.mark.parametrize("case, path, text, lines", CASES, ids=[c[0] for c in CASES])
def test_rule_case(case, path, text, lines):
    rule = case.split("-", 1)[0]
    sources = {path: text, "src/repro/lint/shared_state.py": REGISTRY}
    findings = run_rules(sources, select=[rule])
    assert [(f.rule, f.path, f.line) for f in findings] == [(rule, path, n) for n in lines]


# ============================================================ suppressions
@pytest.mark.parametrize(
    "text, lines",
    [
        ("import time\nt = time.time()  # lint: allow[R1] — measured here\n", []),
        ("import time\n# lint: allow[*] — measured here\nt = time.time()\n", []),
        ("import time\nt = time.time()  # lint: allow[R4]\n", [2]),
    ],
    ids=["same-line", "line-above-wildcard", "other-rule"],
)
def test_allow_comment(text, lines):
    findings = run_rules({"src/repro/engine.py": text}, select=["R1"])
    assert [f.line for f in findings] == lines


# ================================================================ registry
def test_rules_and_selection():
    # R3 is retired; ids are never reused, since allow comments name them.
    assert [r.id for r in RULES] == RULE_IDS
    assert [r.id for r in get_rules(["R1", "exception-hygiene"])] == ["R1", "R4"]
    with pytest.raises(ValueError, match="unknown rule"):
        get_rules(["R99"])


# =============================================================== repo gate
class TestRepoGate:
    def test_repo_clean(self, live_lint):
        """Tier-1 gate: zero findings on the live tree."""
        assert live_lint.project.files, "lint saw no files — path resolution broke"
        findings = live_lint.findings
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)

    def test_every_allow_exempts_a_finding_and_says_why(self, live_lint):
        """Each real ``# lint: allow[...]`` comment (a comment token, not
        a docstring example) must name a rule that fires on its line or
        the next one, and carry a reason."""
        fired = {(f.path, f.rule, f.line) for f in live_lint.raw}
        allows = 0
        for source in live_lint.project.files:
            tokens = tokenize.generate_tokens(io.StringIO(source.text).readline)
            for tok in tokens:
                match = tok.type == tokenize.COMMENT and _SUPPRESS_RE.search(tok.string)
                if not match:
                    continue
                allows += 1
                line, where = tok.start[0], f"{source.path}:{tok.start[0]}"
                assert tok.string[match.end():].strip(" -—:"), (
                    f"{where}: allow comment gives no reason"
                )
                for rule in match.group(1).split(","):
                    rule = rule.strip()
                    assert {(source.path, rule, line), (source.path, rule, line + 1)} & fired, (
                        f"{where}: allow[{rule}] exempts nothing"
                    )
        assert allows, "no allow comments found — tokenizing broke"

    def test_findings_do_not_depend_on_file_order(self, live_lint):
        """The second whole-tree run: every rule over the session's parse
        in reversed file order reports the same findings, suppressed ones
        included, in the same order."""
        files = live_lint.project.files[::-1]
        rerun = raw_findings(Project(root=live_lint.project.root, files=files))
        assert live_lint.raw, "no suppressed findings — the check would be vacuous"
        assert [f.to_json() for f in rerun] == [f.to_json() for f in live_lint.raw]


# ================================================================ R7 registry
class TestSharedStateRegistry:
    """Every entry of the live ``SHARED_STATE`` names a module-level
    assignment R7 would flag without it, with a reason to audit."""

    @pytest.fixture(scope="class")
    def registry(self, live_lint):
        return CrossQueryIsolationRule._registry(live_lint.project)

    def test_entries_name_module_level_assignments(self, live_lint, registry):
        assert registry, "SHARED_STATE not found in the linted tree"
        files = {source.path: source for source in live_lint.project.files}
        for key, reason in registry.items():
            path, name = key.split("::", 1)
            assert len(reason) > 10, f"{key}: reason too thin to audit"
            assigned = {
                target.id
                for node in files[path].tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)
            }
            assert name in assigned, f"{key}: not a module-level assignment"

    @pytest.mark.parametrize("key", sorted(SHARED_STATE))
    def test_every_entry_exempts_a_write(self, live_lint, registry, key):
        assert key in registry, f"{key}: not in the linted tree's SHARED_STATE"
        others = {k: v for k, v in registry.items() if k != key}
        path = key.split("::", 1)[0]
        source = next(s for s in live_lint.project.files if s.path == path)
        shared = SourceFile("src/repro/lint/shared_state.py", f"SHARED_STATE = {others!r}\n")
        findings = Project(root=REPO, files=[source, shared]).run(get_rules(["R7"]))
        assert findings, f"{key}: R7 flags nothing without this entry"
        assert all(f"'{key}'" in f.message for f in findings)


# ==================================================================== CLI
class TestCli:
    """The exit-code contract, in process on the linter's own package;
    ``scripts/ci.sh`` runs ``python -m repro.lint --json`` on the tree."""

    def test_exit_zero_and_json_shape(self, capsys):
        package = REPO / "src" / "repro" / "lint"
        assert lint_main(["--json", str(package)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "version": 2,
            "files": len(list(package.glob("*.py"))),
            "rules": RULE_IDS,
            "findings": [],
        }

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "x.py"
        bad.write_text("import time\nt = time.time()\n")
        assert lint_main([str(bad)]) == 1
        assert "R1" in capsys.readouterr().out

    def test_exit_two_on_internal_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert lint_main([str(broken)]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == RULE_IDS


# ============================================================ R10 single owner
#: One plant per OWNED claim: (the name R10 reports, file, the line the
#: plant follows — None for the file's end —, the plant, the planted
#: lines R10 must flag).
GUARD_PLANTS = [
    ("deepcopy", "src/repro/planner/wire.py", None,
     "import copy\n_C = copy.deepcopy(())\n", [2]),
    ("pickle", "src/repro/planner/dispatch.py", None, "import pickle\n", [1]),
    ("array.array", "src/repro/columnar/vector.py", None,
     "from array import array\n", [1]),
    ("repro.sanitize", "src/repro/executor/concurrent.py", None,
     "from repro.sanitize import detsan\n", [1]),
    ("callgraph", "src/repro/lint/core.py", None,
     "from repro.lint.callgraph import CallGraph\n", [1]),
    ("client.delete", "src/repro/engine.py", None,
     "\n\ndef _drop_files(engine, path):\n    engine.hdfs.client.delete(path)\n", [4]),
    ("file_status", "src/repro/storage/hadoop_formats.py", None,
     "\n\ndef _length(client, path):\n    return client.file_status(path).length\n",
     [4]),
    ("SliceTiming", "src/repro/obs/explain.py", None,
     "\n\nclass SliceTiming:\n    pass\n", [3]),
    ("sysview_rows", "src/repro/cluster/worker.py", None,
     "\n\ndef sysview_rows(name):\n    return []\n", [3]),
    ("EventScheduler", "src/repro/simtime/scheduler.py",
     "    def replay(self) -> TaskSchedule:", "        EventScheduler()\n", [1]),
    ("<pairs>", "src/repro/executor/runner.py",
     "    def settle_wave(self, index: int) -> TaskGraph:",
     "        _edges = [(a, b) for a in range(2) for b in range(2)]\n"
     "        for a in range(2):\n            for b in range(2):\n                pass\n",
     [1, 2]),
    ("settle_wave", "src/repro/executor/runner.py", "        self.queue.deliver()",
     "\n    def run_init_plan(self, plan, sdp, ctx):\n"
     "        dispatch = QueryDispatch(self, plan, sdp, ctx, [])\n"
     "        self.queue.deliver()\n        dispatch.settle_wave(0)\n", [4, 5]),
    ("DistributedRuntime", "src/repro/executor/concurrent.py", None,
     "\n\ndef _own_runtime(engine):\n"
     "    return DistributedRuntime(engine.metrics, engine.interconnect)\n", [4]),
    ("repro.network", "src/repro/cluster/rpc.py", None,
     "import repro.network.simnet\n", [1]),
    ("bind", "src/repro/network/simnet.py", "class SimNetwork:",
     "    def bind(self, address):\n        return address\n", [1]),
    ("security.check", "src/repro/ddl.py", None,
     "\n\ndef _sneak(engine, txn):\n    txn.lock('rel:x', None)\n"
     "    engine.security.check(None, 'SELECT', 'x')\n", [4, 5]),
    ("SYSTEM_VIEW_COLUMNS", "src/repro/engine.py", None,
     "from repro.catalog.master_relations import SYSTEM_VIEW_COLUMNS\n", [1]),
    ("def _create_table", "src/repro/engine.py", None,
     "\n\ndef _create_table(session, stmt):\n    return stmt\n", [3]),
]


def plant(live_lint, path, anchor, text):
    """Findings of every rule once ``text`` is planted in ``path`` of the
    session's parse after the first line holding ``anchor`` (or at the
    end), and the number of the line the plant follows. Rules read one
    file (R7 also the registry), so nothing else is re-parsed."""
    source = next(s for s in live_lint.project.files if s.path == path)
    lines = source.text.splitlines(keepends=True)
    at = len(lines)
    if anchor is not None:
        at = next(i for i, line in enumerate(lines) if anchor in line) + 1
    registry = [
        s for s in live_lint.project.files if s.path.endswith("lint/shared_state.py")
    ]
    planted = SourceFile(path, "".join(lines[:at]) + text + "".join(lines[at:]))
    project = Project(root=live_lint.project.root, files=[planted] + registry)
    return project.run(get_rules()), at


class TestSingleOwner:
    @pytest.mark.parametrize(
        "name, path, anchor, text, lines", GUARD_PLANTS, ids=[c[0] for c in GUARD_PLANTS]
    )
    def test_plant_fails_r10_at_its_line(self, live_lint, name, path, anchor, text, lines):
        findings, at = plant(live_lint, path, anchor, text)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("R10", path, at + n) for n in lines
        ]
        assert findings[-1].message.startswith(f"{name}: ")

    def test_every_entry_has_a_plant(self):
        planted = {case[0] for case in GUARD_PLANTS}
        assert [entry for entry in OWNED if not planted.intersection(entry.names)] == []

    @pytest.mark.parametrize(
        "text",
        [
            "# (a by-value encoding: no deepcopy of the plan)\n",
            'def _f():\n    """No deepcopy, pickle or CallGraph here."""\n',
        ],
    )
    def test_comment_or_docstring_is_not_a_finding(self, live_lint, text):
        findings, _ = plant(live_lint, "src/repro/planner/wire.py", None, text)
        assert findings == []

    def test_owner_and_places_outside_within_may_spell_it(self):
        src = (
            "class Session:\n"
            "    def access_relation(self, txn, name):\n"
            "        txn.lock(f'rel:{name}', 'S', wait=False)\n"
            "    def other(self, txn):\n"
            "        txn.lock('rel:t', 'S')\n"
        )
        assert [f.line for f in run_rules({"src/repro/engine.py": src}, ["R10"])] == [5]
        assert not run_rules({"src/repro/txn/manager.py": src}, select=["R10"])
        src = "def f(client, path):\n    return client.file_status(path)\n"
        assert not run_rules({"src/repro/storage/ao.py": src}, select=["R10"])
