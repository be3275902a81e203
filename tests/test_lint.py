"""The determinism & isolation linter: rules, suppressions, CLI.

Three layers of coverage:

* **Rule units** — each rule gets positive and negative synthetic
  snippets via :func:`project_from_sources`, so the detectors are pinned
  independently of the live tree.
* **Framework** — suppression comments, rule selection.
* **The repo gate** — ``test_repo_clean`` is the tier-1 hook: the live
  source tree must have zero findings, every ``# lint: allow`` in it
  must exempt a real finding and say why, every shared-state registry
  entry must exempt one, and the injection tests prove the gate fires
  (a violation planted into one file of the session's parsed tree) with
  the right rule id and file:line.

The retired R3 (every moved byte is charged) is checked at run time by
``tests/test_byte_conservation.py``.
"""

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from types import SimpleNamespace

import pytest

from repro.lint import Project, SourceFile, load_project, repo_root
from repro.lint.core import _SUPPRESS_RE, project_from_sources
from repro.lint.__main__ import main as lint_main
from repro.lint.rules import OWNED, RULES, CrossQueryIsolationRule, get_rules
from repro.lint.shared_state import SHARED_STATE

REPO = repo_root()


def run_rules(sources, select=None):
    """Lint in-memory sources; return findings from the chosen rules."""
    project = project_from_sources(sources)
    return project.run(get_rules(select))


@pytest.fixture(scope="session")
def live_lint():
    """The live tree, parsed and linted once a session: tests that judge
    the tree as it is read this, and planting tests swap one file of it."""
    project = load_project()
    return SimpleNamespace(project=project, findings=project.run(get_rules()))


def lint_planted(live_lint, path, edit, select):
    """Findings of the ``select`` rules once ``path`` of the session's
    parsed tree is replaced by ``edit(its text)``. Every rule reads one
    file (R7 also the registry), so that file and the registry are the
    whole gate's verdict on the planted line; nothing else is re-parsed."""
    (source,) = [s for s in live_lint.project.files if s.path == path]
    registry = [
        s for s in live_lint.project.files if s.path.endswith("lint/shared_state.py")
    ]
    project = Project(
        root=live_lint.project.root,
        files=[SourceFile(path, edit(source.text))] + registry,
    )
    return project.run(get_rules(select))


# ================================================================ R1 wall-clock
class TestNoWallClock:
    def test_flags_time_time(self):
        findings = run_rules(
            {"src/repro/executor/runner.py": "import time\nt = time.time()\n"},
            select=["R1"],
        )
        assert [f.rule for f in findings] == ["R1"]
        assert findings[0].line == 2
        assert "time.time()" in findings[0].message

    def test_flags_from_import_and_datetime(self):
        src = (
            "from time import perf_counter\n"
            "from datetime import datetime\n"
            "def f():\n"
            "    return perf_counter(), datetime.now()\n"
        )
        findings = run_rules({"src/repro/engine.py": src}, select=["R1"])
        assert len(findings) == 2
        assert all(f.rule == "R1" for f in findings)
        assert {f.context for f in findings} == {"f"}

    def test_flags_aliased_module(self):
        src = "import time as clock\nstart = clock.monotonic()\n"
        findings = run_rules({"src/repro/hdfs/filesystem.py": src}, select=["R1"])
        assert len(findings) == 1

    def test_bench_and_simtime_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        assert not run_rules({"src/repro/bench/wallclock.py": src}, select=["R1"])
        assert not run_rules({"src/repro/simtime.py": src}, select=["R1"])
        assert not run_rules({"tests/test_x.py": src}, select=["R1"])

    def test_non_clock_time_attrs_ok(self):
        src = "import time\ntime.sleep  # attribute access only, not a clock call\n"
        assert not run_rules({"src/repro/engine.py": src}, select=["R1"])


# ============================================================== R2 seeded rand
class TestSeededRandomness:
    def test_flags_module_level_random(self):
        src = "import random\nx = random.random()\n"
        findings = run_rules({"src/repro/chaos/plan.py": src}, select=["R2"])
        assert [f.rule for f in findings] == ["R2"]
        assert "DeterministicRng" in findings[0].message

    def test_flags_from_random_import(self):
        src = "from random import shuffle\n"
        findings = run_rules({"src/repro/planner/join.py": src}, select=["R2"])
        assert len(findings) == 1

    def test_flags_unseeded_random_construction(self):
        src = "import random\nrng = random.Random()\n"
        findings = run_rules({"src/repro/engine.py": src}, select=["R2"])
        assert len(findings) == 1
        assert "unseeded" in findings[0].message

    def test_rng_module_and_tests_exempt(self):
        src = "import random\nrng = random.Random(7)\n"
        assert not run_rules({"src/repro/util/rng.py": src}, select=["R2"])
        assert not run_rules({"tests/test_y.py": src}, select=["R2"])

    def test_seeded_stream_usage_ok(self):
        src = (
            "from repro.util import DeterministicRng\n"
            "rng = DeterministicRng(7, 'chaos', 'plan')\n"
            "x = rng.random()\n"
        )
        assert not run_rules({"src/repro/chaos/plan.py": src}, select=["R2"])


# ========================================================= R4 exception hygiene
class TestExceptionHygiene:
    def test_flags_swallowing_broad_handler(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings = run_rules({"src/repro/engine.py": src}, select=["R4"])
        assert [f.rule for f in findings] == ["R4"]
        assert findings[0].line == 4

    def test_flags_bare_except_and_cluster_error(self):
        src = (
            "from repro.errors import ClusterError\n"
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ClusterError:\n"
            "        return None\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        return None\n"
        )
        findings = run_rules({"src/repro/dispatch.py": src}, select=["R4"])
        assert len(findings) == 2

    def test_reraise_is_clean(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        log(exc)\n"
            "        raise\n"
        )
        assert not run_rules({"src/repro/engine.py": src}, select=["R4"])

    def test_narrow_handler_is_clean(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except (KeyError, ValueError):\n"
            "        return None\n"
        )
        assert not run_rules({"src/repro/engine.py": src}, select=["R4"])

    def test_raise_in_nested_def_does_not_count(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        def handler():\n"
            "            raise ValueError('later, maybe never')\n"
            "        return handler\n"
        )
        findings = run_rules({"src/repro/engine.py": src}, select=["R4"])
        assert len(findings) == 1


# ==================================================== R5 deterministic iteration
class TestDeterministicIteration:
    def test_flags_set_literal_for_loop(self):
        src = "for x in {3, 1, 2}:\n    print(x)\n"
        findings = run_rules({"src/repro/planner/scan.py": src}, select=["R5"])
        assert [f.rule for f in findings] == ["R5"]

    def test_columnar_kernels_in_scope(self):
        src = "for x in {3, 1, 2}:\n    print(x)\n"
        findings = run_rules(
            {"src/repro/columnar/kernels.py": src}, select=["R5"]
        )
        assert [f.rule for f in findings] == ["R5"]

    def test_flags_set_typed_local_comprehension(self):
        src = (
            "def plan(cols):\n"
            "    used = set(cols)\n"
            "    return [c for c in used]\n"
        )
        findings = run_rules({"src/repro/planner/scan.py": src}, select=["R5"])
        assert len(findings) == 1
        assert findings[0].context == "plan"

    def test_flags_keys_iteration_and_list_of_set(self):
        src = (
            "def f(mapping, items):\n"
            "    for k in mapping.keys():\n"
            "        pass\n"
            "    return list(set(items))\n"
        )
        findings = run_rules({"src/repro/catalog/tables.py": src}, select=["R5"])
        assert len(findings) == 2

    def test_sorted_wrapping_is_clean(self):
        src = (
            "def plan(cols):\n"
            "    used = set(cols)\n"
            "    return [c for c in sorted(used)]\n"
        )
        assert not run_rules({"src/repro/planner/scan.py": src}, select=["R5"])

    def test_annotated_param_propagates(self):
        src = (
            "from typing import Set\n"
            "def f(names: Set[str]):\n"
            "    alive = names\n"
            "    for n in alive:\n"
            "        pass\n"
        )
        findings = run_rules({"src/repro/executor/nodes.py": src}, select=["R5"])
        assert len(findings) == 1

    def test_flags_set_reached_through_a_dict_default(self):
        src = (
            "def f(needed, i):\n"
            "    cols = list(needed.get(i, set()))\n"
            "    for c in needed.setdefault(i, set()):\n"
            "        pass\n"
        )
        findings = run_rules({"src/repro/planner/planner.py": src}, select=["R5"])
        assert [f.line for f in findings] == [2, 3]

    def test_sorted_dict_default_and_list_default_are_clean(self):
        src = (
            "def f(needed, i):\n"
            "    cols = sorted(needed.get(i, set()))\n"
            "    for c in needed.pop(i, []):\n"
            "        pass\n"
        )
        assert not run_rules({"src/repro/planner/planner.py": src}, select=["R5"])

    def test_out_of_scope_dirs_ignored(self):
        src = "for x in {3, 1, 2}:\n    print(x)\n"
        assert not run_rules({"src/repro/hdfs/filesystem.py": src}, select=["R5"])


# ================================================================== suppressions
class TestSuppressions:
    def test_inline_allow_drops_finding(self):
        src = "import time\nt = time.time()  # lint: allow[R1]\n"
        assert not run_rules({"src/repro/engine.py": src}, select=["R1"])

    def test_allow_on_preceding_line(self):
        src = (
            "import time\n"
            "# lint: allow[R1] — measured on purpose here\n"
            "t = time.time()\n"
        )
        assert not run_rules({"src/repro/engine.py": src}, select=["R1"])

    def test_allow_names_only_that_rule(self):
        src = "import time\nt = time.time()  # lint: allow[R4]\n"
        findings = run_rules({"src/repro/engine.py": src}, select=["R1"])
        assert len(findings) == 1

    def test_wildcard_allow(self):
        src = "import time\nt = time.time()  # lint: allow[*]\n"
        assert not run_rules({"src/repro/engine.py": src}, select=["R1"])


# ============================================================ R6 obs passivity
class TestObsPassivity:
    def test_flags_charging_call_in_obs(self):
        src = (
            "def record(acc):\n"
            "    acc.fixed(0.01)\n"
        )
        findings = run_rules({"src/repro/obs/trace.py": src}, select=["R6"])
        assert [f.rule for f in findings] == ["R6"]
        assert "fixed()" in findings[0].message

    def test_flags_cost_attribute_write_in_obs(self):
        src = (
            "def record(self, acc):\n"
            "    acc.seconds += 1.0\n"
        )
        findings = run_rules({"src/repro/obs/metrics.py": src}, select=["R6"])
        assert len(findings) == 1
        assert ".seconds" in findings[0].message

    def test_flags_charge_control_call(self):
        src = (
            "from repro.cluster.rpc import charge_control\n"
            "def record(acc):\n"
            "    charge_control(acc, 64)\n"
        )
        findings = run_rules({"src/repro/obs/export.py": src}, select=["R6"])
        assert len(findings) == 1

    def test_reading_the_clock_is_fine(self):
        src = (
            "def mark(acc):\n"
            "    t = acc.seconds\n"
            "    return t\n"
        )
        assert not run_rules({"src/repro/obs/trace.py": src}, select=["R6"])

    def test_outside_obs_not_in_scope(self):
        src = "def f(acc):\n    acc.fixed(1.0)\n"
        assert not run_rules({"src/repro/executor/runner.py": src}, select=["R6"])

    def test_flags_vector_materialization_in_obs(self):
        src = (
            "def snapshot(batch):\n"
            "    return batch.to_rows()\n"
        )
        findings = run_rules({"src/repro/obs/trace.py": src}, select=["R6"])
        assert len(findings) == 1
        assert "materialization" in findings[0].message

    def test_flags_tolist_and_gather_in_obs(self):
        src = (
            "def peek(vec, sel):\n"
            "    return vec.tolist(), vec.gather(sel), vec.take(sel)\n"
        )
        findings = run_rules({"src/repro/obs/metrics.py": src}, select=["R6"])
        assert len(findings) == 3

    def test_bare_materializer_name_not_flagged(self):
        # Only attribute calls are vector forces; a local helper named
        # gather() is not a vector method.
        src = (
            "def gather(xs):\n"
            "    return list(xs)\n"
            "def use(xs):\n"
            "    return gather(xs)\n"
        )
        assert not run_rules({"src/repro/obs/trace.py": src}, select=["R6"])

    def test_materialization_outside_obs_not_in_scope(self):
        src = "def f(vec):\n    return vec.tolist()\n"
        assert not run_rules(
            {"src/repro/executor/slice_runner.py": src}, select=["R6"]
        )


# ================================================================ rule registry
class TestRegistry:
    def test_rule_ids_in_order(self):
        # R3 is retired; ids are never reused, since allow comments name them.
        assert [r.id for r in RULES] == [
            "R1", "R2", "R4", "R5", "R6", "R7", "R8", "R9", "R10"
        ]

    def test_select_by_id_and_name(self):
        assert [r.id for r in get_rules(["R1", "exception-hygiene"])] == ["R1", "R4"]

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(["R99"])


# =============================================================== repo-wide gate
class TestRepoGate:
    def test_repo_clean(self, live_lint):
        """Tier-1 gate: zero findings on the live tree."""
        findings = live_lint.findings
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)
        assert live_lint.project.files, "lint saw no files — path resolution broke"

    def test_every_allow_exempts_a_finding_and_says_why(self, live_lint):
        """Each real ``# lint: allow[...]`` comment (a comment token, not
        a docstring example) must name a rule that fires on its line or
        the next one with suppressions ignored, and carry a reason."""
        rules = {rule.id: rule for rule in RULES}
        allows = 0
        for source in live_lint.project.files:
            tokens = tokenize.generate_tokens(io.StringIO(source.text).readline)
            for tok in tokens:
                match = tok.type == tokenize.COMMENT and _SUPPRESS_RE.search(tok.string)
                if not match:
                    continue
                allows += 1
                where = f"{source.path}:{tok.start[0]}"
                reason = tok.string[match.end():].strip(" -—:")
                assert reason, f"{where}: allow comment gives no reason"
                for rule_id in match.group(1).split(","):
                    rule = rules[rule_id.strip()]
                    lines = {f.line for f in rule.check_file(source, live_lint.project)}
                    assert lines & {tok.start[0], tok.start[0] + 1}, (
                        f"{where}: allow[{rule.id}] exempts nothing"
                    )
        assert allows, "no allow comments found — tokenizing broke"

    def test_injected_wall_clock_is_caught(self, live_lint):
        """Acceptance check: time.time() in executor code must fail R1
        with the right file and line."""
        path = "src/repro/executor/runner.py"
        findings = lint_planted(
            live_lint, path, lambda src: src + "import time\n_T0 = time.time()\n", ["R1"]
        )
        source = next(s for s in live_lint.project.files if s.path == path)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("R1", path, source.text.count("\n") + 2)
        ]

    def test_injected_swallowing_handler_is_caught(self, live_lint):
        """Acceptance check: a swallowing except Exception in engine.py
        must fail R4."""
        path = "src/repro/engine.py"
        injected = (
            "\n\ndef _swallow(op):\n"
            "    try:\n"
            "        return op()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        findings = lint_planted(live_lint, path, lambda src: src + injected, ["R4"])
        hits = [f for f in findings if f.path == path]
        assert [(f.rule, f.context) for f in hits] == [("R4", "_swallow")]
        source = next(s for s in live_lint.project.files if s.path == path)
        assert hits[0].line == source.text.count("\n") + 1 + 5


# ==================================================================== CLI layer
class TestCli:
    def test_exit_zero_and_json_shape_on_clean_repo(self):
        """The one subprocess run: the console entry point on the live tree."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--json"],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert report["findings"] == []
        assert report["rules"] == [
            "R1", "R2", "R4", "R5", "R6", "R7", "R8", "R9", "R10"
        ]
        assert report["files"] > 50
        assert report["version"] == 2

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "x.py"
        # Path must carry no exempt directory; lint an explicit file.
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
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out
        assert "R3" not in out


# ============================================================= R7 isolation
class TestCrossQueryIsolation:
    """R7: mutable module/class state written by any function outside
    ``bench/`` must be registered or namespaced."""

    ENTRY = "src/repro/executor/concurrent.py"

    def _sources(self, registry_entries=""):
        sources = {
            self.ENTRY: (
                "from repro.mycache import put\n"
                "def run_batch():\n"
                "    put(1)\n"
            ),
            "src/repro/mycache.py": (
                "CACHE = {}\n"
                "def put(k):\n"
                "    CACHE[k] = k\n"
            ),
        }
        if registry_entries is not None:
            sources["src/repro/lint/shared_state.py"] = (
                "SHARED_STATE = {" + registry_entries + "}\n"
            )
        return sources

    def test_reachable_module_mutation_is_flagged(self):
        findings = run_rules(self._sources(), select=["R7"])
        assert [f.rule for f in findings] == ["R7"]
        assert findings[0].path == "src/repro/mycache.py"
        assert findings[0].context == "put"
        assert "CACHE" in findings[0].message
        assert "src/repro/mycache.py::CACHE" in findings[0].message

    def test_registered_state_is_exempt(self):
        findings = run_rules(
            self._sources(
                "'src/repro/mycache.py::CACHE': 'pure memo, idempotent'"
            ),
            select=["R7"],
        )
        assert findings == []

    def test_unreachable_mutation_is_flagged(self):
        sources = self._sources()
        # Same mutation, though nothing calls it: R7 reads every module.
        sources[self.ENTRY] = "def run_batch():\n    return 0\n"
        findings = run_rules(sources, select=["R7"])
        assert [(f.rule, f.path, f.context) for f in findings] == [
            ("R7", "src/repro/mycache.py", "put")
        ]

    def test_bench_is_not_in_scope(self):
        sources = self._sources()
        sources["src/repro/bench/mycache.py"] = sources.pop("src/repro/mycache.py")
        assert run_rules(sources, select=["R7"]) == []

    def test_mutator_call_is_flagged(self):
        sources = self._sources()
        sources["src/repro/mycache.py"] = (
            "SEEN = set()\n"
            "def put(k):\n"
            "    SEEN.add(k)\n"
        )
        findings = run_rules(sources, select=["R7"])
        assert [f.rule for f in findings] == ["R7"]
        assert "SEEN" in findings[0].message

    def test_local_shadow_is_not_flagged(self):
        sources = self._sources()
        sources["src/repro/mycache.py"] = (
            "CACHE = {}\n"
            "def put(k):\n"
            "    CACHE = {}\n"
            "    CACHE[k] = k\n"
            "    return CACHE\n"
        )
        findings = run_rules(sources, select=["R7"])
        assert findings == []

    def test_class_body_mutable_in_entry_file(self):
        sources = {
            self.ENTRY: (
                "class Runner:\n"
                "    inflight = {}\n"
                "    def go(self, sn):\n"
                "        self.inflight.setdefault(sn, 0)\n"
            ),
            "src/repro/lint/shared_state.py": "SHARED_STATE = {}\n",
        }
        findings = run_rules(sources, select=["R7"])
        assert [f.rule for f in findings] == ["R7"]
        assert "Runner.inflight" in findings[0].message

    def test_instance_rebound_attr_is_not_flagged(self):
        sources = {
            self.ENTRY: (
                "class Runner:\n"
                "    inflight = {}\n"
                "    def __init__(self):\n"
                "        self.inflight = {}\n"
                "    def go(self, sn):\n"
                "        self.inflight.setdefault(sn, 0)\n"
            ),
            "src/repro/lint/shared_state.py": "SHARED_STATE = {}\n",
        }
        findings = run_rules(sources, select=["R7"])
        assert findings == []

    #: A memo filled by its own ``__missing__``: nothing outside the
    #: class names a write, and nothing calls the dunder but the
    #: subscript that makes Python call it.
    MEMO_MODULE = (
        "class _Memo(dict):\n"
        "    def __missing__(self, key):\n"
        "        if len(self) > 9:\n"
        "            self.clear()\n"
        "        self[key] = key * 2\n"
        "        return key * 2\n"
        "MEMO = _Memo()\n"
        "def look(k):\n"
        "    return MEMO[k]\n"
    )

    def _memo_sources(self, registry_entries=""):
        sources = self._sources(registry_entries)
        sources[self.ENTRY] = (
            "from repro.mycache import look\n"
            "def run_batch():\n"
            "    look(1)\n"
        )
        sources["src/repro/mycache.py"] = self.MEMO_MODULE
        return sources

    def test_dict_subclass_memo_is_flagged_through_self(self):
        findings = run_rules(self._memo_sources(), select=["R7"])
        assert [(f.rule, f.line, f.context) for f in findings] == [
            ("R7", 4, "_Memo.__missing__"),
            ("R7", 5, "_Memo.__missing__"),
        ]
        assert all("src/repro/mycache.py::MEMO" in f.message for f in findings)

    def test_registered_dict_subclass_memo_is_exempt(self):
        findings = run_rules(
            self._memo_sources("'src/repro/mycache.py::MEMO': 'pure memo'"),
            select=["R7"],
        )
        assert findings == []

    def test_dict_subclass_memo_nobody_reads_is_flagged(self):
        sources = self._memo_sources()
        sources[self.ENTRY] = "def run_batch():\n    return 0\n"
        findings = run_rules(sources, select=["R7"])
        assert [(f.line, f.context) for f in findings] == [
            (4, "_Memo.__missing__"),
            (5, "_Memo.__missing__"),
        ]

    def test_live_registry_parses_and_has_reasons(self, live_lint):
        registry = CrossQueryIsolationRule._registry(live_lint.project)
        assert registry, "SHARED_STATE not found in the linted tree"
        for key, reason in registry.items():
            assert "::" in key
            assert len(reason) > 10, f"{key}: reason too thin to audit"

    def test_every_entry_names_a_module_level_assignment(self, live_lint):
        """R7 never reads an instance attribute, so an entry for one
        exempts nothing, and the registry holds module-level memos only:
        each key must name an assignment of that name at the top level of
        that file."""
        files = {source.path: source for source in live_lint.project.files}
        for key in CrossQueryIsolationRule._registry(live_lint.project):
            path, name = key.split("::", 1)
            assert path in files, f"{key}: no such file in the linted tree"
            assigned = set()
            for node in files[path].tree.body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                assigned.update(
                    t.id for t in targets if isinstance(t, ast.Name)
                )
            assert name in assigned, f"{key}: not a module-level assignment"

    @pytest.mark.parametrize("key", sorted(SHARED_STATE))
    def test_every_entry_exempts_a_write(self, live_lint, key):
        """Without its entry, each registered name is an R7 finding:
        nothing is registered that R7 would not flag."""
        path = key.split("::", 1)[0]
        others = {k: v for k, v in SHARED_STATE.items() if k != key}
        registry = SourceFile(
            "src/repro/lint/shared_state.py", f"SHARED_STATE = {others!r}\n"
        )
        source = next(s for s in live_lint.project.files if s.path == path)
        project = Project(root=live_lint.project.root, files=[source, registry])
        findings = project.run(get_rules(["R7"]))
        assert findings, f"{key}: R7 flags nothing without this entry"
        assert all(f"'{key}'" in f.message for f in findings)


# ========================================================== R8 determinism
class TestSchedulerDeterminism:
    SCOPE = "src/repro/simtime/scheduler.py"

    def test_id_key_is_flagged(self):
        findings = run_rules(
            {self.SCOPE: "def key_of(task):\n    return id(task)\n"},
            select=["R8"],
        )
        assert [f.rule for f in findings] == ["R8"]
        assert "id()" in findings[0].message

    def test_out_of_scope_file_is_ignored(self):
        findings = run_rules(
            {"src/repro/storage/cache.py": "def key_of(t):\n    return id(t)\n"},
            select=["R8"],
        )
        assert findings == []

    def test_unkeyed_heappush_is_flagged(self):
        src = (
            "from heapq import heappush\n"
            "def push(heap, task):\n"
            "    heappush(heap, task)\n"
        )
        findings = run_rules({self.SCOPE: src}, select=["R8"])
        assert [f.rule for f in findings] == ["R8"]
        assert "heap" in findings[0].message

    def test_tuple_heappush_is_clean(self):
        src = (
            "from heapq import heappush\n"
            "def push(heap, t, seq, key):\n"
            "    heappush(heap, (t, 0, seq, key))\n"
        )
        assert run_rules({self.SCOPE: src}, select=["R8"]) == []

    def test_min_over_dict_view_is_flagged(self):
        src = (
            "def soonest(ready):\n"
            "    return min(ready.values())\n"
        )
        findings = run_rules({self.SCOPE: src}, select=["R8"])
        assert [f.rule for f in findings] == ["R8"]
        assert "values" in findings[0].message

    SET_LOOP = (
        "PARKED = set()\n"
        "def drain():\n"
        "    out = []\n"
        "    for key in PARKED:\n"
        "        out.append(key)\n"
        "    return out\n"
    )

    def test_unsorted_set_iteration_is_flagged_as_r5(self):
        findings = run_rules({self.SCOPE: self.SET_LOOP}, select=["R5", "R8"])
        assert [(f.rule, f.line) for f in findings] == [("R5", 4)]

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/executor/concurrent.py",
            "src/repro/executor/batch_ops.py",
            "src/repro/executor/runner.py",
            "src/repro/cluster/resqueue.py",
        ],
    )
    def test_set_iteration_is_reported_once(self, path):
        findings = run_rules({path: self.SET_LOOP})
        assert [(f.rule, f.line) for f in findings] == [("R5", 4)]

    def test_sorted_iteration_is_clean(self):
        src = (
            "PARKED = set()\n"
            "def drain():\n"
            "    return [k for k in sorted(PARKED)]\n"
        )
        assert run_rules({self.SCOPE: src}, select=["R8"]) == []


# ============================================================ R9 rpc pairing
class TestRpcPairing:
    def test_dispatch_without_abort_is_flagged(self):
        src = (
            "from repro.cluster.rpc import DISPATCH, COMPLETE, RpcMessage\n"
            "def send(bus, payload):\n"
            "    bus.send(RpcMessage(kind=DISPATCH, sender='m', payload=payload))\n"
            "    return COMPLETE\n"
        )
        findings = run_rules(
            {"src/repro/cluster/dispatcher.py": src}, select=["R9"]
        )
        assert [f.rule for f in findings] == ["R9"]
        assert "ABORT" in findings[0].message

    def test_dispatch_with_both_partners_is_clean(self):
        src = (
            "from repro.cluster.rpc import ABORT, COMPLETE, DISPATCH, RpcMessage\n"
            "def send(bus, payload):\n"
            "    bus.send(RpcMessage(kind=DISPATCH, sender='m', payload=payload))\n"
            "def cleanup(bus):\n"
            "    bus.send(RpcMessage(kind=ABORT, sender='m', payload=None))\n"
            "def finish():\n"
            "    return COMPLETE\n"
        )
        assert run_rules(
            {"src/repro/cluster/dispatcher.py": src}, select=["R9"]
        ) == []

    def test_break_on_named_charged_iterator_is_flagged(self):
        src = (
            "def skim(child, acc, n):\n"
            "    rows = child(acc)\n"
            "    out = []\n"
            "    for row in rows:\n"
            "        if len(out) >= n:\n"
            "            break\n"
            "        out.append(row)\n"
            "    return out\n"
        )
        findings = run_rules(
            {"src/repro/executor/skim.py": src}, select=["R9"]
        )
        assert [f.rule for f in findings] == ["R9"]
        assert "rows" in findings[0].message

    def test_closed_in_finally_is_clean(self):
        src = (
            "def skim(child, acc, n):\n"
            "    rows = child(acc)\n"
            "    out = []\n"
            "    try:\n"
            "        for row in rows:\n"
            "            if len(out) >= n:\n"
            "                break\n"
            "            out.append(row)\n"
            "    finally:\n"
            "        rows.close()\n"
            "    return out\n"
        )
        assert run_rules(
            {"src/repro/executor/skim.py": src}, select=["R9"]
        ) == []

    def test_getattr_close_in_finally_is_clean(self):
        src = (
            "def skim(child, acc, n):\n"
            "    rows = child(acc)\n"
            "    out = []\n"
            "    try:\n"
            "        for row in rows:\n"
            "            break\n"
            "    finally:\n"
            "        close = getattr(rows, 'close', None)\n"
            "        if close is not None:\n"
            "            close()\n"
            "    return out\n"
        )
        assert run_rules(
            {"src/repro/executor/skim.py": src}, select=["R9"]
        ) == []

    def test_contextlib_closing_is_clean(self):
        src = (
            "from contextlib import closing\n"
            "def skim(child, acc, n):\n"
            "    rows = child(acc)\n"
            "    out = []\n"
            "    with closing(rows):\n"
            "        for row in rows:\n"
            "            break\n"
            "    return out\n"
        )
        assert run_rules(
            {"src/repro/executor/skim.py": src}, select=["R9"]
        ) == []

    def test_anonymous_charged_iterator_break_is_flagged(self):
        src = (
            "def skim(child, acc):\n"
            "    for row in child(acc):\n"
            "        break\n"
        )
        findings = run_rules(
            {"src/repro/executor/skim.py": src}, select=["R9"]
        )
        assert [f.rule for f in findings] == ["R9"]
        assert "anonymous" in findings[0].message

    def test_exhausted_loop_without_break_is_clean(self):
        src = (
            "def consume(child, acc):\n"
            "    out = []\n"
            "    for row in child(acc):\n"
            "        out.append(row)\n"
            "    return out\n"
        )
        assert run_rules(
            {"src/repro/executor/skim.py": src}, select=["R9"]
        ) == []

    def test_out_of_scope_dir_is_ignored(self):
        src = (
            "def skim(child, acc):\n"
            "    for row in child(acc):\n"
            "        break\n"
        )
        assert run_rules({"src/repro/tpch/gen.py": src}, select=["R9"]) == []


# ============================================================ R10 single owner
#: One plant per OWNED claim: (the name R10 reports, file, the line the
#: plant follows — None for the file's end —, the plant, the planted
#: lines R10 must flag). Each plant also failed the grep or AST guard
#: that scripts/ci.sh ran before the claim became an R10 entry.
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
    """Findings of every rule once ``text`` is planted in ``path`` after
    the first line holding ``anchor`` (or at the end), and the number of
    the line the plant follows."""
    source = next(s for s in live_lint.project.files if s.path == path)
    lines = source.text.splitlines(keepends=True)
    at = len(lines)
    if anchor is not None:
        at = next(i for i, line in enumerate(lines) if anchor in line) + 1
    planted = "".join(lines[:at]) + text + "".join(lines[at:])
    return lint_planted(live_lint, path, lambda _: planted, None), at


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

    def test_owner_may_spell_what_it_owns(self):
        src = (
            "class Session:\n"
            "    def access_relation(self, txn, name):\n"
            "        txn.lock(f'rel:{name}', 'S', wait=False)\n"
            "    def other(self, txn):\n"
            "        txn.lock('rel:t', 'S')\n"
        )
        findings = run_rules({"src/repro/engine.py": src}, select=["R10"])
        assert [f.line for f in findings] == [5]
        assert not run_rules({"src/repro/txn/manager.py": src}, select=["R10"])

    def test_outside_within_is_not_read(self):
        src = "def f(client, path):\n    return client.file_status(path)\n"
        assert not run_rules({"src/repro/storage/ao.py": src}, select=["R10"])
        assert run_rules({"src/repro/engine.py": src}, select=["R10"])


# ===================================================== injected-race gate
class TestInjectedConcurrencyViolations:
    """Acceptance checks: each concurrency rule must fire on a violation
    planted into one file of the live tree, with the right rule id and
    file."""

    CONCURRENT = "src/repro/executor/concurrent.py"

    def test_injected_shared_dict_is_caught_by_r7(self, live_lint):
        hits = lint_planted(
            live_lint,
            self.CONCURRENT,
            lambda src: src + "\n_RACE = {}\n\n\ndef _poison(sn):\n    _RACE[sn] = sn\n",
            ["R7"],
        )
        assert [(f.rule, f.path, f.context) for f in hits] == [
            ("R7", self.CONCURRENT, "_poison")
        ]
        assert "_RACE" in hits[0].message

    def test_injected_dict_subclass_memo_is_caught_by_r7(self, live_lint):
        hits = lint_planted(
            live_lint,
            self.CONCURRENT,
            lambda src: src
            + "\n\nclass _Memo(dict):\n"
            "    def __missing__(self, key):\n"
            "        self[key] = key\n"
            "        return key\n\n\n"
            "_MEMO = _Memo()\n",
            ["R7"],
        )
        assert [(f.rule, f.path, f.context) for f in hits] == [
            ("R7", self.CONCURRENT, "_Memo.__missing__")
        ]
        assert f"{self.CONCURRENT}::_MEMO" in hits[0].message

    def test_injected_id_key_is_caught_by_r8(self, live_lint):
        path = "src/repro/simtime/scheduler.py"
        hits = lint_planted(
            live_lint,
            path,
            lambda src: src + "\ndef _bad_key(obj):\n    return id(obj)\n",
            ["R8"],
        )
        source = next(s for s in live_lint.project.files if s.path == path)
        assert [(f.rule, f.path, f.line) for f in hits] == [
            ("R8", path, source.text.count("\n") + 3)
        ]

    def test_injected_abandoned_iterator_is_caught_by_r9(self, live_lint):
        path = "src/repro/executor/runner.py"
        hits = lint_planted(
            live_lint,
            path,
            lambda src: src
            + "\ndef _skim_rows(child, acc):\n"
            "    rows = child(acc)\n"
            "    for row in rows:\n"
            "        break\n",
            ["R9"],
        )
        assert [(f.rule, f.path, f.context) for f in hits] == [
            ("R9", path, "_skim_rows")
        ]


# ============================================================== determinism
@pytest.fixture(scope="class")
def shuffled_rerun(live_lint):
    """A second full run of every rule over the session's parsed files in
    a shuffled order, made once and shared by both determinism checks."""
    import random

    files = list(live_lint.project.files)
    random.Random(0xC0FFEE).shuffle(files)
    return Project(root=live_lint.project.root, files=files).run(get_rules())


class TestLintDeterminism:
    def test_findings_identical_across_runs_and_file_order(
        self, live_lint, shuffled_rerun
    ):
        """The lint gate itself obeys R5's spirit: a second full run, with
        the project's file list shuffled, must report byte-identical
        findings (order included) to the session's run."""
        rerun = [f.to_json() for f in shuffled_rerun]
        first = [f.to_json() for f in live_lint.findings]
        assert json.dumps(rerun) == json.dumps(first)

    def test_repeat_run_is_byte_identical(self, live_lint, shuffled_rerun):
        first = [f.render() for f in live_lint.findings]
        second = [f.render() for f in shuffled_rerun]
        assert first == second
