"""DetSan, the runtime cross-query isolation sanitizer.

Three layers:

* **Guard units** — ownership claiming, release-on-delete, registry
  exemption, scope nesting, and each proxy type's mutation hooks,
  exercised directly against :class:`repro.sanitize.DetSan`.
* **Engine wiring** — ``install_engine``/``uninstall_engine`` swap the
  engine-lifetime caches in and back out with contents preserved.
* **Concurrent runs** — a seeded multi-stream batch under DetSan is
  violation-free AND bit-identical to the unsanitized run; stripping a
  registry entry makes the same batch raise
  :class:`~repro.sanitize.IsolationViolation` (the sanitizer actually
  fires); the ``python -m repro.sanitize`` sweep CLI exits 0/1
  accordingly.
"""

import os
import subprocess
import sys
from collections import OrderedDict

import pytest

from repro.chaos.suite import build_engine, generate_data, load_workload
from repro.executor.concurrent import ConcurrentRunner
from repro.lint import repo_root
from repro.sanitize import DetSan, IsolationViolation, SHARED_STATE, runtime_labels
from repro.sanitize.__main__ import run_seed, sweep_streams

REPO = repo_root()


# ============================================================= guard semantics
class TestOwnership:
    def test_first_writer_claims_then_foreign_write_raises(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({}, "X")
        with ds.scope(1):
            d["k"] = "a"
            d["k"] = "b"  # same owner: fine
        with ds.scope(2), pytest.raises(IsolationViolation) as exc:
            d["k"] = "c"
        assert "X" in str(exc.value)
        assert ds.violations and ds.violations[0].owner == 1
        assert ds.violations[0].writer == 2

    def test_registered_label_is_exempt(self):
        ds = DetSan(registry={"X": "deliberately shared"})
        d = ds.guard_dict({}, "X")
        with ds.scope(1):
            d["k"] = "a"
        with ds.scope(2):
            d["k"] = "b"  # registry entry: cross-query write allowed
        assert ds.violations == []
        assert ds.counts["X"] == 2

    def test_delete_releases_ownership(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({}, "X")
        with ds.scope(1):
            d["slot"] = "q1"
            del d["slot"]
        with ds.scope(2):
            d["slot"] = "q2"  # released: the handoff is not a race
        assert ds.violations == []

    def test_pop_releases_ownership(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({}, "X")
        with ds.scope(1):
            d["slot"] = "q1"
            d.pop("slot")
        with ds.scope(2):
            d["slot"] = "q2"
        assert ds.violations == []

    def test_unscoped_mutations_counted_never_owned(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({}, "X")
        d["setup"] = 1  # engine setup, no scope: counted, unowned
        with ds.scope(1):
            d["setup"] = 2  # first *scoped* write claims
        assert ds.violations == []
        assert ds.counts["X"] == 2
        assert ds.scoped_counts.get("X", 0) == 1

    def test_scope_nesting_innermost_wins(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({}, "X")
        with ds.scope(1):
            with ds.scope(2):
                d["k"] = "inner"
            with pytest.raises(IsolationViolation):
                d["k"] = "outer"  # owner is 2, writer is 1
        assert ds.current is None

    def test_setdefault_only_notes_on_insert(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({}, "X")
        with ds.scope(1):
            d.setdefault("k", []).append(1)
        with ds.scope(2):
            d.setdefault("k", []).append(2)  # read, not a write
        assert ds.violations == []
        assert ds.counts["X"] == 1

    def test_update_and_clear(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({"a": 1}, "X")
        with ds.scope(1):
            d.update(b=2)
        with ds.scope(2), pytest.raises(IsolationViolation):
            d.update({"b": 3})
        d2 = ds.guard_dict({}, "Y")
        with ds.scope(1):
            d2["k"] = 1
            d2.clear()
        with ds.scope(2):
            d2["k"] = 2  # clear released everything
        assert [v.label for v in ds.violations] == ["X"]

    def test_guarded_ordered_dict_keeps_type(self):
        ds = DetSan(registry={})
        od = ds.guard_dict(OrderedDict([("a", 1)]), "X")
        assert isinstance(od, OrderedDict)
        assert list(od) == ["a"]

    def test_guard_list_whole_structure_ownership(self):
        ds = DetSan(registry={})
        lst = ds.guard_list([], "L")
        with ds.scope(1):
            lst.append("x")
        with ds.scope(2), pytest.raises(IsolationViolation):
            lst.append("y")

    def test_guard_list_empty_releases(self):
        ds = DetSan(registry={})
        lst = ds.guard_list([], "L")
        with ds.scope(1):
            lst.append("x")
            lst.pop()
        with ds.scope(2):
            lst.append("y")  # emptied: ownership released
        assert ds.violations == []

    def test_guard_set_per_element(self):
        ds = DetSan(registry={})
        s = ds.guard_set(set(), "S")
        with ds.scope(1):
            s.add("a")
        with ds.scope(2):
            s.add("b")  # distinct element: no conflict
        assert ds.violations == []

    def test_guard_set_conflict(self):
        ds = DetSan(registry={})
        s = ds.guard_set(set(), "S")
        with ds.scope(1):
            s.add("a")
        with ds.scope(2), pytest.raises(IsolationViolation):
            s.discard("a")

    def test_unhashable_key_degrades_to_whole_structure(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({}, "X")
        with ds.scope(1):
            d[("ok",)] = 1
        # an unhashable-key mutation must not crash the tracker
        ds.note("X", "touch", key=["unhashable"])
        assert ds.counts["X"] == 2

    def test_summary_shape(self):
        ds = DetSan(registry={})
        d = ds.guard_dict({}, "X")
        with ds.scope(1):
            d["k"] = 1
        s = ds.summary()
        assert s["structures"] == {"X": 1}
        assert s["total_mutations"] == 1
        assert s["scoped_mutations"] == 1
        assert s["tracked_entries"] == 1
        assert s["violations"] == []


# =============================================================== engine wiring
class TestEngineInstall:
    def test_install_uninstall_round_trip(self):
        import repro.executor.expr as expr_mod
        from repro.sanitize import GuardedDict

        engine = build_engine(0)
        ds = DetSan()
        plain_entries = engine.block_cache._entries
        ds.install_engine(engine)
        try:
            assert engine.detsan is ds
            assert isinstance(expr_mod._LIKE_CACHE, GuardedDict)
            assert type(engine.block_cache._entries).__name__ == (
                "GuardedOrderedDict"
            )
            guarded = expr_mod._LIKE_CACHE
            ds.install_engine(engine)  # idempotent: no double-wrap
            assert expr_mod._LIKE_CACHE is guarded
        finally:
            ds.uninstall_engine(engine)
        assert engine.detsan is None
        assert type(engine.block_cache._entries) is type(plain_entries)
        assert type(expr_mod._LIKE_CACHE) is dict
        # The compiled-kernel memo belongs to one statement's context:
        # there is nothing engine-wide left to guard.
        assert not hasattr(engine, "kernel_cache")

    def test_uninstall_preserves_contents(self, monkeypatch):
        import repro.executor.expr as expr_mod

        monkeypatch.setattr(expr_mod, "_LIKE_CACHE", {"warm": "regex"})
        engine = build_engine(0)
        ds = DetSan()
        ds.install_engine(engine)
        expr_mod._LIKE_CACHE["hot"] = "regex2"
        ds.uninstall_engine(engine)
        assert expr_mod._LIKE_CACHE == {"warm": "regex", "hot": "regex2"}


# ============================================================= concurrent runs
def _run_batch(seed, detsan=None, streams=2):
    engine = build_engine(seed)
    load_workload(engine, generate_data())
    runner = ConcurrentRunner(
        engine, sweep_streams(seed, streams), detsan=detsan,
        allow_failures=True,
    )
    return runner.run()


class TestConcurrentRuns:
    def test_seeded_batch_is_clean_and_counted(self):
        ds = DetSan()
        result = _run_batch(3, detsan=ds)
        assert all(o.ok for o in result.outcomes)
        assert ds.violations == []
        summary = ds.summary()
        assert summary["total_mutations"] > 0
        # The shared scheduler bookkeeping must actually be watched.
        assert any(
            label.startswith("EventScheduler.")
            for label in summary["structures"]
        )
        assert summary["scoped_mutations"] == summary["total_mutations"]

    def test_sanitized_run_is_bit_identical(self):
        plain = _run_batch(3)
        sanitized = _run_batch(3, detsan=DetSan())
        assert plain.makespan == sanitized.makespan
        for a, b in zip(plain.outcomes, sanitized.outcomes):
            assert a.rows == b.rows
            assert a.finish == b.finish
            assert a.charged_seconds == b.charged_seconds

    def test_stripped_registry_fires(self):
        """Planted violation: un-register the scheduler's slot map and
        the very first cross-query slot reuse must raise."""
        registry = dict(runtime_labels())
        del registry["EventScheduler._busy"]
        ds = DetSan(registry=registry)
        with pytest.raises(IsolationViolation) as exc:
            _run_batch(3, detsan=ds, streams=4)
        assert "EventScheduler._busy" in str(exc.value)
        assert "registry" in str(exc.value)

    def test_run_seed_helper_is_clean(self):
        sanitizer = run_seed(0, 2)
        assert sanitizer.violations == []
        assert sanitizer.total_mutations > 0

    def test_registry_labels_cover_guarded_structures(self):
        """Every runtime label DetSan installs by default must trace
        back to a registry entry with a non-empty reason."""
        labels = runtime_labels()
        for key, reason in SHARED_STATE.items():
            assert "::" in key, key
            assert reason.strip(), key
        for label in (
            "EventScheduler._busy",
            "_QueueState.running",
            "BlockDecodeCache._entries",
            "_LIKE_CACHE",
        ):
            assert label in labels
        assert "Engine.kernel_cache" not in labels


# ======================================================================== CLI
class TestCli:
    def run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.sanitize", *args],
            capture_output=True, text=True, cwd=REPO, env=env,
        )

    def test_sweep_exit_zero_and_reports_counts(self):
        proc = self.run_cli("--seeds", "2", "--streams", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violations" in proc.stdout
        assert "EventScheduler._busy" in proc.stdout
        assert "seed 0: clean" in proc.stdout
        assert "seed 1: clean" in proc.stdout
