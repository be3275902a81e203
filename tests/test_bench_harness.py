"""Tests for the benchmark harness: scale math, caching, comparisons."""

import pytest

from repro.bench.harness import (
    BenchConfig,
    HawqBench,
    NOMINAL_160GB,
    get_data,
    get_hawq,
    raw_bytes,
    rows_match,
    suite_seconds,
)
from repro.bench.reporting import format_table, print_figure


class TestScaleMath:
    def test_model_scale_definition(self):
        config = BenchConfig(
            nominal_bytes=160e9, sim_segments=16, paper_segments=96
        )
        # nominal per real segment / actual per simulated segment
        actual = 2.5e6
        expected = (160e9 / 96) / (actual / 16)
        assert config.model_scale(actual) == pytest.approx(expected)

    def test_raw_bytes_counts_all_tables(self):
        data = get_data(0.001)
        total = raw_bytes(data)
        assert total > 0
        assert total > sum(1 for _ in data.lineitem)  # more than 1B/row

    def test_suite_seconds_skips_oom(self):
        class FakeCost:
            seconds = 2.0

        class FakeResult:
            cost = FakeCost()

        class FakeStinger:
            seconds = 5.0

        results = {
            1: FakeResult(),
            2: (FakeStinger(), "ok"),
            3: (None, "oom"),
        }
        assert suite_seconds(results) == 7.0


class TestRowsMatch:
    def test_order_insensitive(self):
        assert rows_match([(1, "a"), (2, "b")], [(2, "b"), (1, "a")])

    def test_float_tolerance(self):
        assert rows_match([(1.0000000001,)], [(1.0,)])
        assert not rows_match([(1.1,)], [(1.0,)])

    def test_none_values(self):
        assert rows_match([(None, 1)], [(None, 1)])
        assert not rows_match([(None,)], [(1,)])

    def test_length_mismatch(self):
        assert not rows_match([(1,)], [(1,), (2,)])

    def test_float_noise_does_not_reorder(self):
        left = [(1.0, "x"), (1.0 + 1e-12, "y")]
        right = [(1.0, "x"), (1.0, "y")]
        assert rows_match(left, right)


class TestCaching:
    def test_data_memoized(self):
        assert get_data(0.001) is get_data(0.001)
        assert get_data(0.001) is not get_data(0.001, seed=1)

    def test_hawq_bench_memoized(self):
        config = BenchConfig(
            nominal_bytes=NOMINAL_160GB, scale_factor=0.001, io_cached=True
        )
        assert get_hawq(config) is get_hawq(
            BenchConfig(
                nominal_bytes=NOMINAL_160GB, scale_factor=0.001, io_cached=True
            )
        )

    def test_query_results_memoized(self):
        config = BenchConfig(
            nominal_bytes=NOMINAL_160GB, scale_factor=0.001, io_cached=True
        )
        bench = get_hawq(config)
        assert bench.run_query(6) is bench.run_query(6)

    def test_stored_bytes_positive(self):
        config = BenchConfig(
            nominal_bytes=NOMINAL_160GB, scale_factor=0.001, io_cached=True
        )
        bench = get_hawq(config)
        assert bench.table_stored_bytes("lineitem") > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [("a", 1.5), ("long-name", 12345.0)]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "12,345" in text

    def test_print_figure_returns_text(self, capsys):
        text = print_figure("Title", ["c"], [(1,)], notes=["note"])
        assert "Title" in text
        assert "note" in text
        assert "Title" in capsys.readouterr().out


class TestHistory:
    """BENCH_*.json histories are keyed by commit and hold no repeats."""

    def _write(self, path, history):
        import json

        path.write_text(json.dumps({"history": history}))

    def test_rerun_at_same_commit_replaces_its_entry(self, tmp_path, monkeypatch):
        from repro.bench import reporting

        out = tmp_path / "BENCH_x.json"
        monkeypatch.setattr(reporting, "current_commit", lambda: "abc1234")
        first = reporting.carry_history(str(out), {"backend": "numpy", "speedup": 2.0},
                                        series=("backend",))
        assert first == [{"backend": "numpy", "speedup": 2.0, "commit": "abc1234"}]
        self._write(out, first)
        again = reporting.carry_history(str(out), {"backend": "numpy", "speedup": 2.5},
                                        series=("backend",))
        assert [e["speedup"] for e in again] == [2.5]  # replaced, not appended
        self._write(out, again)
        other = reporting.carry_history(str(out), {"backend": "fallback", "speedup": 1.6},
                                        series=("backend",))
        assert [e["backend"] for e in other] == ["numpy", "fallback"]
        self._write(out, other)
        monkeypatch.setattr(reporting, "current_commit", lambda: "def5678")
        later = reporting.carry_history(str(out), {"backend": "fallback", "speedup": 1.6},
                                        series=("backend",))
        assert [e["commit"] for e in later] == ["abc1234", "abc1234", "def5678"]

    def test_consecutive_duplicates_in_the_file_collapse(self, tmp_path, monkeypatch):
        from repro.bench import reporting

        out = tmp_path / "BENCH_x.json"
        monkeypatch.setattr(reporting, "current_commit", lambda: "abc1234")
        old = {"qps": 28.9, "streams": 8}
        self._write(out, [{"qps": 27.0, "streams": 8}, old, old, old])
        history = reporting.carry_history(str(out), {"qps": 30.0, "streams": 8},
                                          series=("streams",))
        assert [e["qps"] for e in history] == [27.0, 28.9, 30.0]

    def test_same_numbers_under_other_keys_collapse(self, tmp_path, monkeypatch):
        """A throughput report's first four entries as they once stood: one
        measurement, told apart only by which keys the report had grown
        (``wait_p99_s``, ``commit``) — whole-dict inequality kept all four."""
        from repro.bench import reporting

        out = tmp_path / "BENCH_x.json"
        monkeypatch.setattr(reporting, "current_commit", lambda: "abc1234")
        base = {"p50_s": 0.268, "p99_s": 0.367, "qps": 28.957, "streams": 8}
        waited = dict(base, wait_p99_s=0.188)
        self._write(out, [
            base,
            waited,
            dict(waited, commit="eea40fa-dirty"),
            dict(waited, commit="6272248-dirty"),
            dict(waited, commit="9a0bc67-dirty", qps=28.963),
        ])
        history = reporting.carry_history(
            str(out), dict(waited, qps=30.0), series=("streams",)
        )
        assert history == [
            dict(waited, commit="eea40fa-dirty"),  # the first commit known
            dict(waited, commit="9a0bc67-dirty", qps=28.963),
            dict(waited, commit="abc1234", qps=30.0),
        ]

    def test_missing_or_corrupt_report_starts_a_fresh_history(self, tmp_path):
        from repro.bench import reporting

        out = tmp_path / "BENCH_x.json"
        assert len(reporting.carry_history(str(out), {"speedup": 1.0})) == 1
        out.write_text("{not json")
        assert len(reporting.carry_history(str(out), {"speedup": 1.0})) == 1


class TestCommandLine:
    """``python -m repro.bench``: one benchmark (``--wallclock``), no
    figures."""

    def test_a_figure_name_exits_2_and_names_the_pytest_command(self, capsys):
        from repro.bench.__main__ import main

        assert main(["fig6"]) == 2
        assert "pytest benchmarks/ --benchmark-only" in capsys.readouterr().out
        assert main(["--wallclock", "fig6"]) == 2
        assert main(["--check"]) == 2
        assert main(["--throughput"]) == 2

    @pytest.mark.parametrize("numpy, threshold", [(True, 5.0), (False, 1.5)])
    @pytest.mark.parametrize("margin, status", [(1.01, 0), (0.99, 1)])
    def test_wallclock_check_gates_the_microbenchmark_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, numpy, threshold, margin, status
    ):
        """The gate on both backends, on canned timings just either side
        of the backend's threshold (the measurement itself is
        ``scripts/ci.sh``'s, where a slow box fails a leg, not tier-1)."""
        from repro.bench import wallclock
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(wallclock, "NUMPY_AVAILABLE", numpy)
        monkeypatch.setattr(
            wallclock,
            "_time_microbench",
            lambda mode, repeats, seed: (
                threshold * margin if mode == "row" else 1.0
            ),
        )
        assert main(["--wallclock", "--check", "--no-report"]) == status
        out = capsys.readouterr().out
        assert ("OK" if status == 0 else "FAIL") in out
        assert f"{threshold}x" in out
        assert list(tmp_path.iterdir()) == []
