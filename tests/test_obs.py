"""Observability: tracing/metrics must be passive and faithful.

The two contracts under test:

* **Bit-identity** — with ``SET trace = on``, every TPC-H query returns
  the same rows and the same ``cost.seconds`` to the last bit as the
  untraced twin (recording reads the simulated clock, never spends it).
* **Faithful decomposition** — the trace's per-(slice, segment) root
  spans are exactly the event scheduler's task windows: the latest root
  span end *equals* ``cost.seconds``, and the last assembled plan's
  windows end at the statement's makespan.

Plus the units around them: the metrics registry, per-query snapshot
diffs (block-cache hit/miss deltas ride ``QueryResult.metrics``), RPC
protocol closure checking, Chrome trace_event export, and the
``python -m repro.obs`` CLI.
"""

import json

import pytest

from repro.engine import Engine
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    QueryTrace,
    TraceCollector,
    render_prometheus,
    render_summary,
    rpc_closure_violations,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.trace import RpcEvent
from repro.tpch import QUERIES, load_tpch

SCALE = 0.001
TRACED_QUERIES = (1, 3, 6)


def _engine(**kw):
    kw.setdefault("num_segment_hosts", 2)
    kw.setdefault("segments_per_host", 2)
    kw.setdefault("seed", 7)
    return Engine(**kw)


@pytest.fixture(scope="module")
def traced_runs():
    """Per query: (untraced result, traced result, trace)."""
    runs = {}
    for number in TRACED_QUERIES:
        plain_engine = _engine()
        plain = plain_engine.connect()
        load_tpch(plain, scale=SCALE)
        traced_engine = _engine()
        traced = traced_engine.connect()
        load_tpch(traced, scale=SCALE)
        traced.execute("SET trace = on")
        for stmt in QUERIES[number]:
            r_plain = plain.execute(stmt)
            r_traced = traced.execute(stmt)
        runs[number] = (r_plain, r_traced, r_traced.trace)
    return runs


# ---------------------------------------------------------------- bit-identity
class TestBitIdentity:
    @pytest.mark.parametrize("number", TRACED_QUERIES)
    def test_rows_and_cost_identical_with_trace_on(self, traced_runs, number):
        plain, traced, _ = traced_runs[number]
        assert traced.rows == plain.rows
        assert traced.cost.seconds == plain.cost.seconds  # bit-identical
        assert traced.cost.disk_read_bytes == plain.cost.disk_read_bytes
        assert traced.cost.net_bytes == plain.cost.net_bytes

    @pytest.mark.parametrize("number", TRACED_QUERIES)
    def test_trace_only_on_traced_session(self, traced_runs, number):
        plain, traced, trace = traced_runs[number]
        assert plain.trace is None
        assert trace is not None and trace is traced.trace


# ------------------------------------------------------- makespan decomposition
class TestMakespanDecomposition:
    @pytest.mark.parametrize("number", TRACED_QUERIES)
    def test_latest_root_span_end_equals_cost_seconds(
        self, traced_runs, number
    ):
        _, traced, trace = traced_runs[number]
        roots = trace.root_spans()
        assert roots, "no task spans recorded"
        assert max(span.end for span in roots) == traced.cost.seconds

    @pytest.mark.parametrize("number", TRACED_QUERIES)
    def test_root_spans_match_scheduler_windows(self, traced_runs, number):
        """Each final-plan root span carries the scheduler's own start/
        finish for its (slice, segment); window length must match."""
        _, traced, trace = traced_runs[number]
        for span in trace.root_spans():
            sched = span.attrs["sched_finish"] - span.attrs["sched_start"]
            assert span.duration == pytest.approx(sched, abs=1e-12)

    @pytest.mark.parametrize("number", TRACED_QUERIES)
    def test_last_plan_windows_end_at_makespan(self, traced_runs, number):
        """The last assembled plan's task windows (the scheduler timings
        EXPLAIN ANALYZE prints) end at the statement's makespan."""
        _, traced, trace = traced_runs[number]
        tasks = trace.last_plan_tasks()
        assert {span.slice_id for span in tasks} == {
            plan_slice.slice_id for plan_slice in traced.plan.slices
        }
        finish = max(span.attrs["sched_finish"] for span in tasks)
        assert finish == traced.makespan

    @pytest.mark.parametrize("number", TRACED_QUERIES)
    def test_operator_spans_nest_inside_their_task_window(
        self, traced_runs, number
    ):
        _, _, trace = traced_runs[number]
        windows = {
            (s.slice_id, s.segment): (s.start, s.end)
            for s in trace.root_spans()
        }
        op_spans = [s for s in trace.spans if s.cat in ("exec", "storage")]
        assert op_spans, "no operator spans recorded"
        for span in op_spans:
            start, end = windows[(span.slice_id, span.segment)]
            assert span.start >= start - 1e-12
            assert span.end <= end + 1e-12

    def test_trace_totals_match_result(self, traced_runs):
        _, traced, trace = traced_runs[3]
        assert trace.total_seconds == traced.cost.seconds
        assert trace.makespan == traced.makespan
        assert trace.overhead == traced.overhead_seconds
        assert trace.retries == traced.retries == 0


# -------------------------------------------------------------- span content
class TestSpanContent:
    def test_q3_has_expected_operator_spans(self, traced_runs):
        _, _, trace = traced_runs[3]
        names = {span.name for span in trace.spans}
        assert any(n.startswith("SeqScan[lineitem]") for n in names)
        assert any(n.startswith("HashJoin") for n in names)
        assert any(n.startswith("Motion[") for n in names)
        assert any(n.startswith("scan:") for n in names)
        assert "parse/plan/dispatch" in names

    def test_storage_spans_annotate_cache_and_bytes(self, traced_runs):
        _, _, trace = traced_runs[1]
        storage = [s for s in trace.spans if s.cat == "storage"]
        assert storage
        assert sum(s.attrs["read_bytes"] for s in storage) > 0
        # load_tpch's ANALYZE pass warmed the block cache, so the query
        # itself sees hits; either way the lanes looked the cache up.
        lookups = sum(
            s.attrs["cache_hits"] + s.attrs["cache_misses"] for s in storage
        )
        assert lookups > 0

    def test_scan_stats_aggregate_per_table(self, traced_runs):
        _, _, trace = traced_runs[3]
        stats = trace.scan_stats()
        assert {"lineitem", "orders", "customer"} <= set(stats)
        assert stats["lineitem"]["read_bytes"] > 0
        assert stats["lineitem"]["lanes"] > 0

    def test_motion_streams_recorded_as_instants(self, traced_runs):
        _, _, trace = traced_runs[3]
        motions = [i for i in trace.instants if i.cat == "motion"]
        assert motions
        assert sum(i.attrs["bytes"] for i in motions) > 0


# ------------------------------------------------------------ metrics registry
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c", node="seg0").inc()
        reg.counter("c", node="seg0").inc(4)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(1.0)
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert snap["c{node=seg0}"] == 5
        assert snap["g"] == 2.5
        assert snap["h.count"] == 2
        assert snap["h.total"] == 4.0
        assert snap["h.min"] == 1.0 and snap["h.max"] == 3.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_label_order_reaches_one_series(self):
        reg = MetricsRegistry()
        reg.counter("bytes_read", format="co", node="seg1").inc(7)
        reg.counter("bytes_read", node="seg1", format="co").inc(5)
        reg.counter("bytes_read", format="co", node="seg1").inc(1)
        assert reg.counter("bytes_read", node="seg1", format="co").value == 13
        assert reg.snapshot().as_dict() == {"bytes_read{format=co,node=seg1}": 13}

    def test_kind_conflict_raises_after_a_labelled_lookup(self):
        reg = MetricsRegistry()
        reg.counter("x", node="seg0").inc()
        reg.counter("x", node="seg0").inc()
        with pytest.raises(TypeError):
            reg.gauge("x", node="seg0")
        with pytest.raises(TypeError):
            reg.histogram("x", node="seg0")

    def test_values_that_compare_equal_keep_their_own_series(self):
        reg = MetricsRegistry()
        for value in (1, True, 1.0, "1", 1, True):
            reg.counter("n", node=value).inc()
        assert reg.snapshot().as_dict() == {
            "n{node=1}": 3, "n{node=True}": 2, "n{node=1.0}": 1,
        }

    def test_snapshot_keys_and_exposition_are_pinned(self):
        reg = MetricsRegistry()
        reg.counter("rpc_bytes", kind="dispatch").inc(100)
        reg.counter("bytes_read", format="co", node="seg1").inc(7)
        reg.counter("bytes_read", node="seg1", format="co").inc(5)
        reg.counter("bytes_read", node="seg0", format="ao").inc(2)
        reg.gauge("waiters", queue='q"1').set(2.5)
        reg.histogram("wait_seconds", queue="pg_default").observe(0.5)
        reg.histogram("wait_seconds", queue="pg_default").observe(1.5)
        reg.counter("statements").inc()
        assert list(reg.snapshot()) == [
            "bytes_read{format=ao,node=seg0}",
            "bytes_read{format=co,node=seg1}",
            "rpc_bytes{kind=dispatch}",
            "statements",
            "wait_seconds{queue=pg_default}.count",
            "wait_seconds{queue=pg_default}.max",
            "wait_seconds{queue=pg_default}.min",
            "wait_seconds{queue=pg_default}.total",
            'waiters{queue=q"1}',
        ]
        assert render_prometheus(reg) == (
            "# TYPE bytes_read counter\n"
            'bytes_read{format="ao",node="seg0"} 2\n'
            'bytes_read{format="co",node="seg1"} 12\n'
            "# TYPE rpc_bytes counter\n"
            'rpc_bytes{kind="dispatch"} 100\n'
            "# TYPE statements counter\n"
            "statements 1\n"
            "# TYPE wait_seconds_count counter\n"
            'wait_seconds_count{queue="pg_default"} 2\n'
            "# TYPE wait_seconds_sum counter\n"
            'wait_seconds_sum{queue="pg_default"} 2\n'
            "# TYPE wait_seconds_min gauge\n"
            'wait_seconds_min{queue="pg_default"} 0.5\n'
            "# TYPE wait_seconds_max gauge\n"
            'wait_seconds_max{queue="pg_default"} 1.5\n'
            "# TYPE waiters gauge\n"
            'waiters{queue="q\\"1"} 2.5\n'
        )

    def test_snapshot_diff_keeps_nonzero_deltas(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("b").inc(1)
        before = reg.snapshot()
        reg.counter("a").inc(3)
        delta = reg.snapshot().diff(before)
        assert delta.as_dict() == {"a": 3}

    def test_since_levels_is_the_snapshot_diff(self):
        """What a statement's bracket reads — ``since(levels())`` — is
        ``snapshot().diff(before)``: the same keys, in the same order,
        with the same values, for every kind of series, moved or not,
        and for series registered after the levels were taken."""
        reg = MetricsRegistry()
        reg.counter("still").inc(4)
        reg.counter("moved", node="seg0").inc(1)
        reg.gauge("level").set(2.5)
        reg.gauge("same").set(1.0)
        reg.histogram("h", queue="q").observe(3.0)
        reg.histogram("idle")
        levels, before = reg.levels(), reg.snapshot()
        assert reg.since(levels).as_dict() == {}
        reg.counter("moved", node="seg0").inc(2)
        reg.gauge("level").set(-0.5)
        reg.gauge("same").set(1.0)
        reg.histogram("h", queue="q").observe(1.0)
        reg.histogram("idle").observe(0.25)
        reg.counter("new", node="seg1").inc(3)
        reg.counter("new_zero")
        reg.gauge("new_gauge").set(0.75)
        reg.histogram("new_h").observe(2.0)
        since, diff = reg.since(levels), reg.snapshot().diff(before)
        assert list(since.unsorted_items()) == list(diff.unsorted_items())
        assert since.as_dict() == {
            "h{queue=q}.count": 1, "h{queue=q}.total": 1.0, "h{queue=q}.min": -2.0,
            "idle.count": 1, "idle.total": 0.25, "idle.min": 0.25, "idle.max": 0.25,
            "level": -3.0, "moved{node=seg0}": 2, "new{node=seg1}": 3,
            "new_gauge": 0.75, "new_h.count": 1, "new_h.total": 2.0,
            "new_h.min": 2.0, "new_h.max": 2.0,
        }

    def test_total_sums_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("n", node="seg0").inc(1)
        reg.counter("n", node="seg1").inc(2)
        reg.counter("nx").inc(100)  # prefix, not a label series of n
        snap = reg.snapshot()
        assert snap.total("n") == 3
        assert snap.by_label("n") == {"node=seg0": 1, "node=seg1": 2}

    def test_empty_snapshot(self):
        snap = MetricsSnapshot()
        assert snap.total("anything") == 0
        assert list(snap) == []


# -------------------------------------------------------- per-query attribution
class TestQueryMetrics:
    def test_cache_delta_cold_then_warm(self):
        """Satellite 1: per-query block-cache hit/miss deltas ride
        QueryResult.metrics — cold run all misses, warm run hits.

        Loads lineitem by hand (load_tpch's ANALYZE pass would warm the
        cache and hide the cold run)."""
        from repro.tpch import create_table_sql, generate

        engine = _engine()
        session = engine.connect()
        data = generate(SCALE, seed=7)
        session.execute(create_table_sql("lineitem"))
        session.load_rows("lineitem", data.lineitem)
        stmt = QUERIES[6][0]
        cold = session.execute(stmt)
        warm = session.execute(stmt)
        assert cold.metrics.total("cache_misses") > 0
        assert cold.metrics.total("cache_hits") == 0
        assert warm.metrics.total("cache_hits") > 0
        assert warm.metrics.total("cache_misses") == 0

    def test_bytes_read_labeled_by_format_and_node(self):
        engine = _engine()
        session = engine.connect()
        load_tpch(session, scale=SCALE)
        result = session.execute(QUERIES[6][0])
        by_node = result.metrics.by_label("bytes_read")
        assert by_node, "no bytes_read series"
        assert all("format=" in k and "node=" in k for k in by_node)
        assert result.metrics.total("bytes_read") > 0

    def test_dispatch_and_motion_metrics(self):
        engine = _engine()
        session = engine.connect()
        load_tpch(session, scale=SCALE)
        result = session.execute(QUERIES[3][0])
        assert result.metrics.total("rpc_messages") > 0
        assert result.metrics.total("motion_streams") > 0
        assert result.metrics.total("motion_bytes") > 0
        # The engine spawned its gang once, with itself; a statement
        # runs on it and spawns none.
        assert engine.metrics.counter("workers_spawned").value == (
            engine.num_segments + 1
        )
        assert result.metrics.total("workers_spawned") == 0
        by_mode = result.metrics.by_label("datagrams_delivered")
        assert list(by_mode) == ["mode=udp"]

    def test_insert_counts_wal_and_written_bytes(self):
        engine = _engine()
        session = engine.connect()
        session.execute("CREATE TABLE m (a INT) DISTRIBUTED BY (a)")
        result = session.execute("INSERT INTO m VALUES (1), (2), (3)")
        assert result.metrics.total("wal_records") > 0
        assert result.metrics.total("bytes_written") > 0
        assert result.metrics.total("statements") == 1

    def test_metrics_are_per_statement_deltas(self):
        engine = _engine()
        session = engine.connect()
        load_tpch(session, scale=SCALE)
        first = session.execute(QUERIES[6][0])
        second = session.execute(QUERIES[6][0])
        # Engine-global counters grow; per-result snapshots stay deltas.
        assert second.metrics.total("statements") == 1
        assert engine.metrics.snapshot().total("statements") > 2


# --------------------------------------------------------------- rpc closure
def _event(attempt, seq, kind, slice_id, segment, sender="master"):
    return RpcEvent(
        attempt=attempt, seq=seq, kind=kind, slice_id=slice_id,
        segment=segment, sender=sender, dest=f"seg{segment}",
    )


class TestRpcClosure:
    def test_clean_query_has_no_violations(self, traced_runs):
        for number in TRACED_QUERIES:
            _, _, trace = traced_runs[number]
            assert rpc_closure_violations(trace) == []
            kinds = {e.kind for e in trace.rpc_events}
            assert {"dispatch", "ack", "complete"} <= kinds

    def test_unclosed_dispatch_is_flagged(self):
        trace = QueryTrace()
        trace.attempts = 1
        trace.rpc_events = [_event(1, 0, "dispatch", 0, 1)]
        violations = rpc_closure_violations(trace)
        assert len(violations) == 1
        assert "never closed" in violations[0]

    def test_complete_without_dispatch_is_flagged(self):
        trace = QueryTrace()
        trace.attempts = 1
        trace.rpc_events = [_event(1, 0, "complete", 0, 1, sender="seg1")]
        assert any(
            "without an open DISPATCH" in v
            for v in rpc_closure_violations(trace)
        )

    def test_complete_from_killed_segment_is_flagged(self):
        trace = QueryTrace()
        trace.attempts = 1
        trace.rpc_events = [
            _event(1, 0, "dispatch", 0, 1),
            RpcEvent(attempt=1, seq=1, kind="drop", slice_id=None,
                     segment=1, sender="seg1", dest=""),
            _event(1, 2, "complete", 0, 1, sender="seg1"),
        ]
        assert any(
            "killed segment" in v for v in rpc_closure_violations(trace)
        )

    def test_attempt_aborted_closes_and_is_idempotent(self):
        trace = QueryTrace()
        trace.begin_attempt()
        trace.rpc_events = [
            _event(1, 0, "dispatch", 0, 1),
            _event(1, 1, "dispatch", 1, 2),
            _event(1, 2, "complete", 1, 2, sender="seg2"),
        ]
        trace.attempt_aborted()
        trace.attempt_aborted()  # second call must find nothing open
        closes = [e for e in trace.rpc_events if e.kind == "abort-close"]
        assert [(e.slice_id, e.segment) for e in closes] == [(0, 1)]
        assert rpc_closure_violations(trace) == []


# -------------------------------------------------------------------- export
class TestChromeExport:
    def test_document_valid_with_a_track_per_segment(self, traced_runs):
        _, _, trace = traced_runs[3]
        doc = to_chrome_trace(trace)
        assert validate_chrome_trace(doc) is None
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "master" in names
        for segment in range(trace.num_segments):
            assert f"seg{segment}" in names

    def test_span_timestamps_microseconds(self, traced_runs):
        _, traced, trace = traced_runs[1]
        doc = to_chrome_trace(trace)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs
        assert max(e["ts"] + e["dur"] for e in xs) == pytest.approx(
            traced.cost.seconds * 1e6
        )
        assert doc["otherData"]["total_s"] == traced.cost.seconds

    def test_document_is_json_serializable(self, traced_runs):
        _, _, trace = traced_runs[6]
        parsed = json.loads(json.dumps(to_chrome_trace(trace)))
        assert validate_chrome_trace(parsed) is None

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace({}) is not None
        assert validate_chrome_trace({"traceEvents": []}) is not None
        assert (
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) is not None
        )


class TestRenderSummary:
    def test_summary_mentions_tracks_and_operators(self, traced_runs):
        _, _, trace = traced_runs[3]
        text = render_summary(trace)
        assert "master" in text
        assert "seg0" in text
        assert "SeqScan[lineitem]" in text
        assert "cumulative operator time" in text

    def test_summary_reports_total(self, traced_runs):
        _, traced, trace = traced_runs[1]
        assert f"total={traced.cost.seconds:.6f}s" in render_summary(trace)


# ----------------------------------------------------------------- session API
class TestSessionApi:
    def test_set_trace_guc_toggles(self):
        engine = _engine()
        session = engine.connect()
        session.execute("CREATE TABLE g (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO g VALUES (1)")
        off = session.execute("SELECT * FROM g")
        assert off.trace is None and session.tracer.queries == []
        session.execute("SET trace = on")
        on = session.execute("SELECT * FROM g")
        assert on.trace is not None
        assert session.tracer.last is on.trace
        session.execute("SET trace = off")
        off_again = session.execute("SELECT * FROM g")
        assert off_again.trace is None

    def test_collector_keeps_one_trace_per_statement(self):
        engine = _engine()
        session = engine.connect()
        session.execute("CREATE TABLE g2 (a INT) DISTRIBUTED BY (a)")
        session.execute("SET trace = on")
        session.execute("SELECT * FROM g2")
        session.execute("SELECT count(*) FROM g2")
        assert len(session.tracer.queries) == 2
        assert isinstance(session.tracer, TraceCollector)


# ------------------------------------------------------------------------ CLI
class TestCli:
    def test_main_exports_valid_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "trace.json"
        code = main(
            ["--query", "6", "--scale", "0.0005", "--export", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "tpch-q6" in captured
        assert "metrics (this statement):" in captured
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) is None
