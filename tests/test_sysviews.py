"""PR 10 system views: SQL-queryable cluster telemetry.

The load-bearing properties:

* **SQL composition** — all four pg_stat_* views answer through the
  ordinary SQL path (filter / ORDER BY / aggregation), resolved as
  zero-cost master-only scans.
* **Passivity** — interleaving system-view queries between workload
  statements under 4-stream concurrency leaves every original
  statement's rows AND charged seconds bit-identical (the views read
  the live registries, never touch them).
* **Liveness** — ``pg_stat_activity`` reflects queued / running /
  cancelling statements mid-schedule; ``pg_resqueue_status`` shows
  waiters and head-of-line while a queue is saturated.
* **Chaos probe** — a query killed mid-schedule surfaces as
  cancelling/gone in interleaved introspection, and the survivors
  stay bit-identical to a cancel-only baseline.
"""

from types import SimpleNamespace

import pytest

from repro.catalog.master_relations import SCHEMAS, SYSTEM_VIEW_COLUMNS
from repro.engine import Engine
from repro.errors import QueryCanceled
from repro.executor.concurrent import ConcurrentRunner
from repro.obs.activity import StatementStats, fingerprint, render_top
from repro.obs.export import prometheus_violations, render_prometheus
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from tests.test_cancellation import MidStatementHook


# --------------------------------------------------------------- fixtures
def build_engine(seed: int = 11) -> Engine:
    engine = Engine(num_segment_hosts=2, segments_per_host=2, seed=seed)
    session = engine.connect()
    session.execute(
        "CREATE TABLE conc (a INT, b INT, c VARCHAR(8)) DISTRIBUTED BY (a)"
    )
    rows = [(i, (i * 7) % 100, f"v{i % 13}") for i in range(300)]
    session.load_rows("conc", rows)
    session.execute("ANALYZE")
    return engine


HEAVY = "SELECT c, count(*), sum(b) FROM conc GROUP BY c ORDER BY c"
LIGHT = "SELECT count(*) FROM conc WHERE a % 3 = 0"
POOL = [
    HEAVY,
    "SELECT a, b FROM conc WHERE b < 40 ORDER BY a",
    LIGHT,
    "SELECT a, c FROM conc WHERE a = 17",
]
ACTIVITY_PROBE = (
    "SELECT query_id, state, queue FROM pg_stat_activity ORDER BY query_id"
)


def outcome_of(batch, stream, index):
    for outcome in batch.outcomes:
        if outcome.stream == stream and outcome.index == index:
            return outcome
    raise AssertionError(f"no outcome for ({stream}, {index})")


# ------------------------------------------------------- SQL composition
class TestSystemViewSql:
    def test_segments_view_covers_cluster(self):
        engine = build_engine()
        session = engine.connect()
        session.execute(HEAVY)
        rows = session.execute(
            "SELECT segment_id, host, tasks, busy_seconds, utilization "
            "FROM pg_stat_segments ORDER BY segment_id"
        ).rows
        assert [row[0] for row in rows] == list(range(engine.num_segments))
        assert all(row[2] > 0 for row in rows)  # every segment ran tasks
        assert all(0.0 <= row[4] <= 1.0 for row in rows)

    def test_views_compose_with_filter_order_agg(self):
        engine = build_engine()
        session = engine.connect()
        session.execute(HEAVY)
        agg = session.execute("SELECT count(*) FROM pg_stat_segments").rows
        assert agg == [(engine.num_segments,)]
        filtered = session.execute(
            "SELECT queue, slots FROM pg_resqueue_status "
            "WHERE waiters = 0 ORDER BY queue"
        ).rows
        assert ("pg_default", 20) in filtered
        top = session.execute(
            "SELECT fingerprint, calls FROM pg_stat_statements "
            "WHERE calls >= 1 ORDER BY calls DESC, fingerprint"
        ).rows
        assert len(top) >= 1

    def test_activity_serial_statement_sees_itself(self):
        engine = build_engine()
        session = engine.connect()
        rows = session.execute(
            "SELECT query_id, state, queue, attempt FROM pg_stat_activity"
        ).rows
        assert len(rows) == 1
        assert rows[0][1] == "running"
        assert rows[0][2] == "pg_default"
        assert rows[0][3] == 1

    def test_statement_repository_normalizes_literals(self):
        engine = build_engine()
        session = engine.connect()
        session.execute("SELECT a, c FROM conc WHERE a = 17")
        session.execute("SELECT  a, c FROM conc  WHERE a = 230;")
        rows = session.execute(
            "SELECT fingerprint, calls, total_rows FROM pg_stat_statements "
            "WHERE fingerprint = 'select a, c from conc where a = ?'"
        ).rows
        assert len(rows) == 1
        assert rows[0][1] == 2  # both literal variants, one fingerprint
        assert rows[0][2] == 2  # one matching row each

    def test_statement_repository_accumulates_charges(self):
        engine = build_engine()
        session = engine.connect()
        first = session.execute(HEAVY)
        second = session.execute(HEAVY)
        rows = session.execute(
            "SELECT calls, total_seconds, mean_seconds "
            "FROM pg_stat_statements WHERE fingerprint = "
            f"'{fingerprint(HEAVY)}'"
        ).rows
        assert rows[0][0] == 2
        expected = first.cost.seconds + second.cost.seconds
        assert rows[0][1] == pytest.approx(expected)
        assert rows[0][2] == pytest.approx(expected / 2)

    def test_statement_repository_counts_cache_hits_and_misses(self):
        """A fingerprint's cache columns sum its statements' labelled
        ``cache_hits`` / ``cache_misses`` series: a cold run misses and
        a warm one hits."""
        engine = build_engine()
        session = engine.connect()
        engine.block_cache.clear()
        cold = session.execute(HEAVY)
        warm = session.execute(HEAVY)
        assert cold.metrics.total("cache_misses") > 0
        assert warm.metrics.total("cache_hits") > 0
        rows = session.execute(
            "SELECT calls, cache_hits, cache_misses FROM pg_stat_statements "
            f"WHERE fingerprint = '{fingerprint(HEAVY)}'"
        ).rows
        assert rows == [
            (
                2,
                cold.metrics.total("cache_hits") + warm.metrics.total("cache_hits"),
                cold.metrics.total("cache_misses")
                + warm.metrics.total("cache_misses"),
            )
        ]

    def test_statement_repository_reads_only_labelled_cache_series(self):
        """Only ``cache_hits{…}`` and ``cache_misses{…}`` keys count: not
        a bare series of the same name, nor one whose name only starts
        with it."""
        stats = StatementStats()
        delta = MetricsSnapshot(
            {
                "cache_hits{node=seg0}": 3,
                "cache_hits{node=seg1}": 4.0,
                "cache_misses{node=seg0}": 5,
                "cache_hits": 100,
                "cache_hits_total{node=seg0}": 100,
                "cache_written{node=seg0}": 100,
                "bytes_read{format=ao,node=seg0}": 100,
            }
        )
        result = SimpleNamespace(rows=[], metrics=delta)
        stats.observe_statement("SELECT 1", result)
        stats.observe_statement("SELECT 2", result)
        (row,) = stats.statement_rows()
        assert row[0] == "select ?"
        assert row[-2:] == (14, 10)

    def test_fingerprint_rules(self):
        assert fingerprint("SELECT * FROM t WHERE a = 7") == (
            "select * from t where a = ?"
        )
        assert fingerprint("select *  from t where a=19;") == (
            "select * from t where a=?"
        )
        assert fingerprint("SELECT 'x''y' FROM t") == "select ? from t"
        # identifiers containing digits survive normalization
        assert fingerprint("SELECT v2 FROM t1") == "select v2 from t1"

    def test_schema_matches_columns(self):
        for name, columns in sorted(SYSTEM_VIEW_COLUMNS.items()):
            schema = SCHEMAS[name]
            assert [col.name for col in schema.columns] == columns


# ------------------------------------------------------------- passivity
class TestPassivityDifferential:
    def test_interleaved_introspection_is_bit_identical(self):
        """The tentpole differential: a 4-stream workload with a
        system-view query interleaved after every statement returns
        bit-identical rows and charged seconds for every original
        statement — introspection reads never perturb execution."""
        statements = [
            [POOL[(stream + i) % len(POOL)] for i in range(3)]
            for stream in range(4)
        ]
        baseline = ConcurrentRunner(build_engine(), statements).run()

        probes = [
            ACTIVITY_PROBE,
            "SELECT queue, slots_in_use, waiters FROM pg_resqueue_status "
            "ORDER BY queue",
            "SELECT segment_id, tasks FROM pg_stat_segments "
            "ORDER BY segment_id",
            "SELECT fingerprint, calls FROM pg_stat_statements "
            "ORDER BY fingerprint",
        ]
        interleaved = []
        for stream in range(4):
            mixed = []
            for i, sql in enumerate(statements[stream]):
                mixed.append(sql)
                mixed.append(probes[(stream + i) % len(probes)])
            interleaved.append(mixed)
        probed = ConcurrentRunner(build_engine(), interleaved).run()

        for stream in range(4):
            for i in range(3):
                original = outcome_of(baseline, stream, i)
                shadowed = outcome_of(probed, stream, 2 * i)
                assert shadowed.rows == original.rows
                assert shadowed.charged_seconds == original.charged_seconds
                assert shadowed.serial_seconds == original.serial_seconds

    def test_probes_observe_live_running_statements(self):
        """The interleaved introspection statements actually see their
        concurrent peers running — liveness, not just passivity."""
        interleaved = [
            [POOL[(stream + i) % len(POOL)], ACTIVITY_PROBE]
            for stream in range(4)
            for i in (0,)
        ]
        batch = ConcurrentRunner(build_engine(), interleaved).run()
        probe_outcomes = [o for o in batch.outcomes if o.index == 1]
        assert probe_outcomes
        saw_running = sum(
            1
            for outcome in probe_outcomes
            if outcome.rows and "running" in [r[1] for r in outcome.rows]
        )
        assert saw_running >= 1

    def test_serial_probe_between_statements_is_passive(self):
        """Serial flavor of the differential: interleaving system-view
        SELECTs between serial statements changes nothing."""
        engine_a = build_engine()
        session_a = engine_a.connect()
        plain = [session_a.execute(sql) for sql in POOL]

        engine_b = build_engine()
        session_b = engine_b.connect()
        probed = []
        for sql in POOL:
            probed.append(session_b.execute(sql))
            session_b.execute("SELECT count(*) FROM pg_stat_activity")
            session_b.execute("SELECT count(*) FROM pg_stat_segments")
        for before, after in zip(plain, probed):
            assert after.rows == before.rows
            assert after.cost.seconds == before.cost.seconds


# -------------------------------------------------------------- liveness
class TestLiveState:
    def test_queued_statements_visible_under_contention(self):
        engine = build_engine()
        engine.connect().execute(
            "CREATE RESOURCE QUEUE narrow WITH (active_statements=1)"
        )
        streams = [
            [HEAVY, HEAVY],
            [HEAVY, HEAVY],
            [
                "SELECT query_id, state, queue, queue_wait_seconds "
                "FROM pg_stat_activity WHERE state = 'queued' "
                "ORDER BY query_id",
                "SELECT queue, slots_in_use, waiters, head_of_line "
                "FROM pg_resqueue_status WHERE waiters > 0",
            ],
        ]
        batch = ConcurrentRunner(
            engine, streams, queues={0: "narrow", 1: "narrow"}
        ).run()
        queued_rows = outcome_of(batch, 2, 0).rows
        assert queued_rows, "no queued statement observed"
        for row in queued_rows:
            assert row[1] == "queued"
            assert row[2] == "narrow"
            assert row[3] >= 0.0
        status_rows = outcome_of(batch, 2, 1).rows
        assert status_rows
        queue, in_use, waiters, head = status_rows[0]
        assert queue == "narrow"
        assert in_use == 1  # single slot saturated
        assert waiters >= 1
        assert head is not None  # head-of-line query id published

    def test_lone_statement_reports_its_slice_progress(self):
        """A lone statement's own row carries its dispatch ledger: seen
        from the scans of its second wave, the first is done."""
        engine = build_engine()
        seen = []
        engine.attach_chaos(
            MidStatementHook(lambda: seen.extend(engine.telemetry.activity_rows()))
        )
        engine.connect().execute(
            "SELECT count(*) FROM conc x, conc y WHERE x.a = y.b"
        )
        engine.attach_chaos(None)
        assert {row[0] for row in seen} == {seen[0][0]}  # itself, only
        assert seen[0][4:] == (1, 0, 0)  # first wave: nothing on the clock yet
        assert seen[-1][4:] == (1, 1, 1)

    def test_nested_lone_statement_leaves_the_batch_readable(self):
        """INSERT … SELECT in a stream runs its SELECT as a lone
        statement nested in the running batch: it sees the batch's
        statements beside itself, and the batch's views still answer
        from the batch once it is gone."""
        engine = build_engine()
        engine.connect().execute(
            "CREATE TABLE sink (query_id INT, attempt INT) DISTRIBUTED BY (query_id)"
        )
        streams = [
            [HEAVY, HEAVY, HEAVY],
            [
                "INSERT INTO sink SELECT query_id, attempt "
                "FROM pg_stat_activity WHERE state = 'running'",
                "SELECT query_id FROM sink ORDER BY query_id",
                ACTIVITY_PROBE,
                "SELECT queue, slots_in_use FROM pg_resqueue_status",
            ],
        ]
        batch = ConcurrentRunner(engine, streams).run()
        assert all(outcome.ok for outcome in batch.outcomes)
        peer = outcome_of(batch, 0, 0).query_id
        # ... and the nested SELECT took the next query id.
        assert outcome_of(batch, 1, 1).rows == [(peer,), (peer + 1,)]
        probe = outcome_of(batch, 1, 2)
        assert [row[1] for row in probe.rows] == ["running", "running"]
        assert probe.query_id in [row[0] for row in probe.rows]
        assert outcome_of(batch, 1, 3).rows == [("pg_default", 2)]
        assert engine._loops == []

    def test_attempt_and_slice_progress_columns(self):
        engine = build_engine()
        streams = [
            [HEAVY],
            [
                "SELECT attempt, slices_dispatched, slices_completed "
                "FROM pg_stat_activity WHERE state = 'running' "
                "ORDER BY query_id"
            ],
        ]
        batch = ConcurrentRunner(engine, streams).run()
        rows = outcome_of(batch, 1, 0).rows
        assert rows
        for attempt, dispatched, completed in rows:
            assert attempt >= 1
            assert dispatched >= completed >= 0


# ----------------------------------------------------------- chaos probe
class TestCancelProbe:
    def test_killed_query_gone_and_survivors_identical(self):
        streams = [[HEAVY, LIGHT], [LIGHT, HEAVY]]
        cancel = {(0, 0): 0.05}
        baseline = ConcurrentRunner(
            build_engine(),
            [list(s) for s in streams],
            allow_failures=True,
            cancel_at=dict(cancel),
        ).run()
        killed_base = outcome_of(baseline, 0, 0)
        assert killed_base.error is not None
        assert "QueryCanceled" in killed_base.error

        probed = ConcurrentRunner(
            build_engine(),
            [list(streams[0]), list(streams[1]),
             [ACTIVITY_PROBE, ACTIVITY_PROBE, ACTIVITY_PROBE]],
            allow_failures=True,
            cancel_at=dict(cancel),
        ).run()
        killed = outcome_of(probed, 0, 0)
        assert killed.error is not None and "QueryCanceled" in killed.error

        # After the cancel lands, the killed id must surface only as
        # cancelling or not at all — never queued/running again.
        for outcome in probed.outcomes:
            if outcome.stream != 2:
                continue
            if outcome.submit < 0.05:
                continue  # probe dispatched before the cancel event
            for query_id, state, *_rest in outcome.rows:
                if query_id == killed.query_id:
                    assert state == "cancelling"

        for stream, index in [(0, 1), (1, 0), (1, 1)]:
            original = outcome_of(baseline, stream, index)
            shadowed = outcome_of(probed, stream, index)
            assert shadowed.rows == original.rows
            assert shadowed.charged_seconds == original.charged_seconds

    def test_pending_serial_cancel_shows_cancelling(self):
        """A lone statement observed from inside its own first wave:
        'running', then 'cancelling' once a cancel request is pending,
        and gone when the request has been honoured."""
        engine = build_engine()
        telemetry = engine.telemetry
        seen = []

        def cancel_and_look():
            seen.extend(telemetry.activity_rows())
            engine.cancel_query(seen[0][0])
            seen.extend(telemetry.activity_rows())

        engine.attach_chaos(MidStatementHook(cancel_and_look))
        with pytest.raises(QueryCanceled):
            engine.connect().execute(HEAVY)
        engine.attach_chaos(None)

        running, cancelling = seen
        assert running[:3] == (running[0], "running", "pg_default")
        assert cancelling == (running[0], "cancelling") + running[2:]
        assert telemetry.activity_rows() == []


# ---------------------------------------------------- queue pressure (S1)
class TestQueuePressureMetrics:
    def test_waiters_and_slots_gauges_published(self):
        engine = build_engine()
        engine.connect().execute(
            "CREATE RESOURCE QUEUE narrow WITH (active_statements=1)"
        )
        ConcurrentRunner(
            engine,
            [[HEAVY, LIGHT], [LIGHT, HEAVY], [HEAVY, LIGHT]],
            queues={0: "narrow", 1: "narrow", 2: "narrow"},
        ).run()
        snap = engine.metrics.snapshot()
        # Queue-depth histogram: one observation per submission.
        assert snap.total("resqueue_queue_depth.count") >= 6
        assert snap["resqueue_queue_depth{queue=narrow}.count"] >= 6
        # Gauges exist and settled back to idle after the batch.
        assert snap["resqueue_waiters{queue=narrow}"] == 0
        assert snap["resqueue_slots_in_use{queue=narrow}"] == 0
        # The depth is sampled at submission before the new statement
        # parks, so a nonzero max needs a second parker arriving while
        # the first still waits — three streams on one slot guarantee it.
        assert snap["resqueue_queue_depth{queue=narrow}.max"] >= 1

    def test_occupancy_rows_shape(self):
        from repro.cluster.resqueue import (
            QueueSpec,
            ResourceQueueManager,
        )

        manager = ResourceQueueManager(
            {"q": QueueSpec(name="q", slots=1, memory_limit=100.0)}
        )
        manager.submit(1, "q", 50.0, 0.0, lambda t: None)
        manager.submit(2, "q", 50.0, 1.0, lambda t: None)
        manager.submit(3, "q", 50.0, 2.0, lambda t: None)
        rows = manager.occupancy()
        assert rows == [("q", 1, 1, 100.0, 50.0, 2, 2)]
        manager.release(1, 3.0)
        rows = manager.occupancy()
        assert rows == [("q", 1, 1, 100.0, 50.0, 1, 3)]


# ------------------------------------------------- metrics suffixes (S2)
class TestMetricsHistogramSuffixes:
    def build_snapshot(self) -> MetricsSnapshot:
        registry = MetricsRegistry()
        registry.counter("n", node="seg0").inc(1)
        registry.counter("n", node="seg1").inc(2)
        registry.histogram("h", queue="a").observe(2.0)
        registry.histogram("h", queue="a").observe(4.0)
        registry.histogram("h", queue="b").observe(10.0)
        return registry.snapshot()

    def test_total_counters_unchanged(self):
        snap = self.build_snapshot()
        assert snap.total("n") == 3
        assert snap.total("missing") == 0

    def test_total_histogram_components(self):
        snap = self.build_snapshot()
        assert snap.total("h.count") == 3
        assert snap.total("h.total") == 16.0
        assert snap.total("h.max") == 14.0  # per-label maxima summed
        # A bare histogram name no longer sums unrelated components.
        assert snap.total("h") == 0.0

    def test_by_label_histogram_components(self):
        snap = self.build_snapshot()
        assert snap.by_label("h.count") == {"queue=a": 2, "queue=b": 1}
        assert snap.by_label("h.total") == {"queue=a": 6.0, "queue=b": 10.0}
        assert snap.by_label("n") == {"node=seg0": 1, "node=seg1": 2}

    def test_unlabeled_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(5.0)
        snap = registry.snapshot()
        assert snap.total("h.count") == 1
        assert snap.by_label("h.total") == {"": 5.0}
        assert snap.total("h") == 0.0

    def test_mean_is_sum_over_count(self):
        snap = self.build_snapshot()
        mean = snap.total("h.total") / snap.total("h.count")
        assert mean == pytest.approx(16.0 / 3)


# ------------------------------------------------------------ prometheus
class TestPrometheusExport:
    def test_rendered_registry_is_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("requests", node="seg0").inc(3)
        registry.counter("requests", node="seg1").inc(4)
        registry.gauge("depth", queue="pg_default").set(2)
        registry.histogram("wait_seconds", queue="pg_default").observe(0.5)
        registry.histogram("wait_seconds", queue="pg_default").observe(1.5)
        text = render_prometheus(registry)
        assert prometheus_violations(text) == []
        assert '# TYPE requests counter' in text
        assert 'requests{node="seg0"} 3' in text
        assert 'wait_seconds_count{queue="pg_default"} 2' in text
        assert 'wait_seconds_sum{queue="pg_default"} 2' in text
        assert 'wait_seconds_min{queue="pg_default"} 0.5' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert prometheus_violations("") == []

    def test_violations_caught(self):
        bad = "\n".join(
            [
                "# TYPE ok counter",
                "ok 1",
                "broken metric line",
                'untyped_sample{x="y"} 2',
                "# TYPE bad notakind",
            ]
        )
        problems = prometheus_violations(bad)
        assert len(problems) == 3
        assert any("malformed sample" in p for p in problems)
        assert any("precedes its TYPE" in p for p in problems)
        assert any("malformed TYPE" in p for p in problems)

    def test_engine_metrics_render_clean(self):
        engine = build_engine()
        engine.connect().execute(HEAVY)
        text = render_prometheus(engine.metrics)
        assert text
        assert prometheus_violations(text) == []


# ------------------------------------------------------------- dashboard
class TestDashboard:
    def test_render_top_from_live_snapshot(self):
        engine = build_engine()
        snapshots = []

        def probe(stream, index):
            snapshots.append(engine.telemetry.overview())

        ConcurrentRunner(
            engine, [[HEAVY, LIGHT], [LIGHT, HEAVY]], before_query=probe
        ).run()
        busiest = max(
            snapshots, key=lambda snap: (len(snap["activity"]), snap["now"])
        )
        text = render_top(busiest)
        assert "statements" in text
        assert "resource queues" in text
        assert "pg_default" in text
        assert "seg0" in text

    def test_overview_idle_engine(self):
        engine = build_engine()
        overview = engine.telemetry.overview()
        assert overview["activity"] == []
        assert len(overview["segments"]) == engine.num_segments
        text = render_top(overview)
        assert "(idle)" in text


# ----------------------------------------------------------- EXPLAIN skew
class TestExplainSkew:
    def test_verbose_analyze_reports_gang_skew(self):
        engine = build_engine()
        session = engine.connect()
        lines = [
            row[0]
            for row in session.execute(
                f"EXPLAIN (ANALYZE, VERBOSE) {HEAVY}"
            ).rows
        ]
        skew = [line for line in lines if "skew: max=" in line]
        assert skew, "no skew annotation in verbose output"
        import re

        match = re.search(
            r"max=(\d+\.\d+)s mean=(\d+\.\d+)s min=(\d+\.\d+)s "
            r"across (\d+) tasks",
            skew[0],
        )
        assert match is not None
        top, mean, low, count = (
            float(match.group(1)),
            float(match.group(2)),
            float(match.group(3)),
            int(match.group(4)),
        )
        assert top >= mean >= low >= 0.0
        assert count >= 2

    def test_plain_analyze_has_no_skew_line(self):
        engine = build_engine()
        session = engine.connect()
        lines = [
            row[0]
            for row in session.execute(f"EXPLAIN ANALYZE {HEAVY}").rows
        ]
        assert not [line for line in lines if "skew:" in line]
