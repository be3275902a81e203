"""Concurrency battery: slots, resource queues, the concurrent runner
and trace isolation. With the chaos suite's concurrent phase, this is
the runtime check that interleaving never changes an answer or a
charged cost; lint rule R7 is the static one.

The load-bearing properties:

* **Serial/concurrent differential** — the same seeded statement mix
  run serially and at N=2/4/8 interleaved streams returns bit-identical
  rows per query, and every query's charged cost equals its serial cost
  plus its explicitly-accounted queue wait (float-exact). The serial
  answers themselves agree with the outside reference
  (``repro.bench.reference``).
* **One shared clock, checked from outside** — every task of an
  interleaved run starts exactly when its release, its inputs and its
  segment slot allow, and the resource queue's recorded waits are the
  ones the statements were charged.
* **Throughput** — more streams finish more statements per simulated
  second, and the latency tail stays within 5x the median.
* **Seeded-interleaving purity** — for 25 seeds, re-running a workload
  reproduces identical makespans, per-query finish times, and waits:
  interleaving is a pure function of (seed, workload).
* **Trace isolation** — two interleaved sessions never read each
  other's traces; every trace carries only its own query id.
* **One driver** — a lone ``Session.execute`` is the one-statement
  batch: same retry charges, same refusal by a queue that can never
  admit, and an explicit transaction means the same thing in a stream.
"""

import pytest

from repro.bench.reference import Reference
from repro.catalog.security import QueueLimitExceeded
from repro.cluster.resqueue import (
    QueueSpec,
    ResourceQueueManager,
    specs_from_security,
)
from repro.engine import Engine
from repro.errors import CatalogError, ReproError
from repro.executor.concurrent import RETRY_BACKOFF, ConcurrentRunner
from repro.obs.trace import trace_query_id_violations
from repro.simtime.scheduler import EventScheduler, TaskGraph
from repro.util import DeterministicRng
from tests.conftest import runtime_holds


# --------------------------------------------------------------- fixtures
CONC_DDL = "CREATE TABLE conc (a INT, b INT, c VARCHAR(8))"
CONC_ROWS = [(i, (i * 7) % 100, f"v{i % 13}") for i in range(300)]

#: The statements :func:`make_streams` draws from.
POOL = [
    "SELECT c, count(*), sum(b) FROM conc GROUP BY c ORDER BY c",
    "SELECT a, b FROM conc WHERE b < 40 ORDER BY a",
    "SELECT count(*) FROM conc WHERE a % 3 = 0",
    "SELECT a, c FROM conc WHERE a = 17",
]


def build_engine(seed: int = 11) -> Engine:
    engine = Engine(num_segment_hosts=2, segments_per_host=2, seed=seed)
    session = engine.connect()
    session.execute(CONC_DDL + " DISTRIBUTED BY (a)")
    session.load_rows("conc", CONC_ROWS)
    session.execute("ANALYZE")
    return engine


def make_streams(seed: int, count: int, statements: int = 4):
    streams = []
    for stream_id in range(count):
        rng = DeterministicRng(seed, "conc-test", f"stream{stream_id}")
        streams.append(
            [POOL[rng.randrange(len(POOL))] for _ in range(statements)]
        )
    return streams


# ------------------------------------------------- scheduler slot semantics
class TestSchedulerSlots:
    def test_shared_slot_serializes_tasks(self):
        sched = EventScheduler()
        sched.add_task((1, 0, 0), 5.0, slot="seg")
        sched.add_task((2, 0, 0), 3.0, slot="seg")
        out = sched.run()
        spans = sorted(
            (out.start[k], out.finish[k]) for k in out.start
        )
        assert spans[0][1] <= spans[1][0]  # no overlap on the slot
        assert out.makespan == 8.0

    def test_slotless_tasks_overlap(self):
        sched = EventScheduler()
        sched.add_task((1, 0, 0), 5.0)
        sched.add_task((2, 0, 0), 3.0)
        out = sched.run()
        assert out.makespan == 5.0

    def test_parked_task_tie_break_is_stable(self):
        # First arrival takes the free slot; the tasks parked behind it
        # drain in stable (ready_time, key) order regardless of the
        # order they were added.
        sched = EventScheduler()
        for prefix in (3, 2, 1):
            sched.add_task((prefix, 0, 0), 1.0, slot=0)
        out = sched.run()
        order = sorted(out.start, key=lambda k: (out.start[k], k))
        assert order == [(3, 0, 0), (1, 0, 0), (2, 0, 0)]

    def test_waits_account_for_slot_contention(self):
        sched = EventScheduler()
        sched.add_task((1, 0, 0), 4.0, slot=0)
        sched.add_task((2, 0, 0), 2.0, slot=0)
        out = sched.run()
        assert out.waits[(1, 0, 0)] == 0.0
        assert out.waits[(2, 0, 0)] == 4.0

    def test_watch_fires_at_last_finish(self):
        sched = EventScheduler()
        sched.add_task((1, 0, 0), 2.0)
        sched.add_task((1, 1, 0), 5.0)
        seen = []
        sched.watch([(1, 0, 0), (1, 1, 0)], seen.append)
        sched.run()
        assert seen == [5.0]

    def test_watch_callback_adds_next_query(self):
        # Closed-loop: finishing query 1 submits query 2 dynamically.
        sched = EventScheduler()
        sched.add_task((1, 0, 0), 3.0, slot=0)

        def submit_next(t):
            sched.add_task((2, 0, 0), 2.0, release=t, slot=0)

        sched.watch([(1, 0, 0)], submit_next)
        out = sched.run()
        assert out.finish[(2, 0, 0)] == 5.0
        assert out.makespan == 5.0

    def test_mid_run_edge_to_finished_task_rejected(self):
        sched = EventScheduler()
        sched.add_task((1, 0, 0), 1.0)

        def bad(t):
            sched.add_task((2, 0, 0), 1.0)
            sched.add_edge((2, 0, 0), (1, 0, 0))

        sched.watch([(1, 0, 0)], bad)
        with pytest.raises(ReproError):
            sched.run()


# ------------------------------------------------------- resource queues
class TestResourceQueues:
    def manager(self, slots=2, memory=100.0, priority=0):
        specs = {
            "q": QueueSpec(
                name="q", slots=slots, memory_limit=memory,
                priority=priority,
            )
        }
        return ResourceQueueManager(specs)

    def test_admits_within_slots(self):
        mgr = self.manager(slots=2)
        admitted = []
        mgr.submit(1, "q", 10.0, 0.0, admitted.append)
        mgr.submit(2, "q", 10.0, 0.0, admitted.append)
        assert admitted == [0.0, 0.0]
        assert mgr.running("q") == 2

    def test_parks_over_slot_budget_and_charges_wait(self):
        mgr = self.manager(slots=1)
        log = []
        mgr.submit(1, "q", 10.0, 0.0, lambda t: log.append(("a", t)))
        mgr.submit(2, "q", 10.0, 0.0, lambda t: log.append(("b", t)))
        assert log == [("a", 0.0)]
        assert mgr.depth("q") == 1
        mgr.release(1, 7.5)
        assert log == [("a", 0.0), ("b", 7.5)]
        assert mgr.waits[2] == 7.5

    def test_parks_over_memory_budget(self):
        mgr = self.manager(slots=8, memory=100.0)
        log = []
        mgr.submit(1, "q", 60.0, 0.0, lambda t: log.append(1))
        mgr.submit(2, "q", 60.0, 0.0, lambda t: log.append(2))
        assert log == [1]
        mgr.release(1, 3.0)
        assert log == [1, 2]

    def test_oversized_query_clamped_to_budget(self):
        mgr = self.manager(slots=2, memory=100.0)
        log = []
        mgr.submit(1, "q", 500.0, 0.0, lambda t: log.append(1))
        assert log == [1]  # clamped, runs alone

    def test_priority_drains_first(self):
        mgr = self.manager(slots=1)
        log = []
        mgr.submit(1, "q", 1.0, 0.0, lambda t: log.append(1))
        mgr.submit(2, "q", 1.0, 0.0, lambda t: log.append(2), priority=0)
        mgr.submit(3, "q", 1.0, 0.0, lambda t: log.append(3), priority=5)
        mgr.release(1, 2.0)
        mgr.release(3, 4.0)
        assert log == [1, 3, 2]

    def test_head_of_line_blocking(self):
        # The front waiter needs more memory than is free; a smaller
        # waiter behind it may NOT jump the queue.
        mgr = self.manager(slots=8, memory=100.0)
        log = []
        mgr.submit(1, "q", 60.0, 0.0, lambda t: log.append(1))
        mgr.submit(2, "q", 90.0, 0.0, lambda t: log.append(2))
        mgr.submit(3, "q", 10.0, 0.0, lambda t: log.append(3))
        # 3 would fit in the 40 free units, but 2 is ahead of it.
        assert log == [1]
        assert mgr.depth("q") == 2
        mgr.release(1, 5.0)
        # Once the head fits, the drain continues down the line.
        assert log == [1, 2, 3]

    def test_specs_from_security(self):
        engine = Engine(num_segment_hosts=1, segments_per_host=1)
        session = engine.connect()
        session.execute(
            "CREATE RESOURCE QUEUE etl WITH "
            "(active_statements=3, memory_limit=1000000, priority=2)"
        )
        specs = specs_from_security(engine.security)
        assert specs["etl"] == QueueSpec(
            name="etl", slots=3, memory_limit=1000000.0, priority=2
        )
        assert "pg_default" in specs


#: A stream that reads its own uncommitted write, rolls it back, and
#: reads again (``t`` holds two rows) — and one that keeps counting
#: ``t`` from outside that transaction.
TXN_STREAM = [
    "BEGIN",
    "INSERT INTO t VALUES (3, 3)",
    "SELECT count(*) FROM t",
    "ROLLBACK",
    "SELECT count(*) FROM t",
]
WATCH_STREAM = ["SELECT count(*) FROM t"] * 6


def build_engine_with_t() -> Engine:
    engine = build_engine()
    session = engine.connect()
    session.execute("CREATE TABLE t (a INT, b INT) DISTRIBUTED BY (a)")
    session.execute("INSERT INTO t VALUES (1, 1), (2, 2)")
    return engine


# ------------------------------------------ serial vs concurrent differential
class TestSerialConcurrentDifferential:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_rows_bit_identical_and_cost_accounted(self, n, runtime_residue):
        streams = make_streams(seed=5, count=n) + [TXN_STREAM, WATCH_STREAM]
        engines = [build_engine_with_t(), build_engine_with_t()]
        batch = ConcurrentRunner(engines[0], streams).run()

        serial = {}
        session = engines[1].connect()
        for stream_id, stream in enumerate(streams):
            for index, sql in enumerate(stream):
                result = session.execute(sql)
                serial[(stream_id, index)] = (
                    result.rows, result.cost.seconds
                )

        for outcome in batch.outcomes:
            rows, _cost = serial[(outcome.stream, outcome.index)]
            assert outcome.rows == rows, (
                f"stream {outcome.stream} stmt {outcome.index} diverged"
            )
            # The accounting contract, float-exact.
            assert outcome.charged_seconds == (
                outcome.serial_seconds + outcome.queue_wait
            )
            assert outcome.queue_wait >= 0.0
            # latency reassociates (admit + (serial - makespan)) + makespan,
            # so allow float-ulp slack; charged_seconds stays exact.
            assert outcome.latency >= outcome.serial_seconds - 1e-9
        # Every statement, batched or serial, left the engine's one
        # runtime empty of it when it settled.
        selects = [o for o in batch.outcomes if o.sql.startswith("SELECT")]
        assert runtime_residue.settled >= 2 * len(selects)
        assert runtime_residue.left == []
        assert [runtime_holds(e.runtime) for e in engines] == [[], []]

        # The stream's SELECT ran in its session's open transaction ...
        assert batch.rows(n, 2) == [(3,)] and batch.rows(n, 4) == [(2,)]
        # ... which nobody else saw, though somebody took a snapshot
        # and scanned while it was open.
        timeline = {(o.stream, o.index): o for o in batch.outcomes}
        inserted, rolled_back = timeline[(n, 1)], timeline[(n, 3)]
        assert any(
            inserted.finish < o.submit < rolled_back.submit
            for o in batch.outcomes
            if o.stream == n + 1
        )

    def test_queue_wait_charged_when_parked(self):
        engine = build_engine()
        session = engine.connect()
        session.execute(
            "CREATE RESOURCE QUEUE narrow WITH (active_statements=1)"
        )
        streams = make_streams(seed=9, count=3, statements=2)
        runner = ConcurrentRunner(
            engine, streams, queues={0: "narrow", 1: "narrow", 2: "narrow"}
        )
        batch = runner.run()
        waited = [o for o in batch.outcomes if o.queue_wait > 0]
        assert waited, "a 1-slot queue under 3 streams must park someone"
        for outcome in waited:
            assert outcome.charged_seconds == (
                outcome.serial_seconds + outcome.queue_wait
            )
            assert outcome.admit == outcome.submit + outcome.queue_wait
        # The queue's record of every wait is the one its statement was
        # charged: admitting one statement left the others' entries alone.
        assert {o.query_id: o.queue_wait for o in batch.outcomes} == (
            runner.manager.waits
        )
        stats = batch.queue_stats["narrow"]
        assert stats.parked == len(waited)
        assert stats.wait_seconds == pytest.approx(
            sum(o.queue_wait for o in waited)
        )

    def test_concurrent_makespan_beats_serial_sum(self):
        streams = make_streams(seed=5, count=4)
        batch = ConcurrentRunner(build_engine(), streams).run()
        serial_sum = sum(o.serial_seconds for o in batch.outcomes)
        assert batch.makespan < serial_sum

    @pytest.mark.parametrize("n", [2, 8])
    def test_every_task_starts_when_its_inputs_and_slot_allow(self, n):
        """The shared clock, recomputed from outside the scheduler: each
        task starts at the later of its ready time (its release, and each
        input's finish plus the edge delay, from its statement's own task
        graph) and the finish of the task before it on its segment slot —
        never earlier, never with the slot idle — and its recorded slot
        wait is the gap. A statement that overwrote another's ready,
        start, finish or wait entry would move one of them."""
        runner = ConcurrentRunner(build_engine(), make_streams(seed=5, count=n))
        batch = runner.run()
        scheduler = runner.loop.scheduler
        start = scheduler._start
        finish = scheduler._finish
        waits = scheduler._waits
        inputs = {}
        for outcome in batch.outcomes:
            qid = outcome.query_id
            for senders, consumers, delay in outcome.task_graph.constraints:
                for s1, g1 in senders:
                    for s2, g2 in consumers:
                        inputs.setdefault((qid, s2, g2), []).append(
                            ((qid, s1, g1), delay)
                        )
        assert set(start) == set(finish) == set(scheduler._tasks)
        slot_free = {}
        for key in sorted(start, key=lambda k: (start[k], finish[k], k)):
            task = scheduler._tasks[key]
            ready = max(
                [task.release]
                + [finish[src] + delay for src, delay in inputs.get(key, [])]
            )
            assert start[key] == max(ready, slot_free.get(task.slot, ready))
            assert waits[key] == start[key] - ready
            assert finish[key] == start[key] + task.duration
            if task.slot is not None:
                slot_free[task.slot] = finish[key]
        assert any(waits.values()), "no two statements contended for a slot"

    def test_serial_answers_agree_with_sqlite(self):
        """The differential's reference, checked outside the engine: the
        pool's statements on ``conc`` against the outside reference."""
        engine = build_engine()
        session, reference = engine.connect(), Reference()
        reference.load(engine, "conc", CONC_ROWS)
        for sql in POOL:
            answer = reference.run(sql)
            assert answer.rows, f"the reference answered nothing: {sql}"
            assert answer.mismatch(session.execute(sql).rows) is None, sql
        reference.close()

    def test_streams_add_throughput_and_bound_the_tail(self):
        """Eight streams finish more statements per simulated second than
        one, and their nearest-rank p99 latency stays within 5x the p50:
        admission bounds the tail, not only the mean."""
        qps = {}
        for n in (1, 8):
            batch = ConcurrentRunner(
                build_engine(), make_streams(seed=5, count=n)
            ).run()
            assert all(o.ok for o in batch.outcomes)
            qps[n] = batch.qps
        assert qps[8] > qps[1]
        latencies = batch.latencies()
        p50 = latencies[len(latencies) // 2]
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        assert p99 / p50 <= 5.0


# --------------------------------------------------------------- one driver
class TestLoneStatementIsTheOneStatementBatch:
    SQL = "SELECT count(*), sum(b), min(a), max(b) FROM t"

    def killed_mid_query(self):
        """A loaded engine, its fault-free answer, and a kill of segment
        1 armed to land inside the next statement."""
        from repro import chaos

        engine = chaos.build_engine()
        session = engine.connect()
        session.execute("CREATE TABLE t (a INTEGER, b INTEGER) DISTRIBUTED BY (a)")
        session.load_rows("t", [(i, i * 2) for i in range(4000)])
        fault_free = session.execute(self.SQL)
        kill = chaos.FaultEvent(1e-9, "kill_segment", 1)
        engine.attach_chaos(chaos.FaultInjector(engine, chaos.FaultPlan([kill])))
        return engine, session, fault_free

    def test_retry_charges_one_backoff_either_way(self):
        engine, session, fault_free = self.killed_mid_query()
        lone = session.execute(self.SQL)
        assert lone.retries == 1 and lone.rows == fault_free.rows
        assert lone.cost.seconds == fault_free.cost.seconds + RETRY_BACKOFF
        assert lone.metrics["query_retries"] == 1

        engine, _session, _fault_free = self.killed_mid_query()
        (outcome,) = ConcurrentRunner(engine, [[self.SQL]]).run().outcomes
        assert outcome.rows == lone.rows
        assert outcome.serial_seconds == lone.cost.seconds

    def closed_queue_engine(self) -> Engine:
        engine = build_engine()
        engine.connect().execute(
            "CREATE RESOURCE QUEUE closed WITH (active_statements=0)"
        )
        return engine

    def test_queue_that_never_admits_fails_the_streams_statements(self):
        engine = self.closed_queue_engine()
        count = "SELECT count(*) FROM conc"
        batch = ConcurrentRunner(
            engine,
            [[count, "INSERT INTO conc VALUES (1000, 0, 'x')", count], [count]],
            queues={0: "closed"},
        ).run()
        refused = [o for o in batch.outcomes if o.stream == 0]
        assert len(refused) == 3  # the stream kept going
        for outcome in refused:
            assert not outcome.ok and outcome.rows is None
            assert outcome.error.startswith("QueueLimitExceeded: ")
            assert isinstance(outcome.exception, QueueLimitExceeded)
            assert outcome.queue_wait == 0.0
        (ran,) = [o for o in batch.outcomes if o.stream == 1]
        assert ran.rows == [(300,)]  # the refused INSERT never ran
        assert batch.qps == 1 / batch.makespan
        assert batch.queue_stats["closed"].parked == 0
        assert engine.txns._live == {}
        assert engine.txns.locks.holders("rel:conc") == []

    def test_queue_that_never_admits_raises_on_a_lone_session(self):
        engine = self.closed_queue_engine()
        session = engine.connect()
        session.execute("SET resource_queue = closed")
        with pytest.raises(QueueLimitExceeded, match="limit of 0 active"):
            session.execute("SELECT count(*) FROM conc")
        assert engine.txns._live == {}
        assert engine.txns.locks.holders("rel:conc") == []
        session.execute("SET resource_queue = default")
        assert session.execute("SELECT count(*) FROM conc").rows == [(300,)]


# ------------------------------------------------- seeded interleaving purity
def _add_graph(sched, graph, prefix):
    """One query's graph on a shared scheduler, before it runs: keys
    namespaced by ``prefix``, each real segment a slot (QD tasks never
    contend), every constraint expanded to its pair edges."""
    for (slice_id, segment), duration in graph.tasks:
        slot = segment if segment >= 0 else None
        sched.add_task((prefix, slice_id, segment), duration, slot=slot)
    for senders, consumers, delay in graph.constraints:
        for s1, g1 in senders:
            for s2, g2 in consumers:
                sched.add_edge((prefix, s1, g1), (prefix, s2, g2), delay=delay)


class TestInterleavingPurity:
    def test_25_seeds_reproduce_exactly(self):
        for seed in range(25):
            streams = make_streams(seed=seed, count=3, statements=2)
            first = ConcurrentRunner(build_engine(), streams).run()
            second = ConcurrentRunner(build_engine(), streams).run()
            assert first.makespan == second.makespan, f"seed {seed}"
            for a, b in zip(first.outcomes, second.outcomes):
                assert (a.stream, a.index) == (b.stream, b.index)
                assert a.rows == b.rows, f"seed {seed}"
                assert a.submit == b.submit, f"seed {seed}"
                assert a.finish == b.finish, f"seed {seed}"
                assert a.queue_wait == b.queue_wait, f"seed {seed}"
                assert a.slot_wait == b.slot_wait, f"seed {seed}"
                assert a.charged_seconds == b.charged_seconds

    def test_scheduler_replay_is_pure(self):
        graph = TaskGraph(
            tasks=[((0, 0), 2.0), ((0, 1), 3.0), ((1, -1), 1.0)],
            constraints=[([(0, 0), (0, 1)], [(1, -1)], 0.1)],
        )
        runs = []
        for _ in range(3):
            sched = EventScheduler()
            for prefix in range(4):
                _add_graph(sched, graph, prefix)
            out = sched.run()
            runs.append((out.makespan, tuple(sorted(out.finish.items()))))
        assert len(set(runs)) == 1


# --------------------------------------------------------- engine-level GUCs
class TestQueueGuc:
    def test_set_resource_queue_overrides_role_default(self):
        engine = build_engine()
        session = engine.connect()
        session.execute(
            "CREATE RESOURCE QUEUE adhoc WITH (active_statements=2)"
        )
        session.execute("SET resource_queue = adhoc")
        assert session._resource_queue().name == "adhoc"
        session.execute("SET resource_queue = default")
        assert session._resource_queue().name == "pg_default"

    def test_set_resource_queue_unknown_raises(self):
        session = build_engine().connect()
        with pytest.raises(CatalogError):
            session.execute("SET resource_queue = nope")

    def test_work_mem_clamped_by_queue(self):
        engine = build_engine()
        session = engine.connect()
        session.execute(
            "CREATE RESOURCE QUEUE tiny WITH (memory_limit=1000)"
        )
        session.execute("SET resource_queue = tiny")
        result = session.execute("SELECT count(*) FROM conc")
        assert result.rows == [(300,)]


# ----------------------------------------------------------- trace isolation
class TestTraceIsolation:
    def test_two_interleaved_sessions_keep_traces_disjoint(self):
        engine = build_engine()
        one = engine.connect()
        two = engine.connect()
        one.execute("SET trace = on")
        two.execute("SET trace = on")
        # Interleave: one, two, one, two.
        r1a = one.execute("SELECT count(*) FROM conc")
        r2a = two.execute("SELECT a, b FROM conc WHERE a = 17")
        r1b = one.execute("SELECT c, count(*) FROM conc GROUP BY c ORDER BY c")
        r2b = two.execute("SELECT count(*) FROM conc WHERE b < 40")

        ids = [r.query_id for r in (r1a, r2a, r1b, r2b)]
        assert len(set(ids)) == 4 and all(ids)
        # Each session's tracer holds exactly its own statements.
        assert [t.query_id for t in one.tracer.queries] == [r1a.query_id,
                                                            r1b.query_id]
        assert [t.query_id for t in two.tracer.queries] == [r2a.query_id,
                                                            r2b.query_id]
        # for_query selects by id, not recency.
        assert one.tracer.for_query(r1a.query_id) is one.tracer.queries[0]
        assert two.tracer.for_query(r1a.query_id) is None
        # Every trace's RPC events carry only its own query id.
        for session in (one, two):
            for trace in session.tracer.queries:
                assert trace_query_id_violations(trace) == []
                assert trace.rpc_events, "traced statement recorded no RPCs"

    def test_explain_analyze_verbose_unaffected_by_other_session(self):
        engine = build_engine()
        one = engine.connect()
        two = engine.connect()
        # Another session's traced statement lands between the verbose
        # EXPLAIN's planning and any later inspection.
        two.execute("SET trace = on")
        rows = one.execute(
            "EXPLAIN (ANALYZE, VERBOSE) SELECT count(*) FROM conc"
        ).rows
        two.execute("SELECT a FROM conc WHERE a = 3")
        text = "\n".join(line for (line,) in rows)
        assert "actual time=" in text
        assert "Total:" in text

    def test_concurrent_runner_traces_are_disjoint(self):
        streams = make_streams(seed=3, count=3, statements=2)
        runner = ConcurrentRunner(build_engine(), streams, trace=True)
        runner.run()
        seen = set()
        for session in runner.sessions:
            for trace in session.tracer.queries:
                assert trace_query_id_violations(trace) == []
                assert trace.query_id not in seen
                seen.add(trace.query_id)
        assert len(seen) == 6


# ------------------------------------------------- streams leave with their statement
class TestFinishedStatementsLeaveTheFabric:
    """A statement's stream records and inbox entries go when its
    dispatch closes — gathered, retried or cancelled — not when the
    loop it shared does: before, every gathered statement's records
    stayed to the end of the batch and each ``begin()`` rescanned them."""

    @staticmethod
    def assert_fabric_empty(runner):
        exchange = runner.loop.runtime.exchange
        assert exchange._inbox == {}

    def test_after_a_batch(self):
        runner = ConcurrentRunner(build_engine(), make_streams(seed=3, count=3))
        batch = runner.run()
        assert all(o.ok for o in batch.outcomes)
        # The statements did cross the fabric.
        assert runner.engine.metrics.counter("motion_streams").value > 0
        self.assert_fabric_empty(runner)

    def test_after_a_batch_with_a_chaos_retry(self):
        lone = TestLoneStatementIsTheOneStatementBatch()
        engine, _session, fault_free = lone.killed_mid_query()
        runner = ConcurrentRunner(engine, [[lone.SQL, lone.SQL], [lone.SQL]])
        batch = runner.run()
        assert engine.metrics.counter("query_retries").value == 1
        assert [o.rows for o in batch.outcomes] == [fault_free.rows] * 3
        self.assert_fabric_empty(runner)

    def test_after_a_batch_with_a_cancel(self):
        streams = make_streams(seed=3, count=2)
        target = ConcurrentRunner(build_engine(), streams).run().outcomes[0]
        engine = build_engine()
        runner = ConcurrentRunner(
            engine,
            streams,
            cancel_at={
                (target.stream, target.index): (target.admit + target.finish) / 2
            },
        )
        batch = runner.run()
        assert engine.metrics.counter("queries_cancelled").value == 1
        assert sum(not o.ok for o in batch.outcomes) == 1
        self.assert_fabric_empty(runner)


# ------------------------------------------------------ InitPlans on the loop
class TestInitPlansOnTheLoop:
    """A statement's InitPlans are its leading waves on the statement
    loop: their tasks hold segment slots under the statement's admission,
    and a kill or a cancel that lands in one is handled like one in any
    other wave. Q11 and Q22 carry one InitPlan each, Q6 none."""

    @pytest.fixture(scope="class")
    def tpch(self):
        from repro.tpch import QUERIES, generate

        return QUERIES, generate(0.001, seed=77)

    @staticmethod
    def engine(data) -> Engine:
        from repro.tpch import load_tpch

        engine = Engine(num_segment_hosts=2, segments_per_host=2)
        load_tpch(engine.connect(), scale=0.001, data=data)
        return engine

    @staticmethod
    def init_slices(session, sql) -> int:
        """Slice keys the statement's InitPlans take on the loop."""
        session.execute(sql)
        return sum(len(p.slices) for p in session.last_plan.init_plans)

    def test_initplan_tasks_hold_segment_slots(self, tpch):
        queries, data = tpch
        q6, q11, q22 = (queries[n][-1] for n in (6, 11, 22))
        streams = [[q11, q6], [q6, q22], [q22, q11], [q6, q6]]
        serial = {}
        session = self.engine(data).connect()
        for sql in (q6, q11, q22):
            result = session.execute(sql)
            serial[sql] = (result.rows, result.cost.seconds)
        init_slices = {sql: self.init_slices(session, sql) for sql in (q11, q22)}

        runner = ConcurrentRunner(self.engine(data), streams)
        batch = runner.run()
        scheduler = runner.loop.scheduler
        for outcome in batch.outcomes:
            assert (outcome.rows, outcome.serial_seconds) == serial[outcome.sql]
            assert outcome.charged_seconds == (
                outcome.serial_seconds + outcome.queue_wait
            )
        init_keys, waited = [], []
        for outcome in batch.outcomes:
            count = init_slices.get(outcome.sql, 0)
            keys = [k for k in scheduler._tasks if k[0] == outcome.query_id]
            inits = [k for k in keys if k[1] < count]
            assert bool(inits) == bool(count)
            # Greenplum's order: every InitPlan task finishes before the
            # statement's own first task starts.
            if inits:
                last = max(scheduler._finish[k] for k in inits)
                assert all(
                    scheduler._start[k] >= last for k in keys if k[1] >= count
                )
            init_keys += inits
            waited += [k for k in inits if scheduler._waits[k] > 0]
        # Each InitPlan task on a segment holds that segment's slot ...
        assert init_keys and all(
            scheduler._tasks[k].slot == (k[2] if k[2] >= 0 else None)
            for k in init_keys
        )
        # ... no two tasks share a slot at once ...
        busy = {}
        for key in sorted(scheduler._tasks, key=lambda k: scheduler._start[k]):
            slot = scheduler._tasks[key].slot
            if slot is not None:
                assert scheduler._start[key] >= busy.get(slot, 0.0)
                busy[slot] = scheduler._finish[key]
        # ... and some waited for one behind another statement's task.
        assert waited

    def test_kill_inside_an_initplan_wave_restarts_the_statement(self, tpch):
        queries, data = tpch
        sql = queries[11][-1]
        engine = self.engine(data)
        session = engine.connect()
        fault_free = session.execute(sql)

        class KillInInitPlan:
            """Chaos stand-in: drops segment 1's worker at the first scan
            lane that starts while an InitPlan is the open plan."""

            fired = False

            def tick(self, segment_id=None, in_query=False):
                (state,) = engine._loops[-1].statements.values()
                if not self.fired and state.plans:
                    self.fired = True
                    engine.fail_segment(1)
                    engine.drop_worker_channel(1)

            def pulse(self, seconds, segment_id=None, in_query=False):
                pass

            def detach(self):
                pass

        hook = KillInInitPlan()
        engine.attach_chaos(hook)
        result = session.execute(sql)
        assert hook.fired and result.retries == 1
        assert result.rows == fault_free.rows
        assert result.cost.seconds == fault_free.cost.seconds + RETRY_BACKOFF

    def test_cancel_inside_an_initplan_wave_leaves_nothing(self, tpch):
        queries, data = tpch
        q6, q11 = queries[6][-1], queries[11][-1]
        streams = [[q11], [q6, q6]]
        reference = ConcurrentRunner(self.engine(data), streams)
        target, *survivors = reference.run().outcomes
        count = self.init_slices(self.engine(data).connect(), q11)
        scheduler = reference.loop.scheduler
        inits = [
            k for k in scheduler._tasks if k[0] == target.query_id and k[1] < count
        ]
        start = min(scheduler._start[k] for k in inits)
        end = max(scheduler._finish[k] for k in inits)

        engine = self.engine(data)
        runner = ConcurrentRunner(
            engine, streams, cancel_at={(0, 0): (start + end) / 2}
        )
        batch = runner.run()
        cancelled, *others = batch.outcomes
        assert cancelled.error.endswith("cancelled by request")
        assert [o.rows for o in others] == [o.rows for o in survivors]
        # Only InitPlan tasks ever went out, every one of them is settled
        # on the clock, and none of the statement is left on the loop.
        loop = runner.loop
        keys = [k for k in loop.scheduler._tasks if k[0] == cancelled.query_id]
        assert keys and all(k[1] < count for k in keys)
        assert set(loop.scheduler._finish) == set(loop.scheduler._tasks)
        assert loop.statements == {}
        assert loop.runtime._inflight == {}
        assert loop.runtime.exchange._inbox == {}
        assert engine.metrics.counter("queries_cancelled").value == 1

    def test_live_and_cumulative_segment_views_count_the_same_tasks(self, tpch):
        """pg_stat_segments reads the slot timelines while a batch runs
        and the recorded statements' task graphs after it: for a lone
        Q11 both count its InitPlan's tasks, and the cumulative busy
        time stays within the span it is a fraction of."""
        queries, data = tpch
        engine = self.engine(data)
        before = {row[0]: row[2:4] for row in engine.telemetry.segment_rows()}
        runner = ConcurrentRunner(engine, [[queries[11][-1]]])
        runner.run()
        live = runner.loop.scheduler.slot_usage()
        after = {row[0]: row[2:4] for row in engine.telemetry.segment_rows()}
        recorded = {
            segment: (tasks - before[segment][0], busy - before[segment][1])
            for segment, (tasks, busy) in after.items()
        }
        assert {s: tasks for s, (tasks, _b) in recorded.items()} == {
            s: live.get(s, (0, 0.0))[0] for s in recorded
        }
        for segment, (_tasks, busy) in recorded.items():
            assert busy == pytest.approx(live.get(segment, (0, 0.0))[1])
        assert all(0.0 < row[4] <= 1.0 for row in engine.telemetry.segment_rows())


# ------------------------------------------------ one runtime per engine
class TestOneRuntimePerEngine:
    """Every loop runs on the engine's one QD/QE process group, so
    whatever settles a statement must leave that group empty of it —
    and an error settles only its own statement."""

    ERROR_STREAMS = [
        ["SELECT a / b FROM t", "SELECT count(*) FROM t"],
        ["SELECT count(*) FROM t", "SELECT sum(a) FROM t"],
    ]

    @staticmethod
    def engine_with_a_zero() -> Engine:
        engine = Engine(num_segment_hosts=2, segments_per_host=2)
        engine.connect().execute(
            "CREATE TABLE t (a INT, b INT) DISTRIBUTED BY (a)"
        )
        engine.connect().execute(
            "INSERT INTO t VALUES (1, 0), (2, 1), (3, 3), (4, 2)"
        )
        return engine

    def test_a_sql_error_settles_only_its_statement(self, runtime_residue):
        engine = self.engine_with_a_zero()
        batch = ConcurrentRunner(
            engine, self.ERROR_STREAMS, allow_failures=True
        ).run()
        outcomes = {(o.stream, o.index): o for o in batch.outcomes}
        assert sorted(outcomes) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        failed = outcomes.pop((0, 0))
        assert failed.error == "ExecutorError: division by zero"
        assert failed.rows is None
        assert {k: o.rows for k, o in outcomes.items()} == {
            (0, 1): [(4,)], (1, 0): [(4,)], (1, 1): [(10,)],
        }
        # A SQL error is no cluster fault: nothing was retried.
        assert engine.metrics.counter("query_retries").value == 0
        assert runtime_residue.settled == 4 and runtime_residue.left == []
        assert runtime_holds(engine.runtime) == []

    def test_without_allow_failures_the_error_still_propagates(self):
        engine = self.engine_with_a_zero()
        with pytest.raises(ReproError, match="division by zero"):
            ConcurrentRunner(engine, self.ERROR_STREAMS).run()
        assert engine._loops == []
        assert runtime_holds(engine.runtime) == []
        session = engine.connect()
        with pytest.raises(ReproError, match="division by zero"):
            session.execute("SELECT a / b FROM t")
        assert runtime_holds(engine.runtime) == []
        # The next statement runs none of the failed ones' tasks.
        assert session.query("SELECT sum(a) FROM t") == [(10,)]
        # The batch's statements failed with it: no lock outlives them.
        session.execute("DROP TABLE t")

    def test_a_kill_inside_a_nested_statement(self, runtime_residue):
        """A stream's ``INSERT … SELECT`` nests a lone statement on the
        batch's runtime; a segment killed under it is revived for it and
        for every statement still in flight around it."""
        from repro.chaos import FaultEvent, FaultInjector, FaultPlan
        from repro.obs.trace import rpc_closure_violations

        streams = [
            [POOL[0], POOL[1], POOL[0]],
            [
                "INSERT INTO cp SELECT a, b FROM conc WHERE b < 50",
                "SELECT count(*), sum(b) FROM cp",
            ],
            [POOL[2], POOL[3], POOL[1]],
        ]

        def engine_with_cp() -> Engine:
            engine = build_engine()
            engine.connect().execute(
                "CREATE TABLE cp (a INT, b INT) DISTRIBUTED BY (a)"
            )
            return engine

        serial_session = engine_with_cp().connect()
        serial = {
            (s, i): serial_session.execute(sql).rows
            for s, stream in enumerate(streams)
            for i, sql in enumerate(stream)
        }

        engine = engine_with_cp()
        injector = FaultInjector(
            engine, FaultPlan([FaultEvent(1e-9, "kill_segment", 1)])
        )

        def before_query(stream_id, index):
            # Armed as the INSERT is submitted: it admits at once and
            # its SELECT's first scan lane is the next to report.
            if (stream_id, index) == (1, 0):
                engine.attach_chaos(injector)

        runner = ConcurrentRunner(
            engine, streams, trace=True, before_query=before_query
        )
        batch = runner.run()
        assert [note for _, note in injector.fired] == ["kill_segment(1)"]
        assert engine.metrics.counter("query_retries").value == 1
        assert all(o.ok for o in batch.outcomes)
        for outcome in batch.outcomes:
            assert outcome.rows == serial[(outcome.stream, outcome.index)]
        traces = [t for s in runner.sessions for t in s.tracer.queries]
        assert len(traces) == 8
        for trace in traces:
            assert rpc_closure_violations(trace) == []
            assert trace_query_id_violations(trace) == []
        assert runtime_residue.left == []
        assert runtime_holds(engine.runtime) == []
        assert engine.runtime.bus.is_open("seg1")
