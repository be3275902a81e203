"""Cancellation battery: ``Session.cancel`` and ``statement_timeout``
on the statement loop, entered both ways — closed-loop streams through
``ConcurrentRunner`` and a lone ``Session.execute``.

The load-bearing properties:

* **Clean settlement** — a cancelled statement settles as an error
  outcome (``QueryCanceled`` text) without failing the batch, whatever
  ``allow_failures`` says, and the closed-loop stream moves on to its
  next statement.
* **No orphaned slot** — cancelling a parked statement withdraws it
  from admission before it ever takes a slot; cancelling a running one
  releases its slot; either way the queue drains to empty.
* **No leaked charged iterator** — every charged scan a cancelled
  query opened is closed by the ABORT broadcast
  (``charged_scans_opened == charged_scans_closed``).
* **Survivors unperturbed** — statements the cancel does not touch
  return rows bit-identical to an uncancelled run.
* **A lone session gets it raised** — the same cancel or timeout on
  ``Session.execute`` raises ``QueryCanceled`` with the same text and
  leaves no transaction, lock, slot or scan behind.
"""

import pytest

from repro.engine import Engine
from repro.errors import QueryCanceled
from repro.executor.concurrent import ConcurrentRunner
from repro.util import DeterministicRng


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


def make_streams(seed: int, count: int, statements: int = 3):
    pool = [
        "SELECT c, count(*), sum(b) FROM conc GROUP BY c ORDER BY c",
        "SELECT a, b FROM conc WHERE b < 40 ORDER BY a",
        "SELECT count(*) FROM conc WHERE a % 3 = 0",
    ]
    streams = []
    for stream_id in range(count):
        rng = DeterministicRng(seed, "cancel-test", f"stream{stream_id}")
        streams.append(
            [pool[rng.randrange(len(pool))] for _ in range(statements)]
        )
    return streams


def by_key(batch):
    return {(o.stream, o.index): o for o in batch.outcomes}


def scan_counters(engine):
    return (
        engine.metrics.counter("charged_scans_opened").value,
        engine.metrics.counter("charged_scans_closed").value,
    )


def assert_one_clean_cancel(engine, error: str, expected: str):
    """What one cancelled statement leaves behind, whichever way it
    was entered: the message, one count, and nothing else."""
    assert expected in error
    assert engine.metrics.counter("queries_cancelled").value == 1
    # The ABORT broadcast closed every charged scan the cancelled
    # attempt had opened.
    opened, closed = scan_counters(engine)
    assert opened == closed
    assert engine.txns._live == {}  # no transaction left active
    assert engine.txns.locks.holders("rel:conc") == []
    assert engine._loops == []


class MidStatementHook:
    """Stands in for the chaos injector: calls ``hook`` mid-wave, on the
    workers — as each scan lane of a statement starts, or
    (``after_lane``) as each completes."""

    def __init__(self, hook, after_lane=False):
        self.hook = hook
        self.after_lane = after_lane

    def tick(self, segment_id=None, in_query=False):
        if not self.after_lane:
            self.hook()

    def pulse(self, seconds, segment_id=None, in_query=False):
        if self.after_lane:
            self.hook()

    def detach(self):
        pass


# ----------------------------------------------------------- mid-scan cancel
class TestMidScanCancel:
    def test_cancel_mid_scan_settles_without_failing_batch(self):
        streams = make_streams(seed=3, count=2)
        reference = ConcurrentRunner(build_engine(), streams).run()
        ref = by_key(reference)
        target = ref[(0, 0)]
        assert target.finish > target.admit

        engine = build_engine()
        runner = ConcurrentRunner(
            engine,
            streams,
            cancel_at={(0, 0): (target.admit + target.finish) / 2},
        )
        # allow_failures is False: a cancel must still not raise.
        batch = runner.run()

        cancelled = by_key(batch)[(0, 0)]
        assert not cancelled.ok
        assert cancelled.rows is None
        assert_one_clean_cancel(engine, cancelled.error, "cancelled by request")
        # Everyone else settles with uncancelled rows — including the
        # cancelled stream's own next statement (closed loop).
        for key, outcome in by_key(batch).items():
            if key == (0, 0):
                continue
            assert outcome.ok, f"{key}: {outcome.error}"
            assert outcome.rows == ref[key].rows
        # And the cancelled query's slot was released: nothing parked,
        # nothing still marked running.
        assert runner.manager.depth("pg_default") == 0
        assert runner.manager.running("pg_default") == 0

    @pytest.mark.parametrize(
        "scan, after_lane, noticed",
        [
            # Four segments scan: the lane after the cancel refuses.
            (
                "SELECT c, count(*), sum(b) FROM conc GROUP BY c ORDER BY c",
                False,
                "cancelled mid-scan",
            ),
            # Direct dispatch, one lane, cancelled as it completes: no
            # worker looks again, the wave boundary does.
            ("SELECT a, c FROM conc WHERE a = 17", True, "cancelled by request"),
        ],
    )
    def test_cancel_from_inside_a_lone_statement_raises(
        self, scan, after_lane, noticed
    ):
        """``Session.cancel`` issued from a scan hook while the
        statement's own slices are on the workers: the lone session
        gets ``QueryCanceled``, and the next statement runs clean."""
        engine = build_engine()
        session = engine.connect()
        expected = session.execute(scan).rows
        seen = []

        def cancel_whatever_runs():
            (row,) = engine.telemetry.activity_rows()
            seen.append(row)
            engine.connect().cancel(row[0])

        engine.attach_chaos(MidStatementHook(cancel_whatever_runs, after_lane))
        with pytest.raises(QueryCanceled) as raised:
            session.execute(scan)
        engine.attach_chaos(None)

        assert seen[0][1] == "running"
        assert_one_clean_cancel(
            engine, str(raised.value), f"query {seen[0][0]} {noticed}"
        )
        assert session.execute(scan).rows == expected

    def test_cancel_unknown_id_is_a_noop(self):
        engine = build_engine()
        session = engine.connect()
        session.cancel(987654)  # never raises, nothing to cancel
        assert session.query("SELECT count(*) FROM conc")[0][0] == 300


# ------------------------------------------------------- cancel while queued
class TestCancelWhileQueued:
    def test_parked_statement_withdraws_without_taking_a_slot(self):
        streams = make_streams(seed=7, count=3, statements=2)

        def narrowed_engine():
            engine = build_engine()
            engine.connect().execute(
                "CREATE RESOURCE QUEUE narrow WITH (active_statements=1)"
            )
            return engine

        queues = {0: "narrow", 1: "narrow", 2: "narrow"}
        reference = ConcurrentRunner(
            narrowed_engine(), streams, queues=queues
        ).run()
        ref = by_key(reference)
        parked = ref[(1, 0)]
        assert parked.queue_wait > 0, "head of stream 1 must have parked"

        engine = narrowed_engine()
        runner = ConcurrentRunner(
            engine,
            streams,
            queues=queues,
            # Fires strictly inside (submit, admit): still parked.
            cancel_at={(1, 0): parked.admit / 2},
        )
        batch = runner.run()

        cancelled = by_key(batch)[(1, 0)]
        assert not cancelled.ok
        assert "cancelled by request" in cancelled.error
        # Withdrawn before admission: never admitted, no wait charged.
        assert cancelled.admit == 0.0
        assert cancelled.queue_wait == 0.0
        assert engine.metrics.counter("queries_cancelled").value == 1
        # The stream's next statement still ran, and every survivor
        # returns the reference rows.
        for key, outcome in by_key(batch).items():
            if key == (1, 0):
                continue
            assert outcome.ok, f"{key}: {outcome.error}"
            assert outcome.rows == ref[key].rows
        # The withdrawn waiter left no residue in the queue.
        assert runner.manager.depth("narrow") == 0
        assert runner.manager.running("narrow") == 0


# --------------------------------------------------------- statement_timeout
class TestStatementTimeout:
    def test_timeout_expires_mid_statement(self):
        scan = "SELECT c, count(*), sum(b) FROM conc GROUP BY c ORDER BY c"
        reference = ConcurrentRunner(build_engine(), [[scan]]).run()
        seconds = reference.outcomes[0].serial_seconds
        assert seconds > 0
        timeout = seconds / 2

        engine = build_engine()
        batch = ConcurrentRunner(
            engine,
            [[f"SET statement_timeout = {timeout}", scan], [scan]],
        ).run()
        outcomes = by_key(batch)

        timed_out = outcomes[(0, 1)]
        assert not timed_out.ok
        assert_one_clean_cancel(
            engine,
            timed_out.error,
            f"cancelled: statement_timeout of {timeout}s exceeded",
        )
        # The other session carries no timeout and is untouched.
        assert outcomes[(1, 0)].ok
        assert outcomes[(1, 0)].rows == reference.outcomes[0].rows

    def test_timeout_expires_mid_statement_on_a_lone_session(self):
        scan = "SELECT c, count(*), sum(b) FROM conc GROUP BY c ORDER BY c"
        engine = build_engine()
        reference = engine.connect().execute(scan)
        timeout = reference.cost.seconds / 2

        session = engine.connect()
        session.execute(f"SET statement_timeout = {timeout}")
        with pytest.raises(QueryCanceled) as raised:
            session.execute(scan)

        assert_one_clean_cancel(
            engine,
            str(raised.value),
            f"cancelled: statement_timeout of {timeout}s exceeded",
        )
        # Another session carries no timeout and is untouched; nor does
        # this one, once the GUC is off again.
        assert engine.connect().execute(scan).rows == reference.rows
        session.execute("SET statement_timeout = 0")
        assert session.execute(scan).cost.seconds == reference.cost.seconds

    def test_generous_timeout_does_not_fire(self):
        scan = "SELECT count(*) FROM conc WHERE a % 3 = 0"
        batch = ConcurrentRunner(
            build_engine(),
            [[f"SET statement_timeout = 3600", scan]],
        ).run()
        assert all(o.ok for o in batch.outcomes)

    def test_generous_timeout_does_not_fire_on_a_lone_session(self):
        session = build_engine().connect()
        session.execute("SET statement_timeout = 3600")
        rows = session.execute("SELECT count(*) FROM conc WHERE a % 3 = 0").rows
        assert rows == [(100,)]

    def test_timeout_rejects_negative_value(self):
        session = build_engine().connect()
        with pytest.raises(Exception):
            session.execute("SET statement_timeout = -1")


# --------------------------------------------------------------- cancel sweep
class TestCancelSweep:
    def test_cancel_sweep_no_orphans_no_leaks(self):
        streams = make_streams(seed=13, count=3)
        reference = ConcurrentRunner(build_engine(), streams).run()
        ref = by_key(reference)
        # Cancel two mid-flight targets picked from real windows.
        targets = [(0, 0), (2, 1)]
        cancel_at = {
            key: (ref[key].admit + ref[key].finish) / 2 for key in targets
        }

        engine = build_engine()
        runner = ConcurrentRunner(engine, streams, cancel_at=cancel_at)
        batch = runner.run()

        cancelled = [o for o in batch.outcomes if not o.ok]
        assert cancelled, "at least one cancel must land mid-flight"
        for outcome in cancelled:
            assert (outcome.stream, outcome.index) in cancel_at
            assert "cancelled by request" in outcome.error
        for outcome in batch.outcomes:
            if outcome.ok:
                assert outcome.rows == ref[(outcome.stream, outcome.index)].rows
        # No leaked charged iterator, no orphaned queue slot.
        opened, closed = scan_counters(engine)
        assert opened == closed
        assert runner.manager.depth("pg_default") == 0
        assert runner.manager.running("pg_default") == 0
        assert engine.metrics.counter("queries_cancelled").value == len(
            cancelled
        )
