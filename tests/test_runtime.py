"""Tests for the message-passing master/segment runtime: the RPC bus,
the exchange fabric, and the scheduler-composed query timing."""

import pytest

from repro import Engine
from repro.cluster.rpc import DISPATCH, MessageQueue, RpcBus, RpcMessage
from repro.errors import InterconnectError, SegmentDown
from repro.interconnect.exchange import ExchangeFabric
from repro.planner.dispatch import QD_SEGMENT
from repro.simtime import CostAccumulator, CostModel


def _bus():
    queue = MessageQueue()
    return queue, RpcBus(queue)


class TestRpcBus:
    def test_roundtrip_delivery(self):
        queue, bus = _bus()
        got = []
        bus.register("master", lambda m: got.append(m))
        bus.register("seg0", lambda m: got.append(m))
        bus.send(
            "master", "seg0", RpcMessage(kind=DISPATCH, sender="master")
        )
        queue.deliver()
        assert len(got) == 1 and got[0].sender == "master"

    def test_duplicate_name_rejected(self):
        _queue, bus = _bus()
        bus.register("seg0", lambda m: None)
        with pytest.raises(InterconnectError):
            bus.register("seg0", lambda m: None)

    def test_send_to_dropped_channel_raises(self):
        _queue, bus = _bus()
        bus.register("master", lambda m: None)
        bus.register("seg0", lambda m: None)
        bus.drop("seg0")
        assert not bus.is_open("seg0")
        with pytest.raises(SegmentDown):
            bus.send("master", "seg0", RpcMessage(kind=DISPATCH, sender="master"))

    def test_send_from_dropped_channel_raises(self):
        # A killed worker discovers its own death when it reports back.
        _queue, bus = _bus()
        bus.register("master", lambda m: None)
        bus.register("seg0", lambda m: None)
        bus.drop("seg0")
        with pytest.raises(SegmentDown):
            bus.send("seg0", "master", RpcMessage(kind=DISPATCH, sender="seg0"))

    def test_in_flight_datagram_to_dead_channel_vanishes(self):
        # UDP semantics: the channel stays on the bus, data just disappears.
        queue, bus = _bus()
        got = []
        bus.register("master", lambda m: None)
        bus.register("seg0", lambda m: got.append(m))
        bus.send("master", "seg0", RpcMessage(kind=DISPATCH, sender="master"))
        bus.drop("seg0")
        queue.deliver()
        assert got == []

    def test_charged_send_pays_bytes_plus_one_latency(self):
        _queue, bus = _bus()
        bus.register("master", lambda m: None)
        bus.register("seg0", lambda m: None)
        model = CostModel()
        # Control traffic is a fixed cost: plan bytes do not grow with
        # data volume, so the scale factor must not touch them.
        model.scale = 1000.0
        acc = CostAccumulator(model)
        bus.send(
            "master",
            "seg0",
            RpcMessage(kind=DISPATCH, sender="master", size=9000),
            acc=acc,
        )
        expected = 9000 / model.net_bw + model.net_latency
        assert acc.seconds == pytest.approx(expected)
        assert acc.net_bytes == 9000


class TestExchangeFabric:
    def test_streams_come_in_sender_order(self):
        queue = MessageQueue()
        fabric = ExchangeFabric(queue)
        # Send out of segment order; receive must still be segment-asc.
        fabric.send(7, 5, 2, QD_SEGMENT, [("c",)], 8)
        fabric.send(7, 5, 0, QD_SEGMENT, [("a",)], 8)
        fabric.send(7, 5, 1, QD_SEGMENT, [("b",)], 8)
        queue.deliver()
        streams, nbytes = fabric.receive(7, 5, QD_SEGMENT)
        assert streams == [[("a",)], [("b",)], [("c",)]]
        assert nbytes == 24

    def test_batch_payload_counts_its_live_rows(self):
        # The fabric reads a stream's row count off the payload's len(),
        # so a ColumnBatch stream records its live rows like a row list.
        from repro.executor.batch import ColumnBatch

        queue = MessageQueue()
        fabric = ExchangeFabric(queue)
        batch = ColumnBatch([[1, 2, 3], ["x", "y", "z"]], 3, sel=[0, 2])
        fabric.send(7, 1, 0, 1, batch, 26)
        queue.deliver()
        streams, nbytes = fabric.receive(7, 1, 1)
        assert (streams, nbytes) == ([batch], 26)
        assert [len(stream) for stream in streams] == [2]

    def test_receive_drains_inbox(self):
        queue = MessageQueue()
        fabric = ExchangeFabric(queue)
        fabric.send(7, 1, 0, 1, [(1,)], 4)
        queue.deliver()
        assert fabric.receive(7, 1, 1)[0] == [[(1,)]]
        assert fabric.receive(7, 1, 1) == ([], 0)

    def test_clear_scoped_to_one_query(self):
        # Two in-flight queries share the fabric; clearing one must not
        # disturb the other's streams.
        queue = MessageQueue()
        fabric = ExchangeFabric(queue)
        fabric.send(7, 1, 0, 1, [(1,)], 4)
        fabric.send(8, 1, 0, 1, [(2,)], 4)
        queue.deliver()
        fabric.clear(7)
        assert fabric.receive(7, 1, 1) == ([], 0)
        assert fabric.receive(8, 1, 1)[0] == [[(2,)]]


class _StreamLog:
    """A trace stand-in that logs each stream as the fabric delivers it."""

    def __init__(self, log):
        self.log = log

    def stream(self, slice_id, sender, receiver, rows, nbytes, query_id=0):
        self.log.append(("stream", sender, nbytes))


class TestMessageQueue:
    """The runtime's one in-order queue: its five delivery rules."""

    def test_bus_and_fabric_deliver_in_send_order(self):
        # Sizes never reorder delivery, and what a handler sends goes
        # behind everything already queued.
        queue, bus = _bus()
        fabric = ExchangeFabric(queue)
        log = []
        fabric.trace = _StreamLog(log)
        bus.register("master", lambda m: log.append((m.kind, m.sender, m.size)))

        def worker(message):
            log.append((message.kind, message.sender, message.size))
            bus.send("seg0", "master", RpcMessage(kind="ack", sender="seg0", size=64))

        bus.register("seg0", worker)
        bus.send("master", "seg0", RpcMessage(kind=DISPATCH, sender="master", size=9000))
        fabric.send(7, 1, 1, 0, [(1,)] * 50, 4000)
        bus.send("seg0", "master", RpcMessage(kind="complete", sender="seg0", size=128))
        fabric.send(7, 1, 2, 0, [(1,)], 8)
        queue.deliver()
        assert log == [
            (DISPATCH, "master", 9000),
            ("stream", 1, 4000),
            ("complete", "seg0", 128),
            ("stream", 2, 8),
            ("ack", "seg0", 64),
        ]
        assert queue.delivered == 5

    def test_message_to_dropped_channel_is_counted_not_handled(self):
        # Not by the dead process, nor by one revived on its name.
        queue, bus = _bus()
        old, new = [], []
        bus.register("master", lambda m: None)
        bus.register("seg0", old.append)
        bus.send("master", "seg0", RpcMessage(kind=DISPATCH, sender="master"))
        bus.drop("seg0")
        bus.register("seg0", new.append)
        queue.deliver()
        assert old == [] and new == [] and queue.delivered == 1

    def test_queue_is_empty_whenever_a_worker_revives(self, monkeypatch):
        # So no message is ever queued for a replaced channel: workers
        # revive only between attempts, after every drain.
        from repro.chaos import FaultEvent, FaultInjector, FaultPlan

        queued_at_revival = []
        register = RpcBus.register

        def spy(bus, name, handler):
            if name in bus.channels:
                queued_at_revival.append(len(bus._queue._entries))
            return register(bus, name, handler)

        monkeypatch.setattr(RpcBus, "register", spy)
        engine = Engine(num_segment_hosts=2, segments_per_host=2)
        session = engine.connect()
        session.execute("CREATE TABLE t (a INT, b INT) DISTRIBUTED BY (a)")
        session.load_rows("t", [(i, i * 2) for i in range(2000)])
        sql = "SELECT b % 7, count(*) FROM t GROUP BY b % 7 ORDER BY 1"
        expected = session.query(sql)
        engine.attach_chaos(
            FaultInjector(engine, FaultPlan([FaultEvent(1e-9, "kill_segment", 1)]))
        )
        result = session.execute(sql)
        assert result.retries >= 1 and result.rows == expected
        assert queued_at_revival and set(queued_at_revival) == {0}

    def test_raising_handler_consumes_only_its_own_message(self):
        queue, bus = _bus()
        got = []

        def dies(message):
            raise SegmentDown("seg0 died mid-task")

        bus.register("master", lambda m: None)
        bus.register("seg0", dies)
        bus.register("seg1", got.append)
        first = RpcMessage(kind=DISPATCH, sender="master")
        second = RpcMessage(kind=DISPATCH, sender="master")
        bus.send("master", "seg0", first)
        bus.send("master", "seg1", second)
        with pytest.raises(SegmentDown):
            queue.deliver()
        assert got == [] and queue.delivered == 1
        queue.deliver()  # what an abort's drain does
        assert got == [second] and queue.delivered == 2


@pytest.fixture(scope="module")
def session():
    engine = Engine(num_segment_hosts=2, segments_per_host=2)
    s = engine.connect()
    s.execute(
        "CREATE TABLE pts (id INT NOT NULL, v INT) DISTRIBUTED BY (id)"
    )
    s.execute(
        "INSERT INTO pts VALUES "
        + ", ".join(f"({i}, {i * 3})" for i in range(32))
    )
    return s


def _segments_by_slice(result):
    """slice id -> the segments its tasks ran on, from the task DAG."""
    out = {}
    for (slice_id, segment), _duration in result.task_graph.tasks:
        out.setdefault(slice_id, set()).add(segment)
    return out


class TestDistributedExecution:
    def test_seconds_decompose_into_makespan_plus_overhead(self, session):
        result = session.execute("SELECT v, count(*) FROM pts GROUP BY v")
        assert result.makespan > 0
        assert result.overhead_seconds > 0
        assert result.cost.seconds == pytest.approx(
            result.makespan + result.overhead_seconds
        )
        assert result.critical_path  # non-empty chain ending at the top
        top = result.plan.top_slice.slice_id
        assert result.critical_path[-1][0] == top

    def test_every_gang_slice_runs_on_workers_not_inline(self, session):
        result = session.execute(
            "SELECT v, count(*) FROM pts GROUP BY v ORDER BY v"
        )
        tasks = _segments_by_slice(result)
        for plan_slice in result.plan.slices:
            if plan_slice.gang == "1":
                assert tasks[plan_slice.slice_id] == {QD_SEGMENT}
            else:
                # One task per segment, each executed by a SegmentWorker.
                assert tasks[plan_slice.slice_id] == set(
                    range(session.engine.num_segments)
                )

    def test_direct_dispatch_contacts_one_segment(self, session):
        result = session.execute("SELECT v FROM pts WHERE id = 7")
        assert result.plan.direct_dispatch_segment is not None
        gang_n = [
            segments
            for segments in _segments_by_slice(result).values()
            if QD_SEGMENT not in segments
        ]
        assert gang_n  # the scan slice exists...
        for segments in gang_n:
            assert len(segments) == 1  # ...and ran on one segment only

    def test_direct_dispatch_charges_fewer_dispatches(self, session):
        # Fixed dispatch costs are charged on the RPC send path, so a
        # plan contacting one segment pays fewer per-segment costs.
        direct = session.execute("SELECT v FROM pts WHERE id = 7")
        full = session.execute("SELECT v FROM pts WHERE v = 21")
        assert full.plan.direct_dispatch_segment is None
        assert direct.overhead_seconds < full.overhead_seconds

    def test_explain_analyze_reports_per_segment_timelines(self, session):
        result = session.execute(
            "EXPLAIN ANALYZE SELECT v, count(*) FROM pts GROUP BY v"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "actual time=" in text
        assert "rows sent=" in text
        assert "seg0:" in text and "seg3:" in text
        assert "critical path" in text
        assert "Total:" in text

    def test_restart_after_kill_outside_query(self, session):
        engine = session.engine
        engine.fail_segment(0)
        try:
            engine.fault_detector.assign_failover()
            result = session.execute("SELECT count(*) FROM pts")
            assert result.rows == [(32,)]
        finally:
            engine.recover_segment(0)
