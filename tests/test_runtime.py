"""Tests for the message-passing master/segment runtime: the RPC bus,
the exchange fabric, and the scheduler-composed query timing."""

import pytest

from repro import Engine
from repro.cluster.rpc import DISPATCH, RpcBus, RpcMessage
from repro.errors import InterconnectError, SegmentDown
from repro.interconnect.exchange import ExchangeFabric
from repro.network import SimNetwork
from repro.planner.dispatch import QD_SEGMENT
from repro.simtime import CostAccumulator, CostModel


def _bus():
    net = SimNetwork()
    return net, RpcBus(net)


class TestRpcBus:
    def test_roundtrip_delivery(self):
        net, bus = _bus()
        got = []
        bus.register("master", lambda m: got.append(m))
        bus.register("seg0", lambda m: got.append(m))
        bus.send(
            "master", "seg0", RpcMessage(kind=DISPATCH, sender="master")
        )
        net.run()
        assert len(got) == 1 and got[0].sender == "master"

    def test_duplicate_name_rejected(self):
        _net, bus = _bus()
        bus.register("seg0", lambda m: None)
        with pytest.raises(InterconnectError):
            bus.register("seg0", lambda m: None)

    def test_send_to_dropped_channel_raises(self):
        _net, bus = _bus()
        bus.register("master", lambda m: None)
        bus.register("seg0", lambda m: None)
        bus.drop("seg0")
        assert not bus.is_open("seg0")
        with pytest.raises(SegmentDown):
            bus.send("master", "seg0", RpcMessage(kind=DISPATCH, sender="master"))

    def test_send_from_dropped_channel_raises(self):
        # A killed worker discovers its own death when it reports back.
        _net, bus = _bus()
        bus.register("master", lambda m: None)
        bus.register("seg0", lambda m: None)
        bus.drop("seg0")
        with pytest.raises(SegmentDown):
            bus.send("seg0", "master", RpcMessage(kind=DISPATCH, sender="seg0"))

    def test_in_flight_datagram_to_dead_channel_vanishes(self):
        # UDP semantics: the endpoint stays bound, data just disappears.
        net, bus = _bus()
        got = []
        bus.register("master", lambda m: None)
        bus.register("seg0", lambda m: got.append(m))
        bus.send("master", "seg0", RpcMessage(kind=DISPATCH, sender="master"))
        bus.drop("seg0")
        net.run()
        assert got == []

    def test_charged_send_pays_bytes_plus_one_latency(self):
        _net, bus = _bus()
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
        net = SimNetwork()
        fabric = ExchangeFabric(net)
        for seg in (QD_SEGMENT, 0, 1, 2):
            fabric.attach(seg)
        # Send out of segment order; receive must still be segment-asc.
        fabric.send(7, 5, 2, QD_SEGMENT, [("c",)], 8)
        fabric.send(7, 5, 0, QD_SEGMENT, [("a",)], 8)
        fabric.send(7, 5, 1, QD_SEGMENT, [("b",)], 8)
        net.run()
        streams, nbytes = fabric.receive(7, 5, QD_SEGMENT)
        assert streams == [[("a",)], [("b",)], [("c",)]]
        assert nbytes == 24
        assert len(fabric.records) == 3

    def test_batch_payload_counts_its_live_rows(self):
        # The fabric reads a stream's row count off the payload's len(),
        # so a ColumnBatch stream records its live rows like a row list.
        from repro.executor.batch import ColumnBatch

        net = SimNetwork()
        fabric = ExchangeFabric(net)
        fabric.attach(0)
        fabric.attach(1)
        batch = ColumnBatch([[1, 2, 3], ["x", "y", "z"]], 3, sel=[0, 2])
        fabric.send(7, 1, 0, 1, batch, 26)
        net.run()
        assert [r.rows for r in fabric.records] == [2]
        assert fabric.receive(7, 1, 1) == ([batch], 26)

    def test_receive_drains_inbox(self):
        net = SimNetwork()
        fabric = ExchangeFabric(net)
        fabric.attach(0)
        fabric.attach(1)
        fabric.send(7, 1, 0, 1, [(1,)], 4)
        net.run()
        assert fabric.receive(7, 1, 1)[0] == [[(1,)]]
        assert fabric.receive(7, 1, 1) == ([], 0)

    def test_clear_scoped_to_one_query(self):
        # Two in-flight queries share the fabric; clearing one must not
        # disturb the other's streams or records.
        net = SimNetwork()
        fabric = ExchangeFabric(net)
        fabric.attach(0)
        fabric.attach(1)
        fabric.send(7, 1, 0, 1, [(1,)], 4)
        fabric.send(8, 1, 0, 1, [(2,)], 4)
        net.run()
        fabric.clear(7)
        assert fabric.receive(7, 1, 1) == ([], 0)
        assert fabric.receive(8, 1, 1)[0] == [[(2,)]]
        assert [r.query_id for r in fabric.records] == [8]

    def test_reset_clears_streams_and_records(self):
        net = SimNetwork()
        fabric = ExchangeFabric(net)
        fabric.attach(0)
        fabric.attach(1)
        fabric.send(7, 1, 0, 1, [(1,)], 4)
        net.run()
        fabric.reset()
        assert fabric.receive(7, 1, 1) == ([], 0)
        assert fabric.records == []

    def test_attach_is_idempotent(self):
        # A revived worker re-attaches to its old exchange endpoint.
        fabric = ExchangeFabric(SimNetwork())
        fabric.attach(0)
        fabric.attach(0)
        assert len(fabric._addresses) == 1


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
