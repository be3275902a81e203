"""Tests for the UDP interconnect protocol and the TCP comparator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConnectionLimitExceeded, InterconnectError
from repro.interconnect import (
    PacketType,
    ReceiverState,
    SenderState,
    StreamKey,
    TcpEndpoint,
    TcpFabric,
    TcpTuning,
    UdpEndpoint,
    UdpTuning,
)
from repro.network import NetworkConditions, SimNetwork

KEY = StreamKey(session_id=1, command_id=1, motion_id=1, sender_id=0, receiver_id=1)


def make_udp_pair(conditions=None, seed=0, tuning=None):
    net = SimNetwork(conditions or NetworkConditions(), seed=seed)
    a = UdpEndpoint(net, ("hostA", 4000), tuning=tuning)
    b = UdpEndpoint(net, ("hostB", 4000), tuning=tuning)
    recv = b.create_receiver(KEY, ("hostA", 4000))
    send = a.create_sender(KEY, ("hostB", 4000))
    return net, send, recv


def drain(net, send, recv, max_time=120.0):
    return net.run(until=lambda: send.done and recv.done, max_time=max_time)


class TestUdpBasics:
    def test_in_order_delivery(self):
        net, send, recv = make_udp_pair()
        for i in range(100):
            send.send(i, size=64)
        send.finish()
        drain(net, send, recv)
        assert recv.received == list(range(100))

    def test_every_wire_byte_is_counted(self):
        """On a clean network every datagram the sender puts on the wire
        is one it counted: the net carries exactly ``bytes_sent`` from
        its address, and the receiver sees no duplicate."""
        net, send, recv = make_udp_pair()
        wire = {}
        net_send = net.send

        def counted(src, dst, payload, size):
            wire[src] = wire.get(src, 0) + size
            net_send(src, dst, payload, size)

        net.send = counted
        for i in range(100):
            send.send(i, size=64)
        send.finish()
        drain(net, send, recv)
        assert wire[("hostA", 4000)] == send.bytes_sent > 0
        assert recv.duplicates == 0

    def test_empty_stream(self):
        net, send, recv = make_udp_pair()
        send.finish()
        drain(net, send, recv)
        assert recv.received == []
        assert send.state is SenderState.END
        assert recv.state is ReceiverState.EOS_RECEIVED

    def test_send_after_finish_fails(self):
        net, send, recv = make_udp_pair()
        send.finish()
        with pytest.raises(InterconnectError):
            send.send("late")

    def test_oversized_payload_rejected(self):
        net, send, recv = make_udp_pair()
        with pytest.raises(InterconnectError):
            send.send(b"x", size=1 << 20)

    def test_duplicate_endpoint_stream_rejected(self):
        net = SimNetwork()
        a = UdpEndpoint(net, ("h", 1))
        a.create_sender(KEY, ("h", 2))
        with pytest.raises(InterconnectError):
            a.create_sender(KEY, ("h", 2))


class TestUdpReliability:
    def test_loss_recovery(self):
        net, send, recv = make_udp_pair(NetworkConditions(loss_rate=0.15), seed=3)
        for i in range(300):
            send.send(i, size=64)
        send.finish()
        drain(net, send, recv)
        assert recv.received == list(range(300))
        assert send.retransmits > 0

    def test_duplicate_handling(self):
        net, send, recv = make_udp_pair(NetworkConditions(dup_rate=0.3), seed=5)
        for i in range(200):
            send.send(i, size=64)
        send.finish()
        drain(net, send, recv)
        assert recv.received == list(range(200))
        assert recv.duplicates > 0

    def test_reordering_ring_buffer(self):
        net, send, recv = make_udp_pair(
            NetworkConditions(jitter=500e-6), seed=9
        )
        for i in range(250):
            send.send(i, size=64)
        send.finish()
        drain(net, send, recv)
        assert recv.received == list(range(250))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), loss=st.floats(0.0, 0.3))
    def test_always_complete_and_ordered(self, seed, loss):
        """Property: any loss pattern still yields complete in-order data."""
        net, send, recv = make_udp_pair(
            NetworkConditions(loss_rate=loss, dup_rate=0.05), seed=seed
        )
        for i in range(120):
            send.send(i, size=32)
        send.finish()
        drain(net, send, recv, max_time=600)
        assert recv.received == list(range(120))


class TestUdpFlowControl:
    def test_window_collapse_on_loss(self):
        tuning = UdpTuning(initial_cwnd=16.0)
        net, send, recv = make_udp_pair(
            NetworkConditions(loss_rate=0.4), seed=1, tuning=tuning
        )
        for i in range(100):
            send.send(i, size=64)
        send.finish()
        # Run a little: under heavy loss the window should have collapsed
        # below its initial value at some point; fully drain after.
        drain(net, send, recv, max_time=600)
        assert recv.received == list(range(100))

    def test_slow_receiver_backpressure(self):
        tuning = UdpTuning(capacity=8)
        net, send, recv = make_udp_pair(tuning=tuning, seed=2)
        recv.set_consume_delay(1e-3)
        for i in range(50):
            send.send(i, size=64)
        send.finish()
        drain(net, send, recv, max_time=600)
        assert recv.received == list(range(50))

    def test_capacity_respected(self):
        """The sender never has more unconsumed packets outstanding than
        the receiver's buffer capacity."""
        tuning = UdpTuning(capacity=8)
        net, send, recv = make_udp_pair(tuning=tuning, seed=4)
        recv.set_consume_delay(5e-4)
        for i in range(40):
            send.send(i, size=64)
        send.finish()
        drain(net, send, recv, max_time=600)
        assert recv.received == list(range(40))
        assert send._next_seq - 1 - send._last_sc <= tuning.capacity + 1


class TestUdpControlMessages:
    def test_stop_for_limit_queries(self):
        net, send, recv = make_udp_pair(seed=6)
        for i in range(20):
            send.send(i, size=64)
        # Let a few arrive, then tell the sender to stop.
        net.run(until=lambda: len(recv.received) >= 5, max_time=10)
        recv.stop()
        send.finish()  # sender had more to say but should cut short
        net.run(until=lambda: send.done and recv.done, max_time=10)
        assert send.state is SenderState.END
        assert recv.done

    def test_deadlock_elimination_via_status_query(self):
        """Paper Section 4.5: all acks lost while the receiver drains ->
        the sender probes with STATUS_QUERY instead of hanging."""
        tuning = UdpTuning(capacity=4, status_query_interval=0.01)
        net, send, recv = make_udp_pair(tuning=tuning, seed=8)
        for i in range(12):
            send.send(i, size=64)
        send.finish()
        # Drop every ack for a while: the sender will believe the
        # receiver is full even once it has consumed everything.
        recv.drop_acks = True
        net.run(until=lambda: len(recv.received) >= 4, max_time=10)
        recv.drop_acks = False
        drain(net, send, recv, max_time=600)
        assert recv.received == list(range(12))

    def test_eos_is_reliable(self):
        net, send, recv = make_udp_pair(NetworkConditions(loss_rate=0.4), seed=12)
        send.send("only", size=32)
        send.finish()
        drain(net, send, recv, max_time=600)
        assert recv.done and send.done


class TestTcp:
    def make_pair(self, tuning=None, conditions=None, seed=0):
        net = SimNetwork(conditions or NetworkConditions(), seed=seed)
        fabric = TcpFabric(net, tuning)
        a = TcpEndpoint(fabric, ("hostA", 0))
        b = TcpEndpoint(fabric, ("hostB", 0))
        recv = b.create_receiver(KEY)
        send = a.create_sender(KEY, b)
        recv.attach_sender(send)
        return net, fabric, send, recv

    def test_reliable_in_order(self):
        net, fabric, send, recv = self.make_pair(
            conditions=NetworkConditions(loss_rate=0.1)
        )
        for i in range(100):
            send.send(i, size=64)
        send.finish()
        net.run(until=lambda: recv.done, max_time=60)
        assert recv.received == list(range(100))

    def test_ports_released_on_close(self):
        net, fabric, send, recv = self.make_pair()
        send.send(1, size=10)
        send.finish()
        net.run(until=lambda: recv.done, max_time=60)
        assert fabric.streams_per_host["hostA"] == 0
        assert fabric.streams_per_host["hostB"] == 0

    def test_port_exhaustion(self):
        net = SimNetwork()
        fabric = TcpFabric(net, TcpTuning(max_streams_per_host=3))
        a = TcpEndpoint(fabric, ("hostA", 0))
        b = TcpEndpoint(fabric, ("hostB", 0))
        senders = []
        with pytest.raises(ConnectionLimitExceeded):
            for i in range(10):
                key = StreamKey(1, 1, 1, i, i)
                b.create_receiver(key)
                sender = a.create_sender(key, b)
                sender.send("x", size=8)
                senders.append(sender)

    def test_handshakes_serialize_per_host(self):
        """Opening many connections at once queues on the host."""
        net = SimNetwork()
        fabric = TcpFabric(net)
        a = TcpEndpoint(fabric, ("hostA", 0))
        b = TcpEndpoint(fabric, ("hostB", 0))
        receivers = []
        for i in range(50):
            key = StreamKey(1, 1, 1, i, i)
            recv = b.create_receiver(key)
            send = a.create_sender(key, b)
            send.send(i, size=16)
            send.finish()
            receivers.append(recv)
        elapsed = net.run(
            until=lambda: all(r.done for r in receivers), max_time=60
        )
        assert elapsed >= 50 * fabric.tuning.conn_setup

    def test_stop(self):
        net, fabric, send, recv = self.make_pair()
        send.send(1, size=8)
        net.run(until=lambda: len(recv.received) == 1, max_time=60)
        recv.stop()
        send.send(2, size=8)  # silently dropped
        net.run(until=lambda: recv.done, max_time=60)
        assert recv.received == [1]
