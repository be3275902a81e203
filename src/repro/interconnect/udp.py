"""The UDP interconnect: reliability, ordering, flow control, deadlock
elimination — all in user space over an unreliable datagram network.

This is a faithful implementation of paper Section 4:

* **One socket per segment**: an :class:`UdpEndpoint` binds a single
  simulated UDP port and demultiplexes packets to per-stream senders and
  receivers by the self-describing header (:class:`StreamKey`).
* **Reliability**: senders keep unacknowledged packets in an expiration
  queue ring; retransmission timeouts are computed from measured RTT.
* **Ordering**: receivers slot packets into a ring buffer keyed by
  sequence number — no sorting — and deliver them in order.
* **Flow control**: a loss-based window. On an expired (presumed lost)
  packet the window collapses to a minimum and grows back via slow start;
  receiver capacity (advertised through SC) bounds it.
* **OUT-OF-ORDER / DUPLICATE**: gaps trigger immediate NAKs listing the
  possibly-lost packets; duplicates trigger an immediate cumulative ack
  so the sender can clear its expiration ring.
* **Deadlock elimination**: if all acks are lost the sender would wait
  forever on a full receiver; after a quiet period it sends a
  STATUS_QUERY and the receiver replies with its current SC/SR
  (Section 4.5).
* **EoS / Stop**: the sender/receiver state machines of Figure 5,
  including the receiver stopping the sender for LIMIT queries.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import InterconnectError
from repro.interconnect.packet import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    Packet,
    PacketType,
    StreamKey,
)
from repro.network.simnet import Address, Datagram, SimNetwork


class SenderState(enum.Enum):
    """Sender half of the Figure 5 state machine."""

    SETUP = "setup"
    SENDING = "sending"
    EOS_SENT = "eos_sent"
    STOP_RECEIVED = "stop_received"
    END = "end"


class ReceiverState(enum.Enum):
    """Receiver half of the Figure 5 state machine."""

    SETUP = "setup"
    RECEIVING = "receiving"
    EOS_RECEIVED = "eos_received"
    STOP_SENT = "stop_sent"
    END = "end"


@dataclass
class UdpTuning:
    """Protocol knobs, with defaults mirroring sensible kernel values."""

    capacity: int = 64  # receive buffers per virtual connection
    min_cwnd: float = 2.0
    initial_cwnd: float = 8.0
    min_rto: float = 2e-3
    max_rto: float = 0.25
    status_query_interval: float = 0.05
    ack_timer: float = 0.0  # acks are immediate in this implementation


class UdpEndpoint:
    """One segment's single multiplexed interconnect socket."""

    def __init__(
        self,
        network: SimNetwork,
        address: Address,
        tuning: Optional[UdpTuning] = None,
    ):
        self.network = network
        self.address = address
        self.tuning = tuning or UdpTuning()
        self._senders: Dict[StreamKey, UdpSender] = {}
        self._receivers: Dict[StreamKey, UdpReceiver] = {}
        #: Datagrams discarded because the packet checksum failed.
        self.corrupt_dropped = 0
        network.register(address, self._on_datagram)

    # ------------------------------------------------------------- factories
    def create_sender(self, stream: StreamKey, peer: Address) -> "UdpSender":
        """Open the sending half of a virtual connection to ``peer``."""
        if stream in self._senders:
            raise InterconnectError(f"sender already exists for {stream}")
        sender = UdpSender(self, stream, peer)
        self._senders[stream] = sender
        return sender

    def create_receiver(
        self,
        stream: StreamKey,
        peer: Address,
        on_payload: Optional[Callable[[object], None]] = None,
    ) -> "UdpReceiver":
        """Open the receiving half of a virtual connection from ``peer``."""
        if stream in self._receivers:
            raise InterconnectError(f"receiver already exists for {stream}")
        receiver = UdpReceiver(self, stream, peer, on_payload)
        self._receivers[stream] = receiver
        return receiver

    # ---------------------------------------------------------------- demux
    def _on_datagram(self, datagram: Datagram) -> None:
        if datagram.corrupted:
            # Checksum failure: discard silently. A corrupted DATA packet
            # will be retransmitted; a corrupted ACK is recovered by the
            # next cumulative ack or a STATUS_QUERY probe.
            self.corrupt_dropped += 1
            return
        packet: Packet = datagram.payload
        if packet.kind in (PacketType.DATA, PacketType.EOS, PacketType.STATUS_QUERY):
            receiver = self._receivers.get(packet.stream)
            if receiver is not None:
                receiver._on_packet(packet)
        else:
            sender = self._senders.get(packet.stream)
            if sender is not None:
                sender._on_packet(packet)

    def _send(self, dst: Address, packet: Packet) -> None:
        self.network.send(self.address, dst, packet, packet.size)


class UdpSender:
    """Sending half of one virtual connection.

    All state transitions happen inside the event loop; user code calls
    :meth:`send` / :meth:`finish` to enqueue work and then runs the
    network.
    """

    def __init__(self, endpoint: UdpEndpoint, stream: StreamKey, peer: Address):
        self.endpoint = endpoint
        self.stream = stream
        self.peer = peer
        self.state = SenderState.SETUP
        tuning = endpoint.tuning
        self._next_seq = 1
        self._pending: Deque[Packet] = deque()  # queued, not yet on the wire
        self._unacked: Dict[int, Tuple[Packet, float, bool]] = {}
        # expiration queue ring: seqs in send order, pruned lazily
        self._expiration_ring: Deque[int] = deque()
        self._cwnd = tuning.initial_cwnd
        self._ssthresh = float(tuning.capacity)
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._last_sc = 0
        self._last_sr = 0
        self._last_ack_time = 0.0
        self._eos_queued = False
        self._timer = None
        # statistics, inspected by tests and benchmarks
        self.packets_sent = 0
        self.retransmits = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------ public api
    def send(self, payload: object, size: Optional[int] = None) -> None:
        """Queue one tuple batch for transmission."""
        if self._eos_queued or self.state in (
            SenderState.EOS_SENT,
            SenderState.END,
            SenderState.STOP_RECEIVED,
        ):
            raise InterconnectError(f"send after stream close (state={self.state})")
        self.state = SenderState.SENDING
        payload_size = size if size is not None else self._estimate_size(payload)
        if payload_size > MAX_PAYLOAD:
            raise InterconnectError(f"payload exceeds MAX_PAYLOAD: {payload_size}")
        packet = Packet(
            kind=PacketType.DATA,
            stream=self.stream,
            seq=self._next_seq,
            payload=payload,
            payload_size=payload_size,
        )
        self._next_seq += 1
        self._pending.append(packet)
        self._pump()

    def finish(self) -> None:
        """Queue end-of-stream; the stream ends once EOS is acknowledged."""
        if self._eos_queued:
            return
        self._eos_queued = True
        packet = Packet(kind=PacketType.EOS, stream=self.stream, seq=self._next_seq)
        self._next_seq += 1
        self._pending.append(packet)
        self._pump()

    @property
    def done(self) -> bool:
        """True once every packet (including EOS) is consumed or stopped."""
        return self.state == SenderState.END

    # ------------------------------------------------------------- internals
    def _estimate_size(self, payload: object) -> int:
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        return 256

    def _pump(self) -> None:
        """Send queued packets while window and receiver capacity allow."""
        tuning = self.endpoint.tuning
        while self._pending:
            if len(self._unacked) >= int(self._cwnd):
                break
            head = self._pending[0]
            if head.seq - self._last_sc > tuning.capacity:
                break  # receiver has no buffer for this packet yet
            self._pending.popleft()
            self._transmit(head, first=True)
        self._arm_timer()

    def _transmit(self, packet: Packet, first: bool) -> None:
        now = self.endpoint.network.now
        self._unacked[packet.seq] = (packet, now, first)
        if first:
            self._expiration_ring.append(packet.seq)
            self.packets_sent += 1
        else:
            self.retransmits += 1
        self.bytes_sent += packet.size
        self.endpoint._send(self.peer, packet)

    # ---------------------------------------------------------------- timers
    def _rto(self) -> float:
        tuning = self.endpoint.tuning
        if self._srtt is None:
            return tuning.max_rto / 4
        rto = self._srtt + 4 * self._rttvar
        return min(max(rto, tuning.min_rto), tuning.max_rto)

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.state == SenderState.END:
            return
        if not self._unacked and not self._pending:
            return  # idle: nothing can expire, nothing to probe for
        self._timer = self.endpoint.network.schedule(self._rto(), self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if self.state == SenderState.END:
            return
        now = self.endpoint.network.now
        rto = self._rto()
        expired = [
            seq
            for seq, (_pkt, sent_at, _first) in self._unacked.items()
            if now - sent_at >= rto
        ]
        if expired:
            # Loss signal: collapse the flow-control window (Section 4.3).
            tuning = self.endpoint.tuning
            self._ssthresh = max(self._cwnd / 2, tuning.min_cwnd)
            self._cwnd = tuning.min_cwnd
            for seq in sorted(expired):
                packet, _sent_at, _first = self._unacked[seq]
                self._transmit(packet, first=False)
        elif self._should_probe(now):
            # Deadlock elimination (Section 4.5): all acks may be lost and
            # the receiver looks full; ask it where it stands.
            self.endpoint._send(
                self.peer,
                Packet(kind=PacketType.STATUS_QUERY, stream=self.stream),
            )
        self._pump()

    def _should_probe(self, now: float) -> bool:
        tuning = self.endpoint.tuning
        return (
            self._pending
            and not self._unacked
            and self._pending[0].seq - self._last_sc > tuning.capacity
            and now - self._last_ack_time >= tuning.status_query_interval
        )

    # ------------------------------------------------------------------ acks
    def _on_packet(self, packet: Packet) -> None:
        if packet.kind == PacketType.STOP:
            self._on_stop()
            return
        if packet.kind not in (
            PacketType.ACK,
            PacketType.DUPLICATE,
            PacketType.OUT_OF_ORDER,
        ):
            return
        self._last_ack_time = self.endpoint.network.now
        self._absorb_ack(packet.sc, packet.sr)
        if packet.kind == PacketType.OUT_OF_ORDER:
            # NAK'd packets may merely be reordered and still in flight;
            # only resend ones older than roughly one RTT.
            now = self.endpoint.network.now
            min_age = max(self._srtt or 0.0, self.endpoint.tuning.min_rto / 2)
            for seq in packet.missing:
                entry = self._unacked.get(seq)
                if entry is not None and now - entry[1] >= min_age:
                    self._transmit(entry[0], first=False)
        self._maybe_finish()
        self._pump()

    def _absorb_ack(self, sc: int, sr: int) -> None:
        now = self.endpoint.network.now
        self._last_sc = max(self._last_sc, sc)
        self._last_sr = max(self._last_sr, sr)
        acked = [seq for seq in self._unacked if seq <= self._last_sr]
        for seq in sorted(acked):
            packet, sent_at, first_only = self._unacked.pop(seq)
            if first_only:
                # Karn's algorithm: only never-retransmitted packets give
                # unambiguous RTT samples.
                self._sample_rtt(now - sent_at)
            self._grow_window()
        while self._expiration_ring and self._expiration_ring[0] <= self._last_sr:
            self._expiration_ring.popleft()

    def _sample_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample

    def _grow_window(self) -> None:
        tuning = self.endpoint.tuning
        if self._cwnd < self._ssthresh:
            self._cwnd += 1  # slow start
        else:
            self._cwnd += 1 / self._cwnd  # congestion avoidance
        self._cwnd = min(self._cwnd, float(tuning.capacity))

    def _maybe_finish(self) -> None:
        if (
            self._eos_queued
            and not self._pending
            and not self._unacked
            and self.state != SenderState.END
        ):
            self.state = SenderState.END
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None

    def _on_stop(self) -> None:
        """Receiver has enough data (LIMIT): drop queued work, send EOS."""
        if self.state in (SenderState.END,):
            return
        self.state = SenderState.STOP_RECEIVED
        self._pending.clear()
        for seq in list(self._unacked):
            del self._unacked[seq]
        self._expiration_ring.clear()
        eos = Packet(kind=PacketType.EOS, stream=self.stream, seq=self._next_seq)
        self._next_seq += 1
        self.endpoint._send(self.peer, eos)
        self.state = SenderState.END
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class UdpReceiver:
    """Receiving half of one virtual connection.

    Incoming packets land in a ring buffer indexed by ``seq % capacity``;
    in-order packets are delivered to ``on_payload`` (or buffered in
    :attr:`received`) as soon as the sequence is contiguous.
    """

    def __init__(
        self,
        endpoint: UdpEndpoint,
        stream: StreamKey,
        peer: Address,
        on_payload: Optional[Callable[[object], None]] = None,
    ):
        self.endpoint = endpoint
        self.stream = stream
        self.peer = peer
        self.state = ReceiverState.SETUP
        self._on_payload = on_payload
        capacity = endpoint.tuning.capacity
        self._ring: List[Optional[Packet]] = [None] * capacity
        self._next_expected = 1  # next seq to consume
        self._sr = 0  # cumulative: all seqs <= _sr received
        self._consume_delay = 0.0
        self._consuming = False
        self.received: List[object] = []
        self.eos = False
        self.duplicates = 0
        self.out_of_order_events = 0
        #: Drop every ack (test hook for the deadlock-elimination path).
        self.drop_acks = False

    # ------------------------------------------------------------ public api
    def set_consume_delay(self, seconds: float) -> None:
        """Simulate a slow consumer: each packet takes this long to drain."""
        self._consume_delay = seconds

    def stop(self) -> None:
        """Ask the sender to stop (LIMIT satisfied)."""
        if self.state in (ReceiverState.END, ReceiverState.EOS_RECEIVED):
            return
        self.state = ReceiverState.STOP_SENT
        self.endpoint._send(
            self.peer, Packet(kind=PacketType.STOP, stream=self.stream)
        )

    @property
    def done(self) -> bool:
        return self.eos

    # ------------------------------------------------------------- internals
    def _capacity(self) -> int:
        return self.endpoint.tuning.capacity

    def _slot(self, seq: int) -> int:
        return seq % self._capacity()

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind == PacketType.STATUS_QUERY:
            self._send_ack(PacketType.ACK)
            return
        if packet.kind not in (PacketType.DATA, PacketType.EOS):
            return
        if self.state == ReceiverState.STOP_SENT:
            # After STOP the sender abandons retransmission, so sequence
            # continuity is gone; accept its closing EOS unconditionally
            # and remind it to stop if data keeps arriving.
            if packet.kind == PacketType.EOS:
                self.eos = True
                self.state = ReceiverState.EOS_RECEIVED
                self._send_ack(PacketType.ACK)
            else:
                self.endpoint._send(
                    self.peer, Packet(kind=PacketType.STOP, stream=self.stream)
                )
            return
        if self.state == ReceiverState.SETUP:
            self.state = ReceiverState.RECEIVING
        seq = packet.seq
        slot = self._slot(seq)
        occupant = self._ring[slot]
        if seq <= self._sr or (occupant is not None and occupant.seq == seq):
            # Duplicate: tell the sender immediately with cumulative state
            # so it can clear its expiration ring (Section 4.4).
            self.duplicates += 1
            self._send_ack(PacketType.DUPLICATE)
            return
        if seq >= self._next_expected + self._capacity():
            return  # no buffer space: drop silently, sender will retransmit
        self._ring[slot] = packet
        self._advance_sr()
        if seq > self._sr:
            # Gap: NAK the possibly-lost packets right away (Section 4.4).
            missing = tuple(
                s
                for s in range(self._sr + 1, seq)
                if self._ring[self._slot(s)] is None
            )
            if missing:
                self.out_of_order_events += 1
                self._send_ack(PacketType.OUT_OF_ORDER, missing=missing)
                self._schedule_consume()
                return
        self._send_ack(PacketType.ACK)
        self._schedule_consume()

    def _advance_sr(self) -> None:
        while True:
            nxt = self._sr + 1
            packet = self._ring[self._slot(nxt)]
            if packet is None or packet.seq != nxt:
                break
            self._sr = nxt

    def _send_ack(
        self, kind: PacketType, missing: Tuple[int, ...] = ()
    ) -> None:
        if self.drop_acks:
            return
        self.endpoint._send(
            self.peer,
            Packet(
                kind=kind,
                stream=self.stream,
                sc=self._next_expected - 1,
                sr=self._sr,
                missing=missing,
            ),
        )

    # ------------------------------------------------------------ consumption
    def _schedule_consume(self) -> None:
        if self._consuming:
            return
        self._consuming = True
        self.endpoint.network.schedule(self._consume_delay, self._consume_one)

    def _consume_one(self) -> None:
        self._consuming = False
        slot = self._slot(self._next_expected)
        packet = self._ring[slot]
        if packet is None or packet.seq != self._next_expected:
            return
        self._ring[slot] = None
        self._next_expected += 1
        if packet.kind == PacketType.EOS:
            self.eos = True
            self.state = ReceiverState.EOS_RECEIVED
            self._send_ack(PacketType.ACK)
            return
        if self._on_payload is not None:
            self._on_payload(packet.payload)
        else:
            self.received.append(packet.payload)
        self._send_ack(PacketType.ACK)
        # keep draining if more contiguous packets are queued
        nxt = self._ring[self._slot(self._next_expected)]
        if nxt is not None and nxt.seq == self._next_expected:
            self._schedule_consume()
