"""The HAWQ interconnect (paper Section 4).

Tuple streams between execution slices flow over one of two transports:

* :class:`~repro.interconnect.udp.UdpEndpoint` — the paper's contribution:
  every segment multiplexes all of its virtual connections over a single
  UDP socket, with sender/receiver state machines providing reliability,
  ordering, loss-based flow control and deadlock elimination on top of an
  unreliable datagram fabric.
* :class:`~repro.interconnect.tcp.TcpEndpoint` — the comparator: one real
  connection per stream, paying per-connection set-up and subject to port
  exhaustion.
"""

from repro.interconnect.exchange import ExchangeFabric
from repro.interconnect.packet import Packet, PacketType, StreamKey
from repro.interconnect.tcp import (
    TcpEndpoint,
    TcpFabric,
    TcpReceiver,
    TcpSender,
    TcpTuning,
)
from repro.interconnect.udp import (
    ReceiverState,
    SenderState,
    UdpEndpoint,
    UdpReceiver,
    UdpSender,
    UdpTuning,
)

__all__ = [
    "ExchangeFabric",
    "Packet",
    "PacketType",
    "ReceiverState",
    "SenderState",
    "StreamKey",
    "TcpEndpoint",
    "TcpFabric",
    "TcpReceiver",
    "TcpSender",
    "TcpTuning",
    "UdpEndpoint",
    "UdpReceiver",
    "UdpSender",
    "UdpTuning",
]
