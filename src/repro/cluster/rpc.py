"""Master/segment control-plane RPC, riding the simulated datagram net.

The query dispatcher (QD) and every :class:`~repro.cluster.worker.
SegmentWorker` own one :class:`RpcChannel` on a shared :class:`RpcBus`.
All control traffic — plan dispatch, acks, completion reports, aborts —
flows as datagrams through :class:`~repro.network.simnet.SimNetwork`,
and every charged send pays real bytes plus **one** ``net_latency`` on
the sender's cost accumulator (latency is per message, never per
fragment: a multi-fragment payload is batched into one charged send).

Killing a segment process is modeled as *dropping its channel*: the
endpoint stays bound (stray datagrams vanish like real UDP to a dead
port), but any attempt to send through a closed channel — the master
dispatching to it, or the dead worker trying to report back — raises
:class:`~repro.errors.SegmentDown`, which the session's bounded-restart
loop turns into a query restart (paper §2.6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InterconnectError, SegmentDown
from repro.network.simnet import SimNetwork
from repro.simtime import CostAccumulator

# Message kinds of the dispatch protocol.
DISPATCH = "dispatch"
ACK = "ack"
COMPLETE = "complete"
ABORT = "abort"

#: The master's well-known channel name on the bus.
MASTER = "master"

#: Nominal wire sizes of the fixed-shape control messages.
ACK_BYTES = 64
ABORT_BYTES = 64
COMPLETE_BYTES = 128
#: Charged wire size of a thin plan when metadata dispatch is ablated
#: (the plan itself shrinks to a stub; the metadata RPC storm is charged
#: separately, per catalog object).
CATALOG_LOOKUP_BYTES = 256

_RPC_HOST = "rpc"
_BASE_PORT = 9000


def charge_control(acc: CostAccumulator, nbytes: int) -> None:
    """Charge one control-plane message: its bytes at wire bandwidth plus
    exactly one ``net_latency``. Control traffic (plans, acks, reports)
    is *not* data-proportional, so the byte time is a fixed cost — it
    never gets multiplied by the data-volume scale factor."""
    acc.net_bytes += nbytes
    acc.fixed(nbytes / acc.model.net_bw + acc.model.net_latency)


@dataclass
class RpcMessage:
    """One control-plane message."""

    kind: str
    sender: str
    payload: object = None
    #: Charged wire size in bytes (plan bytes for DISPATCH, a small
    #: fixed header for ACK/COMPLETE/ABORT).
    size: int = 0
    #: Engine-wide id of the statement this message belongs to (0 when
    #: no statement is attached). Under concurrency, every query's
    #: control traffic must stay attributable — traces key on this.
    query_id: int = 0


@dataclass
class TaskReport:
    """COMPLETE payload: what one (slice, segment) task did."""

    slice_id: int
    segment: int
    seconds: float
    #: Rows pushed through the slice's motion (or returned, for top).
    rows_out: int
    #: Bytes pushed through the slice's motion.
    bytes_out: int
    disk_read_bytes: int = 0
    disk_write_bytes: int = 0
    net_bytes: int = 0
    tuples: int = 0
    #: Top-slice only: the result rows gathered back to the client.
    result_rows: Optional[List[tuple]] = None


@dataclass
class RpcChannel:
    """One endpoint's connection to the bus. ``open=False`` models a
    dead process: the channel exists but nothing can traverse it."""

    name: str
    address: Tuple[str, int]
    open: bool = True
    #: The endpoint's message handler (None once the bus closed).
    handler: Optional[Callable[[RpcMessage], None]] = None

    def deliver(self, message: RpcMessage) -> None:
        """What the net hands an arriving message to: a dead process
        drops it, like real UDP."""
        if self.open:
            self.handler(message)


class RpcBus:
    """Name-addressed control-plane messaging over a SimNetwork."""

    def __init__(self, net: SimNetwork):
        self._net = net
        self._ports = itertools.count(_BASE_PORT)
        self.channels: Dict[str, RpcChannel] = {}
        #: Optional :class:`repro.obs.trace.QueryTrace` recorder and
        #: :class:`repro.obs.metrics.MetricsRegistry`. Both are passive
        #: observers of the control plane — they never charge the clock.
        self.trace = None
        self.metrics = None

    @property
    def metrics(self):
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        #: message kind -> its (messages, bytes) counters, each found
        #: in the registry at the kind's first send.
        self._counters: Dict[str, tuple] = {}

    def register(
        self, name: str, handler: Callable[[RpcMessage], None]
    ) -> RpcChannel:
        """Bind ``name`` to a fresh (host, port) endpoint on the net.

        A name whose channel was dropped may be re-registered — that is
        a replacement process reviving a dead segment's endpoint. The
        old address stays reachable (stray datagrams to it still vanish
        at the closed channel); the revived endpoint listens on a fresh
        port. Re-registering a live name is still an error.
        """
        existing = self.channels.get(name)
        if existing is not None and existing.open:
            raise InterconnectError(f"rpc name already bound: {name}")
        if existing is not None:
            # Unbind the dead endpoint's port: datagrams addressed to
            # the old process drop at the net, never at the new one.
            self._net.unregister(existing.address)
            if self.trace is not None:
                # Revival is trace-visible, like the drop was: a
                # COMPLETE from the replacement process must not read
                # as the dead one reporting posthumously.
                on_revive = getattr(self.trace, "on_revive", None)
                if on_revive is not None:
                    on_revive(name)
        address = (_RPC_HOST, next(self._ports))
        channel = RpcChannel(name=name, address=address, handler=handler)
        self._net.bind(address, channel.deliver)
        self.channels[name] = channel
        return channel

    def drop(self, name: str) -> None:
        """Kill the named endpoint's process: close its channel."""
        channel = self.channels.get(name)
        if channel is not None:
            if channel.open and self.trace is not None:
                self.trace.on_drop(name)
            channel.open = False

    def is_open(self, name: str) -> bool:
        channel = self.channels.get(name)
        return channel is not None and channel.open

    def close(self) -> None:
        """Unbind every endpoint from the net and forget its handler.

        The net holds this bus's channels through their bound
        ``deliver`` methods and the channels hold their endpoints'
        owners through their handlers; cutting both lets a finished
        process group die by refcount instead of waiting for the cycle
        collector."""
        for channel in self.channels.values():
            self._net.unregister(channel.address)
            channel.handler = None

    def send(
        self,
        sender: str,
        dest: str,
        message: RpcMessage,
        acc: Optional[CostAccumulator] = None,
    ) -> None:
        """Send one control message; charges ``acc`` (when given) the
        message's bytes plus exactly one ``net_latency``."""
        src = self.channels.get(sender)
        dst = self.channels.get(dest)
        if src is None or not src.open:
            raise SegmentDown(f"rpc endpoint {sender!r} is down")
        if dst is None or not dst.open:
            raise SegmentDown(f"rpc channel to {dest!r} is down")
        if acc is not None:
            charge_control(acc, message.size)
        if self.trace is not None:
            # Past the open-checks: a send that raised SegmentDown was
            # never sent, so the protocol log only holds real traffic.
            self.trace.on_rpc(sender, dest, message)
        if self._metrics is not None:
            counters = self._counters.get(message.kind)
            if counters is None:
                counters = self._counters[message.kind] = (
                    self._metrics.counter("rpc_messages", kind=message.kind),
                    self._metrics.counter("rpc_bytes", kind=message.kind),
                )
            counters[0].inc()
            counters[1].inc(message.size)
        self._net.send(src.address, dst.address, message, message.size)
