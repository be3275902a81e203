"""Master/segment control-plane RPC, on the runtime's in-order queue.

The query dispatcher (QD) and every :class:`~repro.cluster.worker.
SegmentWorker` own one :class:`RpcChannel` on a shared :class:`RpcBus`.
Control traffic (dispatch, completion, abort; an ACK is sent but never
queued: nothing reads it) rides one :class:`MessageQueue`, which motion
streams share and which delivers in send order. Every charged send pays
real bytes plus **one** ``net_latency`` on the sender's cost accumulator
(latency is per message, never per fragment: a multi-fragment payload is
batched into one charged send); the queue itself keeps no clock.

Killing a segment process is modeled as *dropping its channel*: the
channel stays on the bus (a queued message to it is delivered to no
one, like UDP to a dead port), but any attempt to send through a closed
channel — the master dispatching to it, or the dead worker trying to
report back — raises :class:`~repro.errors.SegmentDown`, which the
session's bounded-restart loop turns into a query restart (paper §2.6).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import InterconnectError, SegmentDown
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


def charge_control(acc: CostAccumulator, nbytes: int) -> None:
    """Charge one control-plane message: its bytes at wire bandwidth plus
    exactly one ``net_latency``. Control traffic (plans, acks, reports)
    is *not* data-proportional, so the byte time is a fixed cost — it
    never gets multiplied by the data-volume scale factor."""
    acc.net_bytes += nbytes
    acc.fixed(nbytes / acc.model.net_bw + acc.model.net_latency)


class MessageQueue:
    """What one QD/QE process group's messages ride: RPC messages and
    motion streams, delivered in the order they were sent.

    An entry is ``(endpoint, payload)``; delivering it hands the payload
    to ``endpoint.deliver``. Nothing is lost, duplicated or delayed, and
    nothing here keeps time: what a message costs is charged by its
    sender (:func:`charge_control`, a motion's send charge).
    """

    def __init__(self) -> None:
        self._entries: Deque[Tuple[object, object]] = deque()
        #: Messages handed to an endpoint (a dropped channel's included).
        self.delivered = 0

    def put(self, endpoint, payload: object) -> None:
        self._entries.append((endpoint, payload))

    def deliver(self) -> None:
        """Deliver every queued message, and what delivering them sends,
        in send order until none is left. A handler that raises consumes
        its own message only: the rest stay queued for the next call."""
        entries = self._entries
        while entries:
            endpoint, payload = entries.popleft()
            self.delivered += 1
            endpoint.deliver(payload)

    def clear(self) -> None:
        self._entries.clear()


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
    open: bool = True
    #: The endpoint's message handler.
    handler: Optional[Callable[[RpcMessage], None]] = None

    def deliver(self, message: RpcMessage) -> None:
        """What the queue hands a message to: a dead process drops it,
        like real UDP."""
        if self.open:
            self.handler(message)


class RpcBus:
    """Name-addressed control-plane messaging on a :class:`MessageQueue`."""

    def __init__(self, queue: MessageQueue):
        self._queue = queue
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
        """Give ``name`` a fresh channel on the bus.

        A name whose channel was dropped may be re-registered — that is
        a replacement process reviving a dead segment's endpoint on a
        channel of its own. Re-registering a live name is still an error.
        """
        existing = self.channels.get(name)
        if existing is not None and existing.open:
            raise InterconnectError(f"rpc name already bound: {name}")
        if existing is not None:
            # Workers revive only between attempts, when every drain has
            # emptied the queue: nothing is still addressed to the old
            # process, and the new one gets a channel of its own.
            if self.trace is not None:
                # Revival is trace-visible, like the drop was: a
                # COMPLETE from the replacement process must not read
                # as the dead one reporting posthumously.
                on_revive = getattr(self.trace, "on_revive", None)
                if on_revive is not None:
                    on_revive(name)
        channel = RpcChannel(name=name, handler=handler)
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

    def send(
        self,
        sender: str,
        dest: str,
        message: RpcMessage,
        acc: Optional[CostAccumulator] = None,
        queued: bool = True,
    ) -> None:
        """Send one control message; charges ``acc`` (when given) the
        message's bytes plus exactly one ``net_latency``. A message
        nobody reads (a worker's ACK) is sent ``queued=False``: charged,
        traced and counted, but never put on the queue."""
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
        if queued:
            self._queue.put(dst, message)
