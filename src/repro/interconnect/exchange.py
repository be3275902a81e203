"""Motion data plane: per-stream exchange over the simulated net.

Each (query, sending slice, sender segment, receiver segment) tuple is
one **stream**. A worker finishing a motion pushes every stream as a
single datagram through :class:`~repro.network.simnet.SimNetwork` to the
receiver's exchange endpoint, where it lands in a per-stream inbox. The
consuming slice's MotionRecv leaf drains its inbox — streams are handed
over in sender-segment order, so results never depend on datagram
arrival order.

The fabric does not look inside a stream: its payload is whatever sized
sequence of rows the sending executor built — a list of tuples from the
row executor, one :class:`~repro.executor.batch.ColumnBatch` from the
vectorized one — and ``len(payload)`` is the stream's row count either
way, so stream records, trace marks and the motion counters read the
same in both modes.

The fabric is shared by every in-flight query: inboxes and stream
records are namespaced by query id, so interleaved dispatch never mixes
two queries' motion data. On the event-driven scheduler each motion is
one barrier (every sender task → every receiver task), which is how
motion data movement shapes the query's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sized, Tuple

from repro.network.simnet import SimNetwork

_EXCHANGE_HOST = "exchange"
_BASE_PORT = 7000


@dataclass
class StreamRecord:
    """One motion stream that crossed the fabric."""

    slice_id: int
    sender: int
    receiver: int
    rows: int
    nbytes: int
    query_id: int = 0


class ExchangeFabric:
    """Name = segment id; payload = a finished motion stream."""

    def __init__(self, net: SimNetwork):
        self._net = net
        self._addresses: Dict[int, Tuple[str, int]] = {}
        #: (query_id, slice_id, receiver) -> sender -> (rows, nbytes)
        self._inbox: Dict[
            Tuple[int, int, int], Dict[int, Tuple[Sized, int]]
        ] = {}
        self.records: List[StreamRecord] = []
        #: Optional passive observers (QueryTrace / MetricsRegistry);
        #: they record streams but never charge the clock.
        self.trace = None
        self.metrics = None

    @property
    def metrics(self):
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        #: The (streams, bytes) counters, found in the registry at the
        #: first delivery.
        self._counters = None

    def attach(self, segment_id: int) -> None:
        """Bind a segment's exchange endpoint (QD uses segment id -1).

        Idempotent: a revived worker re-attaches to the same address.
        """
        if segment_id in self._addresses:
            return
        address = (_EXCHANGE_HOST, _BASE_PORT + 1 + segment_id)
        self._net.bind(address, self._deliver)
        self._addresses[segment_id] = address

    def send(
        self,
        query_id: int,
        slice_id: int,
        sender: int,
        receiver: int,
        rows: Sized,
        nbytes: int,
    ) -> None:
        """Push one complete stream to ``receiver`` as one datagram."""
        self._net.send(
            self._addresses[sender],
            self._addresses[receiver],
            (query_id, slice_id, sender, receiver, rows, nbytes),
            nbytes,
        )

    def _deliver(self, stream: tuple) -> None:
        query_id, slice_id, sender, receiver, rows, nbytes = stream
        self._inbox.setdefault((query_id, slice_id, receiver), {})[sender] = (
            rows,
            nbytes,
        )
        self.records.append(
            StreamRecord(
                slice_id=slice_id,
                sender=sender,
                receiver=receiver,
                rows=len(rows),
                nbytes=nbytes,
                query_id=query_id,
            )
        )
        if self.trace is not None:
            self.trace.stream(
                slice_id, sender, receiver, len(rows), nbytes, query_id=query_id
            )
        if self._metrics is not None:
            counters = self._counters
            if counters is None:
                counters = self._counters = (
                    self._metrics.counter("motion_streams"),
                    self._metrics.counter("motion_bytes"),
                )
            counters[0].inc()
            counters[1].inc(nbytes)

    def receive(
        self, query_id: int, slice_id: int, receiver: int
    ) -> Tuple[List[Sized], int]:
        """Drain every stream of one motion addressed to ``receiver``:
        ``(payloads, total bytes)``.

        Payloads come in sender-segment order — the arrival order on the
        simulated wire never leaks into result rows.
        """
        streams = self._inbox.pop((query_id, slice_id, receiver), {})
        payloads: List[Sized] = []
        nbytes = 0
        for sender in sorted(streams):
            sender_rows, sender_bytes = streams[sender]
            payloads.append(sender_rows)
            nbytes += sender_bytes
        return payloads, nbytes

    def clear(self, query_id: int) -> None:
        """Drop one query's inbox entries and stream records.

        Called when one of the query's plan executions closes, gathered
        or aborted (init plans reuse slice ids, and a shared loop outlives
        its statements) — other in-flight queries' streams are untouched.
        """
        for key in [k for k in self._inbox if k[0] == query_id]:
            del self._inbox[key]
        self.records = [r for r in self.records if r.query_id != query_id]

    def close(self) -> None:
        """Unbind the exchange endpoints from the net (which holds this
        fabric through them), so a finished runtime dies by refcount."""
        for address in self._addresses.values():
            self._net.unregister(address)

    def reset(self) -> None:
        """Clear every inbox and record (fresh-runtime initialization)."""
        self._inbox.clear()
        self.records.clear()
