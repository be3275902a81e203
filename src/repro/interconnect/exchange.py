"""Motion data plane: per-stream exchange on the runtime's message queue.

Each (query, sending slice, sender segment, receiver segment) tuple is
one **stream**. A worker finishing a motion pushes every stream as one
message onto the :class:`~repro.cluster.rpc.MessageQueue` it shares with
the control plane; delivered, the stream lands in a per-stream inbox.
The consuming slice's MotionRecv leaf drains its inbox — streams are
handed over in sender-segment order, so results never depend on the
order of delivery.

The fabric does not look inside a stream: its payload is whatever sized
sequence of rows the sending executor built — a list of tuples from the
row executor, one :class:`~repro.executor.batch.ColumnBatch` from the
vectorized one — and ``len(payload)`` is the stream's row count either
way, so trace marks and the motion counters read the same in both modes.

The fabric is shared by every in-flight query: inboxes are namespaced by
query id, so interleaved dispatch never mixes two queries' motion data.
On the event-driven scheduler each motion is one barrier (every sender
task → every receiver task), which is how motion data movement shapes
the query's critical path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sized, Tuple

if TYPE_CHECKING:  # the annotation only; the fabric just calls put()
    from repro.cluster.rpc import MessageQueue


class ExchangeFabric:
    """Name = segment id; payload = a finished motion stream."""

    def __init__(self, queue: MessageQueue):
        self._queue = queue
        #: (query_id, slice_id, receiver) -> sender -> (rows, nbytes)
        self._inbox: Dict[
            Tuple[int, int, int], Dict[int, Tuple[Sized, int]]
        ] = {}
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

    def send(
        self,
        query_id: int,
        slice_id: int,
        sender: int,
        receiver: int,
        rows: Sized,
        nbytes: int,
    ) -> None:
        """Push one complete stream to ``receiver`` as one message."""
        self._queue.put(self, (query_id, slice_id, sender, receiver, rows, nbytes))

    def deliver(self, stream: tuple) -> None:
        """What the queue hands a stream to: its receiver's inbox."""
        query_id, slice_id, sender, receiver, rows, nbytes = stream
        self._inbox.setdefault((query_id, slice_id, receiver), {})[sender] = (
            rows,
            nbytes,
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

        Payloads come in sender-segment order — the order of delivery
        never leaks into result rows.
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
        """Drop one query's inbox entries.

        Called when one of the query's plan executions closes, gathered
        or aborted (init plans reuse slice ids, and the runtime outlives
        its statements) — other in-flight queries' streams are untouched.
        """
        for key in [k for k in self._inbox if k[0] == query_id]:
            del self._inbox[key]
