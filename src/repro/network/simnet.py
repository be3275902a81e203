"""A discrete-event, unreliable datagram network.

This is the substrate the UDP and TCP interconnects (Section 4 of the
paper) are built on: the Fig 12 benchmark and the chaos suite's
interconnect drill run them over it. (The engine's own runtime does not:
its messages ride an in-order queue, :class:`repro.cluster.rpc.
MessageQueue`.) It deliberately behaves like real IP hardware and
kernels:

* datagrams may be **dropped** (``loss_rate``),
* **duplicated** (``dup_rate``),
* **reordered** (delivery jitter makes later sends overtake earlier ones),
* and always experience latency plus serialization delay.

Endpoints register a handler per ``(host, port)``; the event loop invokes
handlers as datagrams arrive. Timers (:meth:`SimNetwork.schedule`) share
the same clock, so protocol retransmission logic interleaves with
deliveries exactly as it would under an OS scheduler.

All randomness comes from a :class:`~repro.util.DeterministicRng`, so a
given seed always produces the same loss/reorder pattern — every protocol
branch is reproducibly testable. The generator is seeded at the first
send. A datagram is one heap entry, with no callback or
:class:`TimerHandle` (nothing cancels a delivery).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import InterconnectError
from repro.util import DeterministicRng

Address = Tuple[str, int]


@dataclass(frozen=True)
class NetworkConditions:
    """Physical characteristics of the simulated fabric, fixed for a
    net's life."""

    latency: float = 100e-6
    jitter: float = 50e-6
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    #: Probability a delivered datagram arrives bit-flipped. Receivers
    #: that checksum (the UDP interconnect) drop corrupted datagrams, so
    #: corruption behaves like loss discovered one hop later.
    corrupt_rate: float = 0.0
    #: Link bandwidth in bytes/second used for serialization delay.
    bandwidth: float = 1.25e9


@dataclass
class Datagram:
    """One unreliable datagram in flight."""

    src: Address
    dst: Address
    payload: object
    size: int
    #: True when the fabric flipped bits in transit; a checksumming
    #: receiver will discard this datagram on arrival.
    corrupted: bool = False


class SimNetwork:
    """Event loop + unreliable datagram fabric.

    The loop is single-threaded and deterministic: events fire in
    (time, insertion order) sequence. A timer's heap entry is ``(time,
    seq, callback, handle)``; a datagram's is ``(time, seq, None, dst,
    payload, src, size, corrupted)``.
    """

    def __init__(self, conditions: Optional[NetworkConditions] = None, seed: int = 0):
        self.conditions = conditions or NetworkConditions()
        self._seed = seed
        self._rng: Optional[DeterministicRng] = None
        self._now = 0.0
        self._events: list = []
        self._counter = itertools.count()
        self._handlers: Dict[Address, Callable[[Datagram], None]] = {}
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> "TimerHandle":
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        handle = TimerHandle()
        heapq.heappush(
            self._events, (self._now + delay, next(self._counter), callback, handle)
        )
        return handle

    # -------------------------------------------------------------- endpoints
    def register(self, address: Address, handler: Callable[[Datagram], None]) -> None:
        """Bind a datagram handler to ``(host, port)``."""
        if address in self._handlers:
            raise InterconnectError(f"address already bound: {address}")
        self._handlers[address] = handler

    # ------------------------------------------------------------------ send
    def send(self, src: Address, dst: Address, payload: object, size: int) -> None:
        """Send one datagram; it may be lost, duplicated or reordered."""
        self.bytes_sent += size
        c = self.conditions
        rng = self._rng
        if rng is None:
            rng = self._rng = DeterministicRng(self._seed, "simnet")
        copies = 1
        if rng.chance(c.loss_rate):
            self.dropped += 1
            copies = 0
        elif rng.chance(c.dup_rate):
            self.duplicated += 1
            copies = 2
        for _ in range(copies):
            delay = c.latency + rng.random() * c.jitter + size / c.bandwidth
            corrupt = rng.chance(c.corrupt_rate)
            if corrupt:
                self.corrupted += 1
            heapq.heappush(
                self._events,
                (
                    self._now + delay,
                    next(self._counter),
                    None,
                    dst,
                    payload,
                    src,
                    size,
                    corrupt,
                ),
            )

    # ------------------------------------------------------------------- run
    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time: float = 3600.0,
        max_events: int = 50_000_000,
    ) -> float:
        """Process events until the predicate holds or the queue drains.

        Returns the simulated time at which processing stopped. Raises
        :class:`InterconnectError` if ``max_time`` elapses first — that is
        the simulation's analogue of a hung query.
        """
        processed = 0
        events = self._events
        handlers = self._handlers
        while events:
            if until is not None and until():
                return self._now
            entry = heapq.heappop(events)
            callback = entry[2]
            if callback is not None and entry[3].cancelled:
                continue
            time = entry[0]
            if time > max_time:
                raise InterconnectError(
                    f"simulation exceeded max_time={max_time}s at t={time:.6f}"
                )
            self._now = time
            if callback is not None:
                callback()
            else:
                # A datagram arrives: its port is looked up now. No
                # handler: the port is closed, and the datagram is
                # silently dropped, like real UDP.
                _time, _seq, _none, dst, payload, src, size, corrupted = entry
                handler = handlers.get(dst)
                if handler is not None:
                    self.delivered += 1
                    handler(Datagram(src, dst, payload, size, corrupted))
            processed += 1
            if processed > max_events:
                raise InterconnectError("simulation exceeded max_events")
        if until is not None and not until():
            raise InterconnectError("event queue drained before completion")
        return self._now


class TimerHandle:
    """Cancellation token returned by :meth:`SimNetwork.schedule`."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
