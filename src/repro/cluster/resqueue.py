"""Resource-queue admission control for the concurrent runtime.

HAWQ's resource queues (paper Section 2.2 / Section 4) bound how many
statements — and how much memory — may execute concurrently. This
module is the *runtime* half: the catalog's declarative
:class:`~repro.catalog.security.ResourceQueue` rows become frozen
:class:`QueueSpec`s, and a :class:`ResourceQueueManager` tracks, on the
simulated clock, which queries are running against which queue and
which are parked waiting for a slot or for memory.

Admission rules (the determinism contract):

- A query is admitted immediately iff its queue has a free statement
  slot AND the queue's in-use memory plus the query's need fits the
  queue's memory budget. A query's need is clamped to the budget, so a
  single over-sized query can still run (alone).
- A queue without a single statement slot can never admit anything, so
  it refuses the query with ``QueueLimitExceeded`` instead of parking it
  for a release that cannot come.
- Otherwise the query parks. When a running query releases, waiters are
  re-examined in ``(-priority, arrival, query_id)`` order — strictly
  head-of-line: if the front waiter still does not fit, nothing behind
  it may jump the queue. This keeps admission a pure function of the
  submission order and makes queue-wait time reproducible.
- Queue-wait (admit − submit, simulated seconds) is charged into the
  waiting query's ``cost.seconds`` by the caller; this module only
  measures it.

Everything is passive with respect to the cost model: the manager never
charges an accumulator itself — it hands admission timestamps back to
the scheduler, which translates waits into task release times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.catalog.security import QueueLimitExceeded
from repro.errors import ReproError


@dataclass(frozen=True)
class QueueSpec:
    """Immutable queue definition (mirrors the catalog row)."""

    name: str
    #: Max concurrently running statements.
    slots: int = 20
    #: Simulated bytes of query memory the queue may hand out at once.
    memory_limit: float = 8e9
    #: Higher drains first when slots free up.
    priority: int = 0


@dataclass
class QueueStats:
    """Per-queue admission accounting over one concurrent run."""

    admitted: int = 0
    parked: int = 0
    #: Total simulated seconds queries spent parked on this queue.
    wait_seconds: float = 0.0
    #: Max simultaneous waiters observed.
    max_depth: int = 0


@dataclass
class _Running:
    query_id: int
    memory: float


@dataclass
class _Waiter:
    query_id: int
    memory: float
    arrival: int
    submit_time: float
    priority: int
    on_admit: Callable[[float], None]


def specs_from_security(security) -> Dict[str, QueueSpec]:
    """Freeze the catalog's resource queues into runtime specs."""
    return {
        name: QueueSpec(
            name=name,
            slots=queue.active_statements,
            memory_limit=queue.memory_limit,
            priority=queue.priority,
        )
        for name, queue in sorted(security.queues.items())
    }


class _QueueState:
    def __init__(self, spec: QueueSpec):
        self.spec = spec
        self.running: Dict[int, _Running] = {}
        self.waiting: List[_Waiter] = []
        self.stats = QueueStats()

    @property
    def memory_used(self) -> float:
        return sum(r.memory for r in self.running.values())

    def fits(self, memory: float) -> bool:
        return (
            len(self.running) < self.spec.slots
            and self.memory_used + memory <= self.spec.memory_limit
        )


class ResourceQueueManager:
    """Admission control over named queues on the simulated clock."""

    def __init__(self, specs: Dict[str, QueueSpec], metrics=None):
        self._queues = {
            name: _QueueState(spec) for name, spec in sorted(specs.items())
        }
        self._metrics = metrics
        self._arrivals = 0
        #: query_id -> queue name, for release().
        self._owner: Dict[int, str] = {}
        #: query_id -> measured queue wait (admit − submit).
        self.waits: Dict[int, float] = {}

    # ------------------------------------------------------------- admission
    def submit(
        self,
        query_id: int,
        queue_name: str,
        memory: float,
        now: float,
        on_admit: Callable[[float], None],
        priority: Optional[int] = None,
    ) -> None:
        """Offer a query to its queue at simulated time ``now``.

        ``on_admit(admit_time)`` fires exactly once — immediately when
        the queue has room, or later from :meth:`release` when capacity
        frees up. The measured wait lands in :attr:`waits`.
        ``priority`` defaults to the queue's own; a higher value lets a
        statement drain ahead of lower-priority waiters.
        """
        state = self._queues.get(queue_name)
        if state is None:
            raise ReproError(f"unknown resource queue {queue_name!r}")
        if query_id in self._owner:
            raise ReproError(f"query {query_id} already admitted or waiting")
        if state.spec.slots < 1:
            raise QueueLimitExceeded(
                f"resource queue {queue_name!r} is at its limit of "
                f"{state.spec.slots} active statements"
            )
        memory = min(memory, state.spec.memory_limit)
        if self._metrics is not None:
            # Depth as seen at submission (parked or not): the
            # distribution of what a newly arriving statement finds in
            # front of it is the queue-pressure signal.
            self._metrics.histogram(
                "resqueue_queue_depth", queue=state.spec.name
            ).observe(len(state.waiting))
        if not state.waiting and state.fits(memory):
            self._admit(state, query_id, memory, now, now, on_admit)
            return
        state.stats.parked += 1
        state.waiting.append(
            _Waiter(
                query_id=query_id,
                memory=memory,
                arrival=self._arrivals,
                submit_time=now,
                priority=(
                    state.spec.priority if priority is None else priority
                ),
                on_admit=on_admit,
            )
        )
        self._arrivals += 1
        state.stats.max_depth = max(
            state.stats.max_depth, len(state.waiting)
        )
        if self._metrics is not None:
            self._metrics.counter(
                "resqueue_parked", queue=state.spec.name
            ).inc()
            self._metrics.gauge(
                "resqueue_waiters", queue=state.spec.name
            ).set(len(state.waiting))

    def _admit(
        self,
        state: _QueueState,
        query_id: int,
        memory: float,
        submit_time: float,
        now: float,
        on_admit: Callable[[float], None],
    ) -> None:
        state.running[query_id] = _Running(query_id=query_id, memory=memory)
        self._owner[query_id] = state.spec.name
        wait = now - submit_time
        self.waits[query_id] = wait
        state.stats.admitted += 1
        state.stats.wait_seconds += wait
        if self._metrics is not None:
            self._metrics.counter(
                "resqueue_admitted", queue=state.spec.name
            ).inc()
            # Observe every wait, including 0.0 for immediate admission:
            # the histogram's count then equals admissions, so wait-time
            # percentiles cover the whole workload, not only the parked
            # statements.
            self._metrics.histogram(
                "resqueue_wait_seconds", queue=state.spec.name
            ).observe(wait)
            self._metrics.gauge(
                "resqueue_slots_in_use", queue=state.spec.name
            ).set(len(state.running))
        on_admit(now)

    # --------------------------------------------------------------- release
    def release(self, query_id: int, now: float) -> None:
        """A running query finished: free its slot/memory and drain
        waiters (head-of-line, priority first) that now fit."""
        queue_name = self._owner.pop(query_id, None)
        if queue_name is None:
            return
        state = self._queues[queue_name]
        state.running.pop(query_id, None)
        while state.waiting:
            state.waiting.sort(
                key=lambda w: (-w.priority, w.arrival, w.query_id)
            )
            head = state.waiting[0]
            if not state.fits(head.memory):
                break  # head-of-line blocking: nobody jumps the queue
            state.waiting.pop(0)
            self._admit(
                state, head.query_id, head.memory,
                head.submit_time, now, head.on_admit,
            )
        if self._metrics is not None:
            self._metrics.gauge(
                "resqueue_waiters", queue=state.spec.name
            ).set(len(state.waiting))
            self._metrics.gauge(
                "resqueue_slots_in_use", queue=state.spec.name
            ).set(len(state.running))

    # ---------------------------------------------------------------- cancel
    def cancel(self, query_id: int, now: float) -> bool:
        """Withdraw a query from admission control.

        A parked waiter is removed without ever firing its ``on_admit``
        (cancel-while-queued); a running query's slot is released as if
        it had finished, which may drain waiters behind it. Returns True
        when the query was known to any queue. Never raises: cancelling
        an unknown id is a silent no-op, mirroring
        ``pg_cancel_backend``.
        """
        if query_id in self._owner:
            self.release(query_id, now)
            return True
        for name, state in sorted(self._queues.items()):
            for index, waiter in enumerate(state.waiting):
                if waiter.query_id != query_id:
                    continue
                state.waiting.pop(index)
                if self._metrics is not None:
                    self._metrics.counter(
                        "resqueue_cancelled", queue=state.spec.name
                    ).inc()
                    self._metrics.gauge(
                        "resqueue_waiters", queue=state.spec.name
                    ).set(len(state.waiting))
                return True
        return False

    # ------------------------------------------------------------ inspection
    def depth(self, queue_name: str) -> int:
        return len(self._queues[queue_name].waiting)

    def running(self, queue_name: str) -> int:
        return len(self._queues[queue_name].running)

    def stats(self) -> Dict[str, QueueStats]:
        return {
            name: state.stats for name, state in sorted(self._queues.items())
        }

    def occupancy(self) -> List[tuple]:
        """Passive per-queue occupancy rows for ``pg_resqueue_status``:
        ``(queue, slots, slots_in_use, memory_limit, memory_used,
        waiters, head_of_line_query_id)``.

        Head-of-line is the waiter that will be examined first on the
        next release — highest priority, then earliest arrival — or
        None when nothing is parked. Reads only; safe mid-run.
        """
        out: List[tuple] = []
        for name, state in sorted(self._queues.items()):
            head = None
            if state.waiting:
                front = min(
                    state.waiting,
                    key=lambda w: (-w.priority, w.arrival, w.query_id),
                )
                head = front.query_id
            out.append(
                (
                    name,
                    state.spec.slots,
                    len(state.running),
                    float(state.spec.memory_limit),
                    float(state.memory_used),
                    len(state.waiting),
                    head,
                )
            )
        return out
