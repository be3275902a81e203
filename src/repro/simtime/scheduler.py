"""Event-driven task scheduler: query wall time as a critical path.

The distributed runtime models one query as a DAG of *(slice, segment)*
tasks. Each task has a duration — the simulated seconds its
:class:`~repro.simtime.CostAccumulator` charged while the worker executed
the slice — and a constraint connects a motion's senders to its receivers,
carrying the interconnect latency (plus a materialization penalty when
pipelining is disabled). A task starts when all of its incoming
constraints have resolved, and the query's wall time is the finish time
of the last task — the **critical path** through the task DAG, not a
per-slice max-then-sum fold. :meth:`TaskGraph.replay` computes one
query's stand-alone schedule in one pass; :class:`EventScheduler` runs
the discrete-event clock the statement loop shares.

Concurrency (PR 7) extends the same clock to *many* in-flight queries:
a task may declare a **slot** — a shared one-task-at-a-time resource,
in practice the executing segment — and tasks from different queries
contend for it. A ready task whose slot is busy parks until the slot
frees; among parked tasks the earliest ``(ready time, key)`` wins, a
stable tie-break that makes every interleaving a pure function of the
submitted workload. Tasks and edges may also be added *while the clock
runs* (see :meth:`EventScheduler.watch`), which is how a closed-loop
stream submits its next query the instant the previous one finishes.

Durations are charged by the cost model, so the event clock here only
*composes* them; it never invents time of its own.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError

#: One task is one plan slice executing on one segment (QD = -1).
TaskKey = Tuple[int, int]

#: Event ranks: at equal timestamps every finish is processed before any
#: slot arrival, so a slot freed at ``t`` is visible to a task whose
#: ready time is exactly ``t``; timers fire last, so a timer at ``t``
#: observes every task state change that happened at ``t``.
_FINISH = 0
_ARRIVAL = 1
_TIMER = 2


def _disarmed(_now: float) -> None:
    """Replacement callback for watchers disarmed by cancellation."""


@dataclass
class TaskSchedule:
    """The scheduler's output: when every task ran, and what bound it."""

    start: Dict[TaskKey, float]
    finish: Dict[TaskKey, float]
    makespan: float
    #: Chain of tasks, first to last, whose durations + edge delays sum
    #: to ``makespan`` — the query's critical path.
    critical_path: List[TaskKey]
    #: Per-task seconds spent parked on a busy slot (0.0 for tasks with
    #: no slot, or whose slot was free at their ready time). Empty from
    #: :meth:`TaskGraph.replay`, which has no slots.
    waits: Dict[TaskKey, float] = field(default_factory=dict)


@dataclass
class _Task:
    key: TaskKey
    duration: float
    release: float
    slot: Optional[object] = None


#: One constraint: every consumer task waits for every sender task's
#: finish plus ``delay``. A motion is one (the consumer's MotionRecv
#: drains the whole gang); a same-segment edge is one with one sender
#: and one consumer.
Constraint = Tuple[List[TaskKey], List[TaskKey], float]


@dataclass
class TaskGraph:
    """One executed query's task DAG, portable across schedulers.

    Composed wave by wave by the distributed runtime as each wave
    settles: tasks carry gang-mean durations, and ``constraints`` the
    motions (one per child slice, not one edge per sender × receiver
    pair) and the same-segment serialization edges. The statement loop
    adds each wave's share to its live clock, and gather replays the
    whole graph alone (:meth:`replay`).

    Constraints take effect in list order, which decides ties: wave by
    wave, and into each wave its motions first, then its edges.
    Expanding every constraint to its sender-major pair edges in that
    order gives the graph an :class:`EventScheduler` runs to the same
    schedule.
    """

    tasks: List[Tuple[TaskKey, float]]
    constraints: List[Constraint] = field(default_factory=list)

    def segments(self) -> List[int]:
        """Every real segment this query's slices touch (QD excluded)."""
        return sorted({seg for (_sid, seg), _d in self.tasks if seg >= 0})

    def replay(self) -> TaskSchedule:
        """This graph's stand-alone schedule, in one slotless pass.

        Every task starts when its last constraint resolves, at its
        latest arrival: a sender's finish plus the constraint's delay.
        Finish events are processed in ``(finish, start order)`` order,
        as on the event clock, and a task's deciding predecessor is the
        first processed one that reaches its latest arrival. A
        constraint resolves at its last sender's event, carrying its own
        first sender at the maximum; it defers to an earlier-processed
        candidate with the same arrival. No slots, timers or watchers:
        :class:`EventScheduler` is for what needs them.
        """
        duration: Dict[TaskKey, float] = dict(self.tasks)
        pending = dict.fromkeys(duration, 0)
        out: Dict[TaskKey, List[List[Any]]] = {key: [] for key in duration}
        try:
            for senders, consumers, delay in self.constraints:
                # [senders left, best arrival, best sender, consumers, delay]
                state: List[Any] = [len(senders), None, None, consumers, delay]
                for sender in senders:
                    out[sender].append(state)
                for consumer in consumers:
                    pending[consumer] += 1
        except KeyError as exc:
            raise ReproError(f"task graph references unknown task {exc}") from None
        ready = dict.fromkeys(duration, 0.0)
        deciding: Dict[TaskKey, Optional[TaskKey]] = dict.fromkeys(duration)
        start: Dict[TaskKey, float] = {}
        finish: Dict[TaskKey, float] = {}
        rank: Dict[TaskKey, int] = {}
        heap: List[Tuple[float, int, TaskKey]] = []
        seq = itertools.count()
        for key, count in pending.items():
            if count == 0:
                start[key] = at = ready[key]
                heapq.heappush(heap, (at + duration[key], next(seq), key))
        while heap:
            now, _seq, key = heapq.heappop(heap)
            finish[key] = now
            rank[key] = len(rank)
            for state in out[key]:
                arrival = now + state[4]
                state[0] -= 1
                if state[1] is None or arrival > state[1]:
                    state[1] = arrival
                    state[2] = key
                if state[0]:
                    continue
                best, sender = state[1], state[2]
                for consumer in state[3]:
                    ahead = ready[consumer]
                    if best > ahead or (
                        best == ahead
                        and deciding[consumer] is not None
                        and rank[deciding[consumer]] > rank[sender]
                    ):
                        ready[consumer] = best
                        deciding[consumer] = sender
                    pending[consumer] -= 1
                    if not pending[consumer]:
                        start[consumer] = at = ready[consumer]
                        heapq.heappush(
                            heap, (at + duration[consumer], next(seq), consumer)
                        )
        if len(finish) != len(duration):
            stuck = sorted(k for k in duration if k not in finish)
            raise ReproError(
                f"scheduler deadlock: cyclic dependencies among {stuck[:4]}"
            )
        return _schedule(start, finish, deciding, {})


def _schedule(
    start: Dict[TaskKey, float],
    finish: Dict[TaskKey, float],
    deciding: Dict[TaskKey, Optional[TaskKey]],
    waits: Dict[TaskKey, float],
) -> TaskSchedule:
    """The last task to finish (ties: the largest key) and the chain of
    deciding predecessors that leads to it."""
    if not finish:
        return TaskSchedule(start={}, finish={}, makespan=0.0, critical_path=[])
    last = max(finish, key=lambda k: (finish[k], k))
    path: List[TaskKey] = []
    cursor: Optional[TaskKey] = last
    while cursor is not None:
        path.append(cursor)
        cursor = deciding[cursor]
    path.reverse()
    return TaskSchedule(
        start=start,
        finish=finish,
        makespan=finish[last],
        critical_path=path,
        waits=waits,
    )


class EventScheduler:
    """Builds a task DAG, then replays it on a discrete-event clock.

    Deterministic: events fire in (time, finish-before-arrival,
    insertion order); parked tasks acquire a freed slot in stable
    ``(ready time, key)`` order; and tie-broken choices (the critical
    path's deciding predecessor) follow processing order, which is
    itself deterministic.
    """

    def __init__(self) -> None:
        self._tasks: Dict[TaskKey, _Task] = {}
        self._out: Dict[TaskKey, List[Tuple[TaskKey, float]]] = {}
        self._indegree: Dict[TaskKey, int] = {}
        #: task key -> the ``[pending key set, callback]`` pairs waiting on
        #: it (see :meth:`watch`); a pair is dropped as it fires.
        self._watch_index: Dict[TaskKey, List[list]] = {}
        self._running = False
        # Run state (only meaningful while _running).
        self._now = 0.0
        self._ready: Dict[TaskKey, float] = {}
        self._deciding: Dict[TaskKey, Optional[TaskKey]] = {}
        self._start: Dict[TaskKey, float] = {}
        self._finish: Dict[TaskKey, float] = {}
        self._waits: Dict[TaskKey, float] = {}
        self._indeg: Dict[TaskKey, int] = {}
        self._heap: List[Tuple[float, int, int, TaskKey]] = []
        self._counter = itertools.count()
        self._busy: Dict[object, Optional[TaskKey]] = {}
        self._parked: Dict[object, List[TaskKey]] = {}
        self._deferred: List[TaskKey] = []
        self._cancelled: set = set()
        self._timers: Dict[int, Callable[[float], None]] = {}
        self._timer_ids = itertools.count()
        self._pending_timers: List[Tuple[float, Callable[[float], None]]] = []

    # ------------------------------------------------------------ building
    def add_task(
        self,
        key: TaskKey,
        duration: float,
        release: float = 0.0,
        slot: Optional[object] = None,
    ) -> None:
        """Register a task; ``release`` is its earliest possible start.

        ``slot`` names a shared one-task-at-a-time resource (a segment):
        tasks sharing a slot never overlap, regardless of which query
        they belong to. Tasks may be added while the clock runs (from a
        :meth:`watch` callback); a mid-run release in the past is
        clamped to the current simulated time.
        """
        if key in self._tasks:
            raise ReproError(f"scheduler task {key} added twice")
        if duration < 0 or release < 0:
            raise ReproError(f"scheduler task {key} has negative time")
        if self._running:
            release = max(release, self._now)
        task = _Task(key=key, duration=duration, release=release, slot=slot)
        self._tasks[key] = task
        self._out[key] = []
        self._indegree[key] = 0
        if self._running:
            self._ready[key] = release
            self._deciding[key] = None
            self._indeg[key] = 0
            # Launch is deferred until the current event (and the
            # callback adding this task's edges) fully settles.
            self._deferred.append(key)

    def add_edge(self, src: TaskKey, dst: TaskKey, delay: float = 0.0) -> None:
        """``dst`` may not start before ``src`` finishes + ``delay``.

        Parallel edges are allowed (a barrier edge plus a data-stream
        edge between the same pair); the later arrival wins.
        """
        if src not in self._tasks or dst not in self._tasks:
            raise ReproError(f"scheduler edge {src}->{dst} references unknown task")
        if delay < 0:
            raise ReproError(f"scheduler edge {src}->{dst} has negative delay")
        if self._running and dst in self._start:
            raise ReproError(
                f"scheduler edge {src}->{dst} added after its endpoint ran"
            )
        if self._running and src in self._finish:
            # Late edge from an already-finished source (event-driven
            # wave dispatch wires the next wave at the previous wave's
            # completion event): apply its exact arrival time to the
            # destination directly — no indegree, the constraint is
            # already resolved.
            arrival = self._finish[src] + delay
            if arrival > self._ready[dst]:
                self._ready[dst] = arrival
                self._deciding[dst] = src
            return
        self._out[src].append((dst, delay))
        self._indegree[dst] += 1
        if self._running:
            self._indeg[dst] += 1

    def add_barrier(
        self, senders: List[TaskKey], consumers: List[TaskKey], delay: float = 0.0
    ) -> None:
        """Every consumer waits for every sender's finish + ``delay``.

        Mid-run only, once every sender has finished (the statement loop
        wires a wave at the previous wave's completion), in O(senders +
        consumers): the first sender reaching the latest arrival is the
        one the sender-major pair edges would leave deciding each
        consumer.
        """
        if not self._running:
            raise ReproError("scheduler add_barrier outside run()")
        if delay < 0:
            raise ReproError(f"scheduler barrier into {consumers} has negative delay")
        finish = self._finish
        best: Optional[TaskKey] = None
        latest = 0.0
        for src in senders:
            if src not in finish:
                raise ReproError(f"scheduler barrier sender {src} has not finished")
            arrival = finish[src] + delay
            if best is None or arrival > latest:
                best, latest = src, arrival
        for dst in consumers:
            if dst not in self._tasks or dst in self._start:
                raise ReproError(f"scheduler barrier {best}->{dst} cannot be added")
            if latest > self._ready[dst]:
                self._ready[dst] = latest
                self._deciding[dst] = best

    def watch(
        self, keys: Iterable[TaskKey], callback: Callable[[float], None]
    ) -> None:
        """Invoke ``callback(finish_time)`` once every key has finished.

        The callback fires while the clock runs and may add tasks,
        edges, and further watchers — the mechanism closed-loop streams
        use to submit their next query at the previous one's completion.
        """
        pending = set()
        for key in keys:
            if key not in self._tasks:
                raise ReproError(f"scheduler watch references unknown task {key}")
            if key not in self._finish:
                pending.add(key)
        if not pending:
            callback(self._now)
            return
        entry = [pending, callback]
        for key in sorted(pending):
            self._watch_index.setdefault(key, []).append(entry)

    def at(self, time: float, callback: Callable[[float], None]) -> None:
        """Invoke ``callback(now)`` at an absolute simulated time.

        Timers are first-class scheduler events — admission arrivals,
        statement timeouts, and chaos injections all fire from them.
        They rank after finishes and arrivals at the same timestamp, so
        a timer observes every task-state change of its instant. A
        mid-run timer in the past is clamped to the current time.
        """
        if time < 0:
            raise ReproError(f"scheduler timer at negative time {time}")
        if not self._running:
            self._pending_timers.append((time, callback))
            return
        self._schedule_timer(max(time, self._now), callback)

    def _schedule_timer(
        self, time: float, callback: Callable[[float], None]
    ) -> None:
        idx = next(self._timer_ids)
        self._timers[idx] = callback
        heapq.heappush(
            self._heap, (time, _TIMER, next(self._counter), ("__timer__", idx))
        )

    def cancel_tasks(self, keys: Iterable[TaskKey]) -> List[TaskKey]:
        """Truncate unfinished tasks at the current simulated time.

        Mid-run only. Each cancelled task is recorded as finishing
        *now* (a running task's remaining duration is forfeited; a task
        that never started gets a zero-length window), its held slot is
        freed — waking the best parked waiter, exactly as a natural
        completion would — and any watcher observing it is disarmed, so
        the cancelled query's own continuation callbacks never fire.
        Returns the keys actually cancelled.
        """
        if not self._running:
            raise ReproError("scheduler cancel_tasks outside run()")
        cancelled: List[TaskKey] = []
        for key in sorted(keys):
            if key not in self._tasks or key in self._finish:
                continue
            cancelled.append(key)
            self._cancelled.add(key)
            if key not in self._start:
                self._start[key] = self._now
                self._waits[key] = 0.0
            self._finish[key] = self._now
            for entry in self._watch_index.pop(key, []):
                entry[0].clear()
                entry[1] = _disarmed  # other keys' completions: no-op
            slot = self._tasks[key].slot
            if slot is None:
                continue
            parked = self._parked.get(slot)
            if parked and key in parked:
                parked.remove(key)
            if self._busy.get(slot) is key:
                self._busy[slot] = None
                if parked:
                    winner = min(parked, key=lambda k: (self._ready[k], k))
                    parked.remove(winner)
                    self._start_task(winner, self._now)
        return cancelled

    @property
    def now(self) -> float:
        """Current simulated time (meaningful inside watch callbacks)."""
        return self._now

    @property
    def running(self) -> bool:
        """True while :meth:`run` is replaying events — the window in
        which mid-run APIs (:meth:`cancel_tasks`) are legal."""
        return self._running

    # ----------------------------------------------------------- telemetry
    def finished_count(self, keys: Iterable[TaskKey]) -> int:
        """How many of ``keys`` have finished (passive, mid-run safe)."""
        return sum(1 for key in keys if key in self._finish)

    def slot_usage(self) -> Dict[object, Tuple[int, float]]:
        """Per-slot occupancy so far: ``slot -> (tasks started, busy
        seconds)``.

        Busy time is the summed duration of finished tasks plus the
        elapsed portion of a still-running task at the current clock.
        Slotless tasks (master-side synthetics) are excluded. Purely
        passive — reads the timeline maps, mutates nothing — so the
        pg_stat_segments view can sample it mid-run.
        """
        out: Dict[object, List] = {}
        for key in sorted(self._start):
            task = self._tasks.get(key)
            if task is None or task.slot is None:
                continue
            entry = out.setdefault(task.slot, [0, 0.0])
            entry[0] += 1
            end = self._finish.get(key, self._now)
            entry[1] += end - self._start[key]
        return {
            slot: (count, busy)
            for slot, (count, busy) in sorted(out.items())
        }

    # ------------------------------------------------------------- running
    def run(self) -> TaskSchedule:
        """Replay the DAG; raises :class:`ReproError` on a dependency cycle."""
        self._indeg = dict(self._indegree)
        self._ready = {key: task.release for key, task in self._tasks.items()}
        self._deciding = {key: None for key in self._tasks}
        self._start = {}
        self._finish = {}
        self._waits = {}
        self._counter = itertools.count()
        self._heap = []
        self._busy = {}
        self._parked = {}
        self._deferred = []
        self._cancelled = set()
        self._timers = {}
        self._now = 0.0
        self._running = True
        try:
            for time, callback in self._pending_timers:
                self._schedule_timer(time, callback)
            self._pending_timers = []
            for key in list(self._tasks):
                if self._indeg[key] == 0:
                    self._release_task(key)
            while self._heap:
                now, rank, _seq, key = heapq.heappop(self._heap)
                self._now = now
                if rank == _TIMER:
                    self._timers.pop(key[1])(now)
                    self._flush_deferred()
                    continue
                if key in self._cancelled:
                    continue  # stale event of a cancelled task
                if rank == _FINISH:
                    self._complete(key, now)
                else:
                    self._arrive(key, now)
                self._flush_deferred()
        finally:
            self._running = False
        if len(self._finish) != len(self._tasks):
            stuck = sorted(k for k in self._tasks if k not in self._finish)
            raise ReproError(
                f"scheduler deadlock: cyclic dependencies among {stuck[:4]}"
            )
        return _schedule(self._start, self._finish, self._deciding, self._waits)

    # ----------------------------------------------------------- internals
    def _release_task(self, key: TaskKey) -> None:
        """All dependencies satisfied: start now, or contend for the slot."""
        slot = self._tasks[key].slot
        if slot is None:
            self._start_task(key, self._ready[key])
            return
        heapq.heappush(
            self._heap, (self._ready[key], _ARRIVAL, next(self._counter), key)
        )

    def _start_task(
        self, key: TaskKey, at: float, blocker: Optional[TaskKey] = None
    ) -> None:
        task = self._tasks[key]
        self._start[key] = at
        self._waits[key] = at - self._ready[key]
        if blocker is not None and at > self._ready[key]:
            self._deciding[key] = blocker
        if task.slot is not None:
            self._busy[task.slot] = key
        heapq.heappush(
            self._heap, (at + task.duration, _FINISH, next(self._counter), key)
        )

    def _arrive(self, key: TaskKey, now: float) -> None:
        """A slotted task's ready time came: take the slot or park."""
        if now < self._ready[key]:
            # A late finished-source edge pushed the ready time past
            # this (stale) arrival; re-arrive at the new ready time.
            heapq.heappush(
                self._heap,
                (self._ready[key], _ARRIVAL, next(self._counter), key),
            )
            return
        slot = self._tasks[key].slot
        if self._busy.get(slot) is None:
            self._start_task(key, now)
        else:
            self._parked.setdefault(slot, []).append(key)

    def _complete(self, key: TaskKey, now: float) -> None:
        self._finish[key] = now
        for dst, delay in self._out[key]:
            if dst in self._cancelled:
                continue
            arrival = now + delay
            if arrival > self._ready[dst]:
                self._ready[dst] = arrival
                self._deciding[dst] = key
            self._indeg[dst] -= 1
            if self._indeg[dst] == 0:
                self._release_task(dst)
        for entry in self._watch_index.pop(key, []):
            entry[0].discard(key)
            if not entry[0]:
                entry[1](now)
        slot = self._tasks[key].slot
        if slot is not None:
            self._busy[slot] = None
            parked = self._parked.get(slot)
            if parked:
                # Stable tie-break: earliest ready time, then key order.
                winner = min(parked, key=lambda k: (self._ready[k], k))
                parked.remove(winner)
                self._start_task(winner, now, blocker=key)

    def _flush_deferred(self) -> None:
        """Launch mid-run additions once the triggering event settled
        (the adding callback may still have been wiring their edges)."""
        if not self._deferred:
            return
        added, self._deferred = self._deferred, []
        for key in added:
            if self._indeg[key] == 0 and key not in self._start:
                self._release_task(key)
