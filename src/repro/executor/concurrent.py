"""Single-pass interleaved multi-query execution on the event clock.

Earlier revisions modeled concurrency in two phases — execute every
statement serially, capture its task DAG, then *replay* the captured
graphs on a shared scheduler. This module retires that capture/replay
split: statements are now admitted, dispatched, executed, retried,
cancelled, and gathered **while the event clock runs**, with many
queries in flight on one shared :class:`~repro.executor.runner.
DistributedRuntime`.

The lifecycle of one statement, entirely event-driven:

1. **Submit.** A closed-loop stream submits its next statement the
   instant the previous one settles (a scheduler ``watch`` callback).
   :meth:`~repro.engine.Session.prepare_select` runs the front half —
   parse, analyze, lock, plan, allocate the query id and trace — and
   the statement is offered to its
   :class:`~repro.cluster.resqueue.ResourceQueueManager` queue.
2. **Admit.** When the queue has a slot (immediately, or later from
   another query's release event), wave 0 is dispatched on the shared
   runtime: the segment workers execute the slices *at event time*,
   and their gang-mean durations become scheduler tasks occupying
   per-segment slots. Motion streams become scheduler-visible edges.
3. **Wave barrier.** When every task of wave *w* finishes on the
   clock, a watch callback dispatches wave *w+1* — the same barrier
   the serial driver's per-wave ``net.run()`` imposes, so a lone
   query's timeline composes to its serial makespan exactly.
4. **Settle.** The last wave's completion gathers rows, commits the
   statement's transaction, and releases the queue slot — which may
   admit parked waiters in the same event.

Failures re-enter the loop as events too: a ``SegmentDown``/
``HdfsError`` aborts the attempt, backs off on the simulated clock
(doubling, exactly like the serial restart loop), revives dead worker
endpoints, and re-begins dispatch — attempt-namespaced task keys keep
retries from colliding with the failed attempt's history.
Cancellation (:meth:`~repro.engine.Session.cancel`, or the
``statement_timeout`` GUC armed as a timer at submit time) aborts the
in-flight dispatch with a clean query-tagged ABORT broadcast,
truncates the query's live scheduler tasks, and withdraws it from
admission — a parked statement is cancelled without ever taking a
slot. A cancelled statement settles as an error outcome; it never
fails the batch.

Cost accounting contract (unchanged, now preserved live): a query's
**charged** cost under concurrency is exactly its serial cost plus its
measured queue wait (``charged_seconds == serial_seconds +
queue_wait``, float-exact). Slot contention shows up in *latency* (and
the batch makespan), never in the charged cost — a parked task delays
the query, it does not make the query do more work. The exactness
hangs on :meth:`~repro.executor.runner.QueryDispatch.
predicted_overhead`: wave-0 tasks release at admit time plus the
master overhead the dispatch *will* charge, so an uncontended query
finishes at ``admit + serial_seconds`` on the shared clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.resqueue import (
    QueueStats,
    ResourceQueueManager,
    specs_from_security,
)
from repro.cluster.worker import SegmentWorker
from repro.errors import (
    ClusterError,
    ExecutorError,
    HdfsError,
    QueryCanceled,
    QueryRetriesExhausted,
    ReproError,
    SegmentDown,
)
from repro.obs.trace import TraceRouter
from repro.simtime.scheduler import EventScheduler, TaskGraph

#: Retry attempts namespace the slice id inside a task key —
#: ``(query_id, attempt * STRIDE + slice_id, segment)`` — so a retried
#: wave never collides with the failed attempt's finished tasks while
#: keys stay homogeneous int 3-tuples (stable tie-breaks).
_ATTEMPT_STRIDE = 4096


@dataclass
class QueryOutcome:
    """One statement's fate on the shared timeline."""

    stream: int
    index: int
    sql: str
    query_id: int = 0
    rows: Optional[List[tuple]] = None
    error: Optional[str] = None
    #: The statement's executed (slice, segment) task DAG.
    task_graph: Optional[TaskGraph] = None
    #: The statement's serially-charged ``cost.seconds``.
    serial_seconds: float = 0.0
    segments: List[int] = field(default_factory=list)
    queue: str = "pg_default"
    memory: float = 0.0
    #: Timeline (simulated seconds on the shared clock).
    submit: float = 0.0
    admit: float = 0.0
    finish: float = 0.0
    #: admit − submit: simulated seconds parked in the resource queue.
    queue_wait: float = 0.0
    #: Seconds this query's tasks spent parked on busy segment slots.
    slot_wait: float = 0.0
    #: serial_seconds + queue_wait (the accounting contract).
    charged_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        """Client-observed latency: submission to last task finish."""
        return self.finish - self.submit


@dataclass
class BatchResult:
    """The interleaved run: outcomes plus batch-level throughput facts."""

    outcomes: List[QueryOutcome]
    #: Finish time of the last query on the shared clock.
    makespan: float
    queue_stats: Dict[str, QueueStats]

    @property
    def qps(self) -> float:
        done = sum(1 for o in self.outcomes if o.ok)
        return done / self.makespan if self.makespan > 0 else 0.0

    def latencies(self) -> List[float]:
        return sorted(o.latency for o in self.outcomes if o.ok)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over successful-query latencies."""
        return _nearest_rank(self.latencies(), p)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def queue_waits(self) -> List[float]:
        """Sorted per-statement queue waits (every settled statement
        that went through admission, including zero waits)."""
        return sorted(o.queue_wait for o in self.outcomes)

    def wait_percentile(self, p: float) -> float:
        """Nearest-rank percentile over queue-wait times."""
        return _nearest_rank(self.queue_waits(), p)

    def rows(self, stream: int, index: int) -> Optional[List[tuple]]:
        for outcome in self.outcomes:
            if outcome.stream == stream and outcome.index == index:
                return outcome.rows
        raise ReproError(f"no outcome for stream {stream} statement {index}")


def _nearest_rank(ordered: List[float], p: float) -> float:
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(p * len(ordered))))
    return ordered[rank]


@dataclass
class _Statement:
    """Driver-side state of one in-flight SELECT."""

    outcome: QueryOutcome
    session: object
    prepared: object
    dispatch: object = None
    #: 1-based attempt number (namespaces scheduler task keys).
    attempt: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    #: Release base of the current attempt: admit/retry time plus the
    #: dispatch's predicted master overhead.
    base: float = 0.0
    #: Every scheduler task key this statement created (all attempts).
    keys: List[Tuple[int, int, int]] = field(default_factory=list)
    admitted: bool = False
    settled: bool = False


class ConcurrentRunner:
    """Runs N closed-loop statement streams against one engine, single
    pass, on one shared runtime and event scheduler."""

    def __init__(
        self,
        engine,
        streams: List[List[str]],
        role: str = "gpadmin",
        queues: Optional[Dict[int, str]] = None,
        trace: bool = False,
        allow_failures: bool = False,
        before_query: Optional[Callable[[int, int], None]] = None,
        detsan=None,
        admission_probe: Optional[Callable[[int, int], None]] = None,
        cancel_at: Optional[Dict[Tuple[int, int], float]] = None,
    ):
        self.engine = engine
        self.streams = streams
        self.queues = dict(queues or {})
        self.allow_failures = allow_failures
        self.before_query = before_query
        #: Called with ``(stream, index)`` when a statement parks in its
        #: resource queue instead of admitting immediately.
        self.admission_probe = admission_probe
        #: ``(stream, index) -> simulated time``: arm a cancel request
        #: for that statement at an absolute clock time (tests/chaos).
        self.cancel_at = dict(cancel_at or {})
        #: Optional :class:`repro.sanitize.DetSan`: when set, the run is
        #: instrumented end to end — engine caches are guarded, the
        #: shared scheduler/resqueue structures are guarded, and every
        #: event executes inside its query's sanitizer scope.
        self.detsan = detsan
        #: One session per stream — each stream is its own client.
        self.sessions = []
        for stream_id in range(len(streams)):
            session = engine.connect(role)
            if trace:
                session.trace_enabled = True
            queue_name = self.queues.get(stream_id)
            if queue_name:
                session.execute(f"SET resource_queue = {queue_name}")
            self.sessions.append(session)
        # Run-scoped shared infrastructure (built in _run_batch).
        self.runtime = None
        self.scheduler: Optional[EventScheduler] = None
        self.manager: Optional[ResourceQueueManager] = None
        self.router: Optional[TraceRouter] = None
        self._outcomes: List[QueryOutcome] = []
        self._by_qid: Dict[int, _Statement] = {}
        #: Synthetic ids: admission ids for non-SELECT statements
        #: (negative, never colliding with engine query ids) and the
        #: third element of slotless synthetic task keys.
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------- run
    def run(self) -> BatchResult:
        if self.detsan is None:
            return self._run_batch()
        self.detsan.install_engine(self.engine)
        try:
            return self._run_batch()
        finally:
            self.detsan.uninstall_engine(self.engine)

    def _run_batch(self) -> BatchResult:
        engine = self.engine
        self.runtime = runtime = engine.build_runtime()
        self.scheduler = scheduler = EventScheduler()
        scheduler.detsan = self.detsan
        self.manager = ResourceQueueManager(
            specs_from_security(engine.security),
            metrics=engine.metrics,
            detsan=self.detsan,
        )
        # One bus, many traces: the router demultiplexes every control
        # message onto the query trace its query_id names.
        self.router = TraceRouter()
        runtime.bus.trace = self.router
        runtime.exchange.trace = self.router
        if self.detsan is not None:
            runtime._inflight = self.detsan.guard_dict(
                runtime._inflight, "DistributedRuntime._inflight"
            )
            runtime.exchange._inbox = self.detsan.guard_dict(
                runtime.exchange._inbox, "ExchangeFabric._inbox"
            )
        self._outcomes = []
        self._by_qid = {}
        previous_notify = engine._cancel_notify
        previous_runtime = engine._active_runtime
        engine._cancel_notify = self._on_cancel
        engine._active_runtime = runtime
        # Lend the live registries (in-flight statements, queue manager,
        # scheduler timelines) to the telemetry facade for the duration
        # of the batch: system-view scans read them mid-schedule.
        engine.telemetry.attach_batch(self)
        try:
            for stream_id in range(len(self.streams)):
                if self.streams[stream_id]:
                    self._submit(stream_id, 0)
            schedule = scheduler.run()
        finally:
            engine.telemetry.detach_batch(self)
            engine._cancel_notify = previous_notify
            engine._active_runtime = previous_runtime
            # The batch's shared process group ends here.
            runtime.close()
            engine.metrics.counter(
                "datagrams_delivered", mode=engine.interconnect
            ).inc(runtime.net.delivered)
            if runtime.net.dropped:
                engine.metrics.counter(
                    "datagrams_dropped", mode=engine.interconnect
                ).inc(runtime.net.dropped)
        for outcome in self._outcomes:
            outcome.slot_wait = sum(
                wait
                for key, wait in sorted(schedule.waits.items())
                if key[0] == outcome.query_id
            )
        return BatchResult(
            outcomes=self._outcomes,
            makespan=schedule.makespan,
            queue_stats=self.manager.stats(),
        )

    def _scoped(self, query_id: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` inside the statement's sanitizer scope.

        Event callbacks fired by *this* statement's own tasks are scoped
        by the scheduler already; this covers the entry points that are
        not — pre-run submission, retry-backoff timers, and cancel
        requests — so every guarded mutation stays attributed."""
        if self.detsan is None:
            fn()
            return
        with self.detsan.scope(query_id):
            fn()

    # ---------------------------------------------------------------- submit
    def _submit(self, stream_id: int, index: int) -> None:
        """Submit one statement: prepare it and offer it to its queue.

        Runs at event time — from a stream's previous completion event,
        or pre-run for stream heads (submit time 0).
        """
        engine = self.engine
        session = self.sessions[stream_id]
        sql = self.streams[stream_id][index]
        outcome = QueryOutcome(
            stream=stream_id,
            index=index,
            sql=sql,
            queue=self._queue_name(stream_id),
        )
        outcome.submit = self.scheduler.now
        outcome.memory = min(
            engine.work_mem,
            engine.security.queues[outcome.queue].memory_limit,
        )
        self._outcomes.append(outcome)
        if self.before_query is not None:
            self.before_query(stream_id, index)
        try:
            prepared = session.prepare_select(sql)
        except ClusterError as exc:
            if not self.allow_failures:
                raise
            # The statement died before dispatch (planning against a
            # dead master, chaos mid-parse): it bypasses admission and
            # burns only its setup penalty on the timeline.
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.query_id = self._last_query_id(session)
            outcome.serial_seconds = engine.cost_model.query_setup
            self._scoped(
                outcome.query_id,
                lambda: self._occupy(
                    outcome.query_id, outcome.serial_seconds,
                    lambda t, o=outcome: self._settle(o, t),
                ),
            )
            return
        if prepared is None:
            self._submit_other(session, outcome)
            return
        outcome.query_id = prepared.query_id
        outcome.memory = prepared.memory
        state = _Statement(outcome=outcome, session=session, prepared=prepared)
        self._by_qid[prepared.query_id] = state
        if prepared.trace is not None:
            self.router.register(prepared.query_id, prepared.trace)
        if prepared.statement_timeout > 0:
            # statement_timeout spans the whole statement, queue wait
            # included — the timer arms at submit, exactly like a
            # client-side deadline.
            self.scheduler.at(
                outcome.submit + prepared.statement_timeout,
                lambda now, s=state, t=prepared.statement_timeout:
                    self._timeout(s, t),
            )
        deadline = self.cancel_at.get((stream_id, index))
        if deadline is not None:
            self.scheduler.at(
                deadline,
                lambda now, qid=prepared.query_id: engine.cancel_query(qid),
            )
        self._scoped(
            prepared.query_id,
            lambda: self.manager.submit(
                prepared.query_id,
                prepared.queue_name,
                prepared.memory,
                outcome.submit,
                lambda admit, s=state: self._on_admit(s, admit),
            ),
        )
        if not state.admitted and self.admission_probe is not None:
            self.admission_probe(stream_id, index)

    def _submit_other(self, session, outcome: QueryOutcome) -> None:
        """Non-SELECT statement: admission-gated, executed synchronously
        through the serial path at its admission event, then occupying
        its serial seconds of master time, uncontended."""
        engine = self.engine
        admission_id = -next(self._ids)

        def on_admit(admit_time: float) -> None:
            outcome.admit = admit_time
            outcome.queue_wait = self.manager.waits[admission_id]
            try:
                result = session.execute(outcome.sql)
            except ClusterError as exc:
                if not self.allow_failures:
                    raise
                outcome.error = f"{type(exc).__name__}: {exc}"
                outcome.query_id = self._last_query_id(session)
                outcome.serial_seconds = engine.cost_model.query_setup
            else:
                outcome.query_id = result.query_id
                outcome.rows = result.rows
                outcome.serial_seconds = result.cost.seconds
                outcome.task_graph = result.task_graph
                if result.task_graph is not None:
                    outcome.segments = result.task_graph.segments()
            self._occupy(
                admission_id, outcome.serial_seconds,
                lambda t, o=outcome, a=admission_id: self._settle(
                    o, t, release=a
                ),
            )

        self._scoped(
            admission_id,
            lambda: self.manager.submit(
                admission_id,
                outcome.queue,
                outcome.memory,
                outcome.submit,
                on_admit,
            ),
        )
        if (
            admission_id not in self.manager.waits
            and self.admission_probe is not None
        ):
            self.admission_probe(outcome.stream, outcome.index)

    def _occupy(
        self, prefix: int, seconds: float, done: Callable[[float], None]
    ) -> None:
        """A slotless synthetic task: master-only statements and failed
        preparations still take their serial seconds on the timeline."""
        key = (prefix, -1, next(self._ids))
        self.scheduler.add_task(key, seconds, release=self.scheduler.now)
        self.scheduler.watch([key], done)

    def _settle(
        self, outcome: QueryOutcome, finish_time: float,
        release: Optional[int] = None,
    ) -> None:
        """Close an outcome that never opened a dispatch of its own."""
        outcome.finish = finish_time
        outcome.charged_seconds = outcome.serial_seconds + outcome.queue_wait
        if release is not None:
            self.manager.release(release, finish_time)
        self._next_in_stream(outcome)

    def _next_in_stream(self, outcome: QueryOutcome) -> None:
        if outcome.index + 1 < len(self.streams[outcome.stream]):
            self._submit(outcome.stream, outcome.index + 1)

    def _queue_name(self, stream_id: int) -> str:
        session = self.sessions[stream_id]
        return session._resource_queue().name

    def _last_query_id(self, session) -> int:
        """Best-effort id of a failed statement (its trace still exists
        when tracing is on; untraced failures keep id 0)."""
        if session.tracer.queries:
            return session.tracer.queries[-1].query_id
        return 0

    # ----------------------------------------------------------- admit/waves
    def _on_admit(self, state: _Statement, admit_time: float) -> None:
        state.admitted = True
        outcome = state.outcome
        outcome.admit = admit_time
        outcome.queue_wait = self.manager.waits[outcome.query_id]
        self._start_attempt(state, admit_time)

    def _start_attempt(self, state: _Statement, at_time: float) -> None:
        """Begin one dispatch attempt at ``at_time`` (admission, or a
        retry backoff timer)."""
        if state.settled:
            return
        engine = self.engine
        state.attempt += 1
        if engine.run_fault_detection():
            # Sessions randomly fail down segments over to live hosts.
            engine.fault_detector.assign_failover()
        self._revive_workers()
        prepared = state.prepared
        if prepared.trace is not None:
            prepared.trace.begin_attempt()
        try:
            state.dispatch = self.runtime.begin(
                prepared.plan, prepared.sdp, prepared.ctx
            )
        except (SegmentDown, HdfsError) as exc:
            self._retry_or_fail(state, exc)
            return
        except QueryCanceled as exc:
            self._cancel_state(state, exc)
            return
        except ClusterError as exc:
            if not self.allow_failures:
                raise
            self._fail(state, exc)
            return
        state.base = at_time + state.dispatch.predicted_overhead()
        self._wave_event(state, 0)

    def _wave_event(self, state: _Statement, wave_index: int) -> None:
        """Dispatch one wave as a scheduler event, trapping cluster
        faults into the retry/cancel/fail paths — an uncaught exception
        here would kill the whole batch, not just this query."""
        if state.settled:
            return
        try:
            self._dispatch_wave(state, wave_index)
        except (SegmentDown, HdfsError) as exc:
            self._retry_or_fail(state, exc)
        except QueryCanceled as exc:
            self._cancel_state(state, exc)
        except ClusterError as exc:
            if not self.allow_failures:
                raise
            self._fail(state, exc)

    def _dispatch_wave(self, state: _Statement, wave_index: int) -> None:
        """Send one wave's DISPATCHes: the workers execute at event
        time, and their reported durations become scheduler tasks."""
        dispatch = state.dispatch
        scheduler = self.scheduler
        dispatch.dispatch_wave(wave_index)
        self.runtime.net.run()
        for slice_id, segment in dispatch.wave_keys(wave_index):
            if (slice_id, segment) in dispatch.reports:
                continue
            # A DISPATCH addressed to a dropped channel vanished
            # silently (UDP semantics) — notice the death at the wave
            # boundary, exactly where gather() would.
            if not self.runtime.bus.is_open(f"seg{segment}"):
                raise SegmentDown(
                    f"segment {segment} died before completing its task"
                )
            raise ExecutorError(
                f"no completion report for task {(slice_id, segment)}"
            )
        graph = dispatch.task_graph(dispatch.waves[: wave_index + 1])
        durations = dict(graph.tasks)
        qid = state.outcome.query_id
        stride = (state.attempt - 1) * _ATTEMPT_STRIDE
        in_wave = []
        for slice_id, segment in dispatch.wave_keys(wave_index):
            key = (qid, stride + slice_id, segment)
            scheduler.add_task(
                key,
                durations[(slice_id, segment)],
                release=state.base,
                slot=segment if segment >= 0 else None,
            )
            in_wave.append(key)
            state.keys.append(key)
        wave_set = set(in_wave)
        for (s1, g1), (s2, g2), delay in graph.edges:
            dst = (qid, stride + s2, g2)
            if dst not in wave_set:
                continue  # earlier waves' edges were applied already
            scheduler.add_edge((qid, stride + s1, g1), dst, delay=delay)
        if wave_index + 1 < dispatch.wave_count:
            scheduler.watch(
                in_wave,
                lambda t, s=state, w=wave_index + 1: self._wave_event(s, w),
            )
        else:
            scheduler.watch(
                in_wave, lambda t, s=state: self._finish_query(s, t)
            )

    def _finish_query(self, state: _Statement, finish_time: float) -> None:
        """The last wave completed on the clock: gather and commit,
        trapping faults like :meth:`_wave_event` does — a gather-raised
        ``SegmentDown`` re-enters the retry loop, exactly as the serial
        restart loop treats it."""
        if state.settled:
            return
        try:
            self._gather_and_commit(state, finish_time)
        except (SegmentDown, HdfsError) as exc:
            self._retry_or_fail(state, exc)
        except QueryCanceled as exc:
            self._cancel_state(state, exc)
        except ClusterError as exc:
            if not self.allow_failures:
                raise
            self._fail(state, exc)

    def _gather_and_commit(
        self, state: _Statement, finish_time: float
    ) -> None:
        outcome = state.outcome
        result = state.dispatch.gather()
        result.retries = state.retries
        result.cost.seconds += state.backoff_seconds
        result.queue_wait_seconds = outcome.queue_wait
        result.admitted_at = outcome.admit
        state.prepared.finish(result)
        self._mark_settled(state)
        outcome.rows = result.rows
        outcome.serial_seconds = result.cost.seconds
        outcome.task_graph = result.task_graph
        if result.task_graph is not None:
            outcome.segments = result.task_graph.segments()
        outcome.finish = finish_time
        outcome.charged_seconds = outcome.serial_seconds + outcome.queue_wait
        self.router.unregister(outcome.query_id)
        self._by_qid.pop(outcome.query_id, None)
        self.manager.release(outcome.query_id, finish_time)
        self._next_in_stream(outcome)

    @staticmethod
    def _mark_settled(state: _Statement) -> None:
        """The outcome is recorded: let go of the statement's plan,
        self-described plan and dispatch. Timers and watch callbacks
        armed for it may outlive it on the scheduler — they test
        ``settled`` and return, and must not pin its runtime state."""
        state.settled = True
        state.prepared = None
        state.dispatch = None

    # --------------------------------------------------------- failure paths
    def _revive_workers(self) -> None:
        """Re-instantiate workers whose endpoints died: stateless QE
        processes make restart cheap (paper Section 2.6) — a replacement
        process revives the name on a fresh port."""
        bus = self.runtime.bus
        for name, channel in sorted(bus.channels.items()):
            if channel.open or not name.startswith("seg"):
                continue
            SegmentWorker(
                int(name[3:]), bus, self.runtime.exchange,
                self.runtime.services,
            )

    def _abort_attempt(self, state: _Statement) -> None:
        """Tear down the in-flight attempt: ABORT broadcast, exchange
        cleanup, trace closure, and truncation of live scheduler tasks."""
        dispatch = state.dispatch
        if dispatch is not None and not dispatch.closed:
            dispatch.abort()
        state.dispatch = None
        if state.prepared.trace is not None:
            # Idempotent: abort() above already synthesized closures
            # when a dispatch was open.
            state.prepared.trace.attempt_aborted()
        if state.keys and self.scheduler.running:
            self.scheduler.cancel_tasks(state.keys)

    def _retry_or_fail(self, state: _Statement, exc: Exception) -> None:
        """Bounded query restart, as scheduler events: back off on the
        simulated clock (doubling), then re-begin dispatch on the shared
        runtime under the next attempt's key namespace."""
        engine = self.engine
        self._abort_attempt(state)
        state.retries += 1
        if state.retries > engine.max_query_retries:
            self._fail(
                state,
                QueryRetriesExhausted(
                    f"query failed after {engine.max_query_retries} "
                    f"restarts: {exc}"
                ),
            )
            return
        delay = engine.retry_backoff * (2 ** (state.retries - 1))
        state.backoff_seconds += delay
        if engine.metrics is not None:
            engine.metrics.counter("query_retries").inc()
        self.scheduler.at(
            self.scheduler.now + delay,
            lambda now, s=state: self._scoped(
                s.outcome.query_id, lambda: self._start_attempt(s, now)
            ),
        )

    def _fail(self, state: _Statement, exc: Exception) -> None:
        """Settle a statement as an error outcome: abort its transaction,
        free its queue slot (draining waiters behind it), and keep its
        stream's loop closed."""
        if state.settled:
            return
        outcome = state.outcome
        outcome.error = f"{type(exc).__name__}: {exc}"
        self._abort_attempt(state)
        state.prepared.fail()
        self._mark_settled(state)
        now = self.scheduler.now
        outcome.serial_seconds = self.engine.cost_model.query_setup
        outcome.finish = now
        outcome.charged_seconds = outcome.serial_seconds + outcome.queue_wait
        self.router.unregister(outcome.query_id)
        self._by_qid.pop(outcome.query_id, None)
        # cancel() frees a running slot *or* withdraws a parked waiter.
        self.manager.cancel(outcome.query_id, now)
        self._next_in_stream(outcome)

    # ----------------------------------------------------------- cancellation
    def _cancel_state(self, state: _Statement, exc: QueryCanceled) -> None:
        """Cancellation settles the statement as an error outcome — it
        never fails the batch, whatever ``allow_failures`` says, exactly
        like ``pg_cancel_backend`` errors only the cancelled backend."""
        if state.settled:
            return
        if self.engine.metrics is not None:
            self.engine.metrics.counter("queries_cancelled").inc()
        self._scoped(
            state.outcome.query_id, lambda: self._fail(state, exc)
        )

    def _on_cancel(self, query_id: int) -> None:
        """Engine cancel hook (:meth:`Session.cancel` → ``cancel_query``):
        a queued statement is withdrawn before it ever admits; an
        in-flight one aborts at the current event."""
        state = self._by_qid.get(query_id)
        if state is None:
            return  # not ours (serial query), or already settled
        self._cancel_state(
            state, QueryCanceled(f"query {query_id} cancelled by request")
        )

    def _timeout(self, state: _Statement, timeout: float) -> None:
        if state.settled:
            return
        query_id = state.outcome.query_id
        self._cancel_state(
            state,
            QueryCanceled(
                f"query {query_id} cancelled: statement_timeout of "
                f"{timeout}s exceeded"
            ),
        )
