"""The statement driver: every SELECT's lifecycle on the event clock.

A statement is admitted, dispatched, executed, retried, cancelled and
gathered **while an event clock runs** — one statement on a loop of its
own (:func:`run_statement`, what :meth:`~repro.engine.Session.execute`
calls), or many in flight on one loop (:class:`ConcurrentRunner`'s
closed-loop streams). Every loop runs on the engine's one
:class:`~repro.executor.runner.DistributedRuntime`, its QD/QE process
group. Concurrency is only *how many* lifecycles a
:class:`StatementLoop` carries; there is no other way to run a SELECT.

The lifecycle of one statement, entirely event-driven:

1. **Submit.** :meth:`~repro.engine.Session.prepare_select` (or the
   session itself, for a lone statement) runs the front half — parse,
   analyze, lock, plan, allocate the query id and trace — and the
   statement is offered to its
   :class:`~repro.cluster.resqueue.ResourceQueueManager` queue. A
   closed-loop stream submits its next statement the instant the
   previous one settles (a scheduler ``watch`` callback).
2. **Admit.** When the queue has a slot (immediately, or later from
   another query's release event), wave 0 is dispatched on the engine's
   runtime: the segment workers execute the slices *at event time*,
   and their gang-mean durations become scheduler tasks occupying
   per-segment slots. Each motion becomes one scheduler barrier.
3. **Wave barrier.** When every task of wave *w* finishes on the
   clock, a watch callback dispatches wave *w+1*, so a lone query's
   timeline composes to the makespan its task graph replays to. A
   statement's InitPlans are its leading waves, depth-first: each one's
   value is bound before the plan that reads it sends wave 0.
4. **Settle.** The last wave's completion gathers rows, commits the
   statement's transaction, and releases the queue slot — which may
   admit parked waiters in the same event.

Failures re-enter the loop as events too: a ``SegmentDown``/
``HdfsError`` aborts the attempt, backs off on the simulated clock
(doubling), revives dead worker endpoints, and re-begins dispatch —
attempt-namespaced task keys keep retries from colliding with the
failed attempt's history; any other error settles its statement alone
when the loop allows failures. However a statement settles, it leaves
nothing of itself on the runtime. Cancellation (:meth:`~repro.engine.Session.
cancel`, or the ``statement_timeout`` GUC armed as a timer at submit
time) aborts the in-flight dispatch with a clean query-tagged ABORT
broadcast, truncates the query's live scheduler tasks, and withdraws it
from admission — a parked statement is cancelled without ever taking a
slot. A cancelled statement settles as an error outcome; it never
fails a batch, and a lone session gets it raised.

Cost accounting contract: a query's **charged** cost under concurrency
is exactly its lone cost plus its measured queue wait
(``charged_seconds == serial_seconds + queue_wait``, float-exact). Slot
contention shows up in *latency* (and the batch makespan), never in the
charged cost — a parked task delays the query, it does not make the
query do more work. A statement's charged seconds are its replayed
makespan plus its master overhead, InitPlans included; on the clock
each plan's wave 0 releases its master dispatch time after the plan
before it finished, so an uncontended query finishes at ``admit +
serial_seconds`` up to float reassociation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.security import QueueLimitExceeded
from repro.cluster.resqueue import (
    QueueStats,
    ResourceQueueManager,
    specs_from_security,
)
from repro.errors import (
    HdfsError,
    QueryCanceled,
    QueryRetriesExhausted,
    ReproError,
    SegmentDown,
)
from repro.executor.runner import QueryDispatch
from repro.simtime.scheduler import EventScheduler, TaskGraph

#: Simulated seconds a statement waits before its first restart; the
#: wait doubles with each further restart.
RETRY_BACKOFF = 0.25


@dataclass
class QueryOutcome:
    """One statement's fate on its loop's timeline."""

    #: Where a ConcurrentRunner stream had it (a lone statement: unset).
    stream: int = 0
    index: int = 0
    sql: str = ""
    query_id: int = 0
    rows: Optional[List[tuple]] = None
    #: ``"<ExceptionType>: <message>"`` of what failed the statement ...
    error: Optional[str] = None
    #: ... and the exception object itself (a lone statement re-raises it).
    exception: Optional[Exception] = None
    #: The statement's executed (slice, segment) task DAG.
    task_graph: Optional[TaskGraph] = None
    #: The statement's ``cost.seconds``: what it is charged run alone.
    serial_seconds: float = 0.0
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
    def segments(self) -> List[int]:
        """Every real segment the statement's slices touched."""
        return self.task_graph.segments() if self.task_graph is not None else []

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

    def rows(self, stream: int, index: int) -> Optional[List[tuple]]:
        for outcome in self.outcomes:
            if outcome.stream == stream and outcome.index == index:
                return outcome.rows
        raise ReproError(f"no outcome for stream {stream} statement {index}")


@dataclass
class _Statement:
    """Loop-side state of one in-flight SELECT."""

    outcome: QueryOutcome
    prepared: object
    #: Called with the outcome once the statement settled, either way.
    on_settled: Optional[Callable[[QueryOutcome], None]] = None
    dispatch: object = None
    #: The gathered result; read by whoever kept the statement (a lone
    #: statement's caller — a batch keeps only outcomes).
    result: object = None
    #: 1-based attempt number.
    attempt: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    #: The attempt's plans still to open (the next one last); InitPlan
    #: results gathered but not yet bound.
    plans: List = field(default_factory=list)
    gathered: List = field(default_factory=list)
    #: Release base of the open dispatch: its opening time plus its
    #: master dispatch time.
    base: float = 0.0
    #: Task keys are ``(query_id, offset + slice_id, segment)``; each
    #: dispatch opened (InitPlan or retry) starts past every slice key
    #: used before, so keys never collide and stay int 3-tuples.
    offset: int = 0
    #: Every scheduler task key this statement created (all attempts).
    keys: List[Tuple[int, int, int]] = field(default_factory=list)
    admitted: bool = False
    settled: bool = False


class StatementLoop:
    """One event clock and one resource-queue manager on the engine's
    QD/QE process group — and the lifecycle of every SELECT that runs
    on them: admit → attempt → waves → gather/commit, with bounded
    restart, cancellation and ``statement_timeout`` as scheduler events.

    :func:`run_statement` drives one statement on a loop of its own;
    :class:`ConcurrentRunner` drives closed-loop streams on a shared
    one. Either way the loop runs on the engine's one runtime and
    builds no workers. While installed (``with loop:``) the loop is on
    the engine's stack of live loops, where ``Session.cancel`` and the
    system views find it; a lone statement started inside a running
    batch nests on top of the batch's loop, on the same runtime, and
    pops itself off again.
    """

    def __init__(
        self, engine, allow_failures: bool = False, shared: bool = False
    ):
        self.engine = engine
        #: A statement's :class:`ReproError` settles it as an error
        #: outcome instead of propagating out of the clock's ``run()``.
        self.allow_failures = allow_failures
        #: Many statements share this loop (a batch), so what it could
        #: publish about sharing is worth publishing: its clock's slot
        #: timelines are a utilization pg_stat_segments reads live, and
        #: its manager's queue pressure goes to the ``resqueue_*``
        #: metrics. A lone statement's clock starts at zero with it, and
        #: alone on its manager it always admits at once.
        self.shared = shared
        self.runtime = engine.runtime
        self.scheduler = EventScheduler()
        self.manager = ResourceQueueManager(
            specs_from_security(engine.security),
            metrics=engine.metrics if shared else None,
        )
        #: query_id -> in-flight statement (pg_stat_activity reads it).
        self.statements: Dict[int, _Statement] = {}
        #: The statement whose lifecycle step is on the stack right now
        #: (its slices may be on the workers, inside ``runtime.execute``).
        self._executing: Optional[_Statement] = None

    def __enter__(self) -> "StatementLoop":
        self.engine._loops.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.engine._loops.remove(self)
        # A statement still here had an error propagate out of the clock:
        # it fails, and leaves the runtime with its loop.
        runtime = self.runtime
        for query_id, state in sorted(self.statements.items()):
            if state.dispatch is not None:
                state.dispatch.close()
            state.prepared.fail()
            runtime.unroute_trace(query_id)
        if self.statements:
            runtime.queue.clear()
        runtime.flush_delivered()

    # ---------------------------------------------------------------- submit
    def submit(
        self,
        prepared,
        outcome: QueryOutcome,
        on_settled: Optional[Callable[[QueryOutcome], None]] = None,
    ) -> _Statement:
        """Enter one prepared SELECT at the current simulated time and
        offer it to its resource queue. It may admit — and execute its
        first wave — or even settle before this returns."""
        outcome.query_id = prepared.query_id
        outcome.memory = prepared.memory
        state = _Statement(outcome, prepared, on_settled)
        self.statements[prepared.query_id] = state
        if prepared.trace is not None:
            self.runtime.route_trace(prepared.query_id, prepared.trace)
        if prepared.statement_timeout > 0:
            # statement_timeout spans the whole statement, queue wait
            # included — the timer arms at submit, exactly like a
            # client-side deadline.
            self.scheduler.at(
                outcome.submit + prepared.statement_timeout,
                lambda now, s=state, t=prepared.statement_timeout:
                    self._timeout(s, t),
            )
        try:
            self.manager.submit(
                prepared.query_id,
                prepared.queue_name,
                prepared.memory,
                outcome.submit,
                lambda admit, s=state: self._on_admit(s, admit),
            )
        except QueueLimitExceeded as exc:
            self._fail(state, exc)
        return state

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
        state.plans = _run_order(prepared.plan)[::-1]
        state.gathered = []
        self._step(state, self._open, at_time)

    def _step(self, state: _Statement, step, *args) -> None:
        """Run one step of the lifecycle, trapping the statement's errors
        into the retry/cancel/fail paths — an uncaught exception here
        would kill every statement on the loop, not just this one.

        Stateless segments make restart cheaper than recovery (paper
        Section 2.6): a dead segment or a transiently unreadable block
        restarts the statement. Nothing else is retried: master
        failover fails the *statement* (the transaction died with the
        master; the client restarts it against the promoted standby),
        and so does a SQL error such as a division by zero."""
        if state.settled:
            return
        outer, self._executing = self._executing, state
        try:
            step(state, *args)
        except (SegmentDown, HdfsError) as exc:
            self._retry_or_fail(state, exc)
        except QueryCanceled as exc:
            self._cancel_state(state, exc)
        except ReproError as exc:
            if not self.allow_failures:
                raise
            self._fail(state, exc)
        finally:
            self._executing = outer

    def _open(self, state: _Statement, at_time: float) -> None:
        """Open the next plan at ``at_time`` and send its wave 0; the
        results of its InitPlans are the last ones gathered."""
        prepared = state.prepared
        plan = state.plans.pop()
        split = len(state.gathered) - len(plan.init_plans)
        inits = state.gathered[split:]
        del state.gathered[split:]
        dispatch = state.dispatch = QueryDispatch(
            self.runtime, plan, prepared.sdp, prepared.ctx, inits
        )
        state.offset = 1 + max((key[1] for key in state.keys), default=-1)
        state.base = at_time + dispatch.master_acc.seconds
        self._dispatch_wave(state, 0)

    def _dispatch_wave(self, state: _Statement, wave_index: int) -> None:
        """Send one wave's DISPATCHes: the workers execute at event
        time, and their reported durations become scheduler tasks."""
        dispatch = state.dispatch
        scheduler = self.scheduler
        self.runtime.execute(dispatch, wave_index)
        # The statement's own slices just ran on the workers. A cancel
        # request for it from in there (a chaos or scan-progress hook
        # calling ``Session.cancel``) could not tear the dispatch down
        # under the workers' feet, so :meth:`cancel` left it pending: if
        # no worker's lane probe raised it, raise it here.
        qid = state.outcome.query_id
        if self.engine.is_cancelled(qid):
            raise QueryCanceled(f"query {qid} cancelled by request")
        graph = dispatch.settle_wave(wave_index)
        offset, in_wave = state.offset, []
        for (slice_id, segment), duration in graph.tasks:
            key = (qid, offset + slice_id, segment)
            scheduler.add_task(
                key,
                duration,
                release=state.base,
                slot=segment if segment >= 0 else None,
            )
            in_wave.append(key)
        state.keys.extend(in_wave)
        for senders, consumers, delay in graph.constraints:
            scheduler.add_barrier(
                [(qid, offset + s, g) for s, g in senders],
                [(qid, offset + s, g) for s, g in consumers],
                delay=delay,
            )
        # The wave barrier: the next wave (or the gather) goes out when
        # every task of this one has finished on the clock, so a lone
        # query's timeline composes to its replayed makespan exactly.
        if wave_index + 1 < len(dispatch.waves):
            scheduler.watch(
                in_wave,
                lambda t, s=state, w=wave_index + 1: self._step(
                    s, self._dispatch_wave, w
                ),
            )
        else:
            scheduler.watch(
                in_wave, lambda t, s=state: self._step(s, self._gather, t)
            )

    def _gather(self, state: _Statement, finish_time: float) -> None:
        """The open plan's last wave finished on the clock: gather it. An
        InitPlan's result waits for the next plan, which opens now."""
        result = state.dispatch.gather()
        if state.plans:
            state.gathered.append(result)
            self._open(state, finish_time)
            return
        outcome = state.outcome
        result.retries = state.retries
        result.cost.seconds += state.backoff_seconds
        result.queue_wait_seconds = outcome.queue_wait
        result.admitted_at = outcome.admit
        self.runtime.flush_delivered()
        state.prepared.finish(result)
        state.result = result
        outcome.rows = result.rows
        outcome.serial_seconds = result.cost.seconds
        outcome.task_graph = result.task_graph
        self._settle(state, finish_time)
        self.manager.release(outcome.query_id, finish_time)
        if state.on_settled is not None:
            state.on_settled(outcome)

    def _settle(self, state: _Statement, finish_time: float) -> None:
        """The outcome is recorded: let go of the statement's plan,
        self-described plan and dispatch. Timers and watch callbacks
        armed for it may outlive it on the scheduler — they test
        ``settled`` and return, and must not pin its runtime state."""
        state.settled = True
        state.prepared = None
        state.dispatch = None
        state.plans = []
        state.gathered = []
        outcome = state.outcome
        outcome.finish = finish_time
        outcome.charged_seconds = outcome.serial_seconds + outcome.queue_wait
        self.runtime.unroute_trace(outcome.query_id)
        del self.statements[outcome.query_id]

    # --------------------------------------------------------- failure paths
    def _revive_workers(self) -> None:
        """Re-instantiate the engine's workers whose endpoints died, at
        every attempt's start — the one revival path, whether the kill
        landed inside a statement or between two: stateless QE processes
        make restart cheap (paper Section 2.6), and a replacement
        process revives the name on a channel of its own."""
        for name, channel in sorted(self.runtime.bus.channels.items()):
            if not channel.open and name.startswith("seg"):
                self.engine.spawn_worker(int(name[3:]))

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
        simulated clock (doubling), re-run fault detection so the
        session picks up fresh failover assignments, then re-begin
        dispatch under the next attempt's key namespace. After
        ``max_query_retries`` failed attempts the statement fails with a
        clean :class:`QueryRetriesExhausted`."""
        engine = self.engine
        self._abort_attempt(state)
        state.retries += 1
        if state.retries > engine.max_query_retries:
            exhausted = QueryRetriesExhausted(
                f"query failed after {engine.max_query_retries} "
                f"restarts: {exc}"
            )
            exhausted.__cause__ = exc
            self._fail(state, exhausted)
            return
        delay = RETRY_BACKOFF * (2 ** (state.retries - 1))
        state.backoff_seconds += delay
        engine.metrics.counter("query_retries").inc()
        self.scheduler.at(
            self.scheduler.now + delay,
            lambda now, s=state: self._start_attempt(s, now),
        )

    def _fail(self, state: _Statement, exc: Exception) -> None:
        """Settle a statement as an error outcome: abort its transaction,
        free its queue slot (draining waiters behind it), and tell its
        owner."""
        if state.settled:
            return
        outcome = state.outcome
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.exception = exc
        self._abort_attempt(state)
        state.prepared.fail()
        now = self.scheduler.now
        outcome.serial_seconds = self.engine.cost_model.query_setup
        self._settle(state, now)
        # cancel() frees a running slot *or* withdraws a parked waiter.
        self.manager.cancel(outcome.query_id, now)
        if state.on_settled is not None:
            state.on_settled(outcome)

    # ----------------------------------------------------------- cancellation
    def _cancel_state(self, state: _Statement, exc: QueryCanceled) -> None:
        """Cancellation settles the statement as an error outcome — it
        never fails the loop, whatever ``allow_failures`` says, exactly
        like ``pg_cancel_backend`` errors only the cancelled backend."""
        if state.settled:
            return
        self.engine.metrics.counter("queries_cancelled").inc()
        self._fail(state, exc)

    def cancel(self, query_id: int) -> None:
        """Engine cancel hook (:meth:`Session.cancel` → ``cancel_query``):
        a queued statement is withdrawn before it ever admits; an
        in-flight one aborts at the current event."""
        state = self.statements.get(query_id)
        if state is None or state is self._executing:
            return  # another loop's, already settled — or see _dispatch_wave
        self._cancel_state(
            state, QueryCanceled(f"query {query_id} cancelled by request")
        )

    def _timeout(self, state: _Statement, timeout: float) -> None:
        query_id = state.outcome.query_id
        self._cancel_state(
            state,
            QueryCanceled(
                f"query {query_id} cancelled: statement_timeout of "
                f"{timeout}s exceeded"
            ),
        )


def _run_order(plan) -> List:
    """A statement's plans in run order: each after its InitPlans."""
    return [p for init in plan.init_plans for p in _run_order(init)] + [plan]


def run_statement(prepared):
    """A lone statement is the one-statement batch: drive ``prepared``
    on a loop of its own until it settles, then return its
    :class:`~repro.executor.runner.QueryResult` or re-raise what failed
    it — the original exception object."""
    outcome = QueryOutcome(queue=prepared.queue_name)
    with StatementLoop(prepared.session.engine, allow_failures=True) as loop:
        state = loop.submit(prepared, outcome)
        loop.scheduler.run()
    if outcome.exception is not None:
        raise outcome.exception
    return state.result


class ConcurrentRunner:
    """Runs N closed-loop statement streams against one engine, single
    pass, on one shared :class:`StatementLoop`."""

    def __init__(
        self,
        engine,
        streams: List[List[str]],
        role: str = "gpadmin",
        queues: Optional[Dict[int, str]] = None,
        trace: bool = False,
        allow_failures: bool = False,
        before_query: Optional[Callable[[int, int], None]] = None,
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
        #: The run's loop (left readable after the run).
        self.loop: Optional[StatementLoop] = None
        self._outcomes: List[QueryOutcome] = []
        #: Synthetic ids: admission ids for non-SELECT statements
        #: (negative, never colliding with engine query ids) and the
        #: third element of slotless synthetic task keys.
        self._ids = itertools.count(1)

    @property
    def manager(self) -> ResourceQueueManager:
        """The run's queue manager: callers check the queues drained."""
        return self.loop.manager

    # ------------------------------------------------------------------- run
    def run(self) -> BatchResult:
        self.loop = loop = StatementLoop(
            self.engine, allow_failures=self.allow_failures, shared=True
        )
        self._outcomes = []
        with loop:
            for stream_id, stream in enumerate(self.streams):
                if stream:
                    self._submit(stream_id, 0)
            schedule = loop.scheduler.run()
        slot_waits: Dict[int, float] = {}
        for key, wait in sorted(schedule.waits.items()):
            slot_waits[key[0]] = slot_waits.get(key[0], 0.0) + wait
        for outcome in self._outcomes:
            outcome.slot_wait = slot_waits.get(outcome.query_id, 0.0)
        return BatchResult(
            outcomes=self._outcomes,
            makespan=schedule.makespan,
            queue_stats=loop.manager.stats(),
        )

    # ---------------------------------------------------------------- submit
    def _submit(self, stream_id: int, index: int) -> None:
        """Submit one statement: prepare it and hand it to the loop.

        Runs at event time — from a stream's previous completion event,
        or pre-run for stream heads (submit time 0).
        """
        engine = self.engine
        loop = self.loop
        session = self.sessions[stream_id]
        sql = self.streams[stream_id][index]
        outcome = QueryOutcome(
            stream=stream_id,
            index=index,
            sql=sql,
            queue=session._resource_queue().name,
            submit=loop.scheduler.now,
        )
        outcome.memory = min(
            engine.work_mem,
            engine.security.queues[outcome.queue].memory_limit,
        )
        self._outcomes.append(outcome)
        if self.before_query is not None:
            self.before_query(stream_id, index)
        try:
            prepared = session.prepare_select(sql)
        except ReproError as exc:
            if not self.allow_failures:
                raise
            # The statement died before dispatch (a SQL error, planning
            # against a dead master, chaos mid-parse).
            self._died_undispatched(outcome, session, exc)
            self._burn_setup(outcome.query_id, outcome)
            return
        if prepared is None:
            self._submit_other(session, outcome)
            return
        state = loop.submit(prepared, outcome, self._next_in_stream)
        deadline = self.cancel_at.get((stream_id, index))
        if deadline is not None:
            loop.scheduler.at(
                deadline,
                lambda now, qid=prepared.query_id: engine.cancel_query(qid),
            )
        if (
            not state.admitted
            and not state.settled
            and self.admission_probe is not None
        ):
            self.admission_probe(stream_id, index)

    def _submit_other(self, session, outcome: QueryOutcome) -> None:
        """Non-SELECT statement: admission-gated, executed synchronously
        through :meth:`Session.execute` at its admission event (a SELECT
        inside it nests a loop of its own), then occupying its serial
        seconds of master time, uncontended."""
        manager = self.loop.manager
        admission_id = -next(self._ids)

        def on_admit(admit_time: float) -> None:
            outcome.admit = admit_time
            outcome.queue_wait = manager.waits[admission_id]
            try:
                result = session.execute(outcome.sql)
            except ReproError as exc:
                if not self.allow_failures:
                    raise
                self._died_undispatched(outcome, session, exc)
            else:
                outcome.query_id = result.query_id
                outcome.rows = result.rows
                outcome.serial_seconds = result.cost.seconds
                outcome.task_graph = result.task_graph
            self._occupy(
                admission_id, outcome.serial_seconds,
                lambda t, o=outcome, a=admission_id: self._settle(
                    o, t, release=a
                ),
            )

        try:
            manager.submit(
                admission_id,
                outcome.queue,
                outcome.memory,
                outcome.submit,
                on_admit,
            )
        except QueueLimitExceeded as exc:
            self._died_undispatched(outcome, session, exc)
            self._burn_setup(admission_id, outcome)
            return
        if (
            admission_id not in manager.waits
            and self.admission_probe is not None
        ):
            self.admission_probe(outcome.stream, outcome.index)

    def _died_undispatched(
        self, outcome: QueryOutcome, session, exc: Exception
    ) -> None:
        """Record the error of a statement that never opened a dispatch
        of its own; it still costs its setup on the timeline."""
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.exception = exc
        # Best-effort id (its trace still exists when tracing is on;
        # untraced failures keep id 0).
        if session.tracer.queries:
            outcome.query_id = session.tracer.queries[-1].query_id
        outcome.serial_seconds = self.engine.cost_model.query_setup

    def _burn_setup(self, prefix: int, outcome: QueryOutcome) -> None:
        """A statement that never got as far as admission bypasses it
        and burns only its setup penalty on the timeline."""
        self._occupy(
            prefix, outcome.serial_seconds, lambda t: self._settle(outcome, t)
        )

    def _occupy(
        self, prefix: int, seconds: float, done: Callable[[float], None]
    ) -> None:
        """A slotless synthetic task: master-only statements and failed
        preparations still take their serial seconds on the timeline."""
        scheduler = self.loop.scheduler
        key = (prefix, -1, next(self._ids))
        scheduler.add_task(key, seconds, release=scheduler.now)
        scheduler.watch([key], done)

    def _settle(
        self, outcome: QueryOutcome, finish_time: float,
        release: Optional[int] = None,
    ) -> None:
        """Close an outcome that never opened a dispatch of its own."""
        outcome.finish = finish_time
        outcome.charged_seconds = outcome.serial_seconds + outcome.queue_wait
        if release is not None:
            self.loop.manager.release(release, finish_time)
        self._next_in_stream(outcome)

    def _next_in_stream(self, outcome: QueryOutcome) -> None:
        """Closed loop: a stream submits its next statement the instant
        the previous one settles."""
        if outcome.index + 1 < len(self.streams[outcome.stream]):
            self._submit(outcome.stream, outcome.index + 1)
