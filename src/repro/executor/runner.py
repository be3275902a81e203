"""Master-side query execution: dispatch, gather, and the event clock.

The master (QD) cuts the self-described plan into per-segment
:class:`~repro.planner.dispatch.SliceTask`s and sends each one as a
DISPATCH message over :class:`~repro.cluster.rpc.RpcBus` to its
:class:`~repro.cluster.worker.SegmentWorker`, which reports COMPLETE.
Waves go out children-first (the statement loop drives them), so a
wave's motion inputs sit in the exchange before its consumers start.

Timing: every task's COMPLETE carries the simulated seconds its
accumulator charged. The runtime replays those durations on the
:class:`~repro.simtime.scheduler.EventScheduler` — each motion is one
barrier from the sending gang to the receiving one, charged one
interconnect latency (plus a materialization penalty when pipelining is
ablated) — and the query's wall time is the **critical path** through
the task DAG plus the master's own fixed dispatch overhead. Task
durations use the gang mean, not the max: at full scale TPC-H keys hash
uniformly, so per-segment imbalance at a tiny scale factor is sampling
noise, not real skew.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.rpc import (
    ABORT,
    ABORT_BYTES,
    CATALOG_LOOKUP_BYTES,
    COMPLETE,
    DISPATCH,
    MASTER,
    MessageQueue,
    RpcBus,
    RpcMessage,
    TaskReport,
    charge_control,
)
from repro.errors import ExecutorError, ReproError, SegmentDown
from repro.interconnect.exchange import ExchangeFabric
from repro.obs.metrics import MetricsSnapshot
from repro.obs.trace import TraceRouter
from repro.planner.dispatch import (
    QD_SEGMENT,
    SelfDescribedPlan,
    SliceTask,
    make_slice_tasks,
)
from repro.planner.physical import PhysicalPlan
from repro.simtime import CostAccumulator, CostModel, QueryCost
from repro.simtime.scheduler import TaskGraph, TaskKey


@dataclass
class ExecutionContext:
    """Per-query knobs shipped to every worker inside DISPATCH."""

    num_segments: int
    cost_model: CostModel
    #: 'batch' runs every operator on column batches (identical results
    #: and identical simulated charges); 'row' is the tuple-at-a-time
    #: reference executor.
    executor_mode: str
    params: List[object] = field(default_factory=list)
    #: 'udp' or 'tcp' — which interconnect carries the motions.
    interconnect: str = "udp"
    #: Disable slice overlap (ablation: staged execution a la MapReduce).
    pipelined: bool = True
    #: Per-operator memory budget in nominal bytes before spilling.
    work_mem: float = 1.5e9
    #: Self-described plans (Section 3.1); when ablated, every QE pays a
    #: per-object catalog RPC storm against the master instead.
    metadata_dispatch: bool = True
    #: Per-query :class:`repro.obs.trace.QueryTrace` recorder, or None.
    #: Purely observational: workers record relative operator marks on
    #: it; the runtime assembles absolute spans at gather time. Tracing
    #: never charges the clock, so figures are identical either way.
    trace: Optional[object] = None
    #: Memo of this statement's compiled row/batch kernels, shared by
    #: its segments, retry attempts and re-executions (see
    #: SliceExecutor._compiled); it goes when the context does.
    kernel_cache: dict = field(default_factory=dict)
    #: Engine-wide statement id: every RPC this query's dispatch sends
    #: (and every trace event) is tagged with it, so concurrent
    #: sessions' control traffic stays attributable per query.
    query_id: int = 0


@dataclass
class QueryResult:
    """Rows plus the simulated cost of producing them."""

    rows: List[tuple]
    column_names: List[str]
    cost: QueryCost
    plan: Optional[PhysicalPlan] = None
    message: str = ""
    #: Critical-path length through the task DAG (worker time only).
    makespan: float = 0.0
    #: The InitPlans' worker time, then this makespan: the span the
    #: tasks of ``task_graph`` ran in, one plan after another.
    worker_span: float = 0.0
    #: Master-side fixed costs + init-plan time, on top of the makespan.
    overhead_seconds: float = 0.0
    #: The (slice_id, segment) chain that bounded the makespan.
    critical_path: List[TaskKey] = field(default_factory=list)
    #: Number of dispatch attempts abandoned to a dead segment before
    #: this result was produced (query restart beats heavy recovery).
    retries: int = 0
    #: Per-query metrics delta (registry snapshot diff around this
    #: statement): cache hits/misses, bytes read per format, datagrams,
    #: WAL records, retries. Empty when nothing was instrumented.
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: The statement's :class:`repro.obs.trace.QueryTrace` when the
    #: session had tracing enabled, else None.
    trace: Optional[object] = None
    #: Engine-wide id of the statement that produced this result (0 for
    #: statements that never dispatched).
    query_id: int = 0
    #: The executed (slice, segment) task DAG with its gang-mean
    #: durations, barriers and edges, the InitPlans' tasks included
    #: (keyed past the plan's own slice ids): every task that held a
    #: segment slot. None for undispatched statements.
    task_graph: Optional[TaskGraph] = None
    #: Simulated seconds this statement waited for resource-queue
    #: admission (0.0 when the slot was free at submit — always, for a
    #: lone statement: it is the only one on its queue manager).
    queue_wait_seconds: float = 0.0
    #: Absolute simulated time the resource queue admitted the
    #: statement (submit time + queue_wait_seconds; a lone statement
    #: submits at 0.0 on its own clock).
    admitted_at: float = 0.0


class QueryDispatch:
    """One plan execution's master-side state, addressable mid-flight.

    Holds the wave list, the master cost accumulator, and the
    COMPLETE reports of a single in-flight
    :class:`~repro.planner.physical.PhysicalPlan`. The statement loop
    (:mod:`repro.executor.concurrent`) dispatches each wave from a
    scheduler event, with many dispatches in flight on the same runtime
    — replies route back here by the message's ``query_id``; a
    statement's InitPlans are dispatches of their own, opened ahead of it.
    """

    def __init__(
        self,
        runtime: "DistributedRuntime",
        plan: PhysicalPlan,
        sdp: SelfDescribedPlan,
        ctx: ExecutionContext,
        inits: List[QueryResult],
    ):
        self.runtime = runtime
        self.plan = plan
        self.sdp = sdp
        #: What the init plans cost: their seconds are master overhead,
        #: their bytes and tuples part of the statement's totals.
        self.init = QueryCost(seconds=0.0)
        #: Their results, whose tasks and span the statement's carries.
        self._inits = inits
        if plan.init_plans:
            # ``inits`` are their gathered results, in order: each single
            # value is a parameter of this plan (scoped per PhysicalPlan,
            # so a nested InitPlan binds its own).
            params: List[object] = []
            for sub in inits:
                if len(sub.rows) > 1:
                    raise ExecutorError("InitPlan returned more than one row")
                params.append(sub.rows[0][0] if sub.rows else None)
                self.init.add(sub.cost)
            ctx = dataclasses.replace(ctx, params=params)
        self.ctx = ctx
        self.waves = make_slice_tasks(plan, sdp, ctx.num_segments)
        self.master_acc = self._charge_dispatch()
        self.roots = {s.slice_id: s.root for s in plan.slices}
        self.reports: Dict[TaskKey, TaskReport] = {}
        self.closed = False
        self._wave_of = {wave[0].slice_id: wave for wave in self.waves}
        #: Each settled wave's share of the task DAG, in wave order: a
        #: settled wave's reports (and its senders' motion) never change.
        self._settled: List[TaskGraph] = []
        # A worker executes one task at a time: tasks landing on the same
        # segment serialize in dispatch (wave) order. This is what keeps
        # sibling join branches — which all run on the same gang of
        # segments — from overlapping for free: the cores are shared.
        # Cross-*segment* overlap (direct dispatch, the QD's own slices
        # against QE work) still parallelizes on the event clock. The
        # edges stay explicit in the graph (not implied by slots) so a
        # lone query's live timeline composes to its replayed makespan.
        self._runs_after: Dict[TaskKey, TaskKey] = {}
        last_on_segment: Dict[int, TaskKey] = {}
        for wave in self.waves:
            for task in wave:
                key = (task.slice_id, task.segment)
                if task.segment in last_on_segment:
                    self._runs_after[key] = last_on_segment[task.segment]
                last_on_segment[task.segment] = key
        # A statement's plans (its InitPlans, then its own) share its
        # query id and run one at a time: one entry routes its replies.
        runtime._inflight[ctx.query_id] = self

    def _charge_dispatch(self) -> CostAccumulator:
        """The master's whole dispatch, charged once: query setup, then
        per wave a gang setup and per task its dispatch cost and the
        DISPATCH message's wire time. It is a pure function of the wave
        structure, so it is known before any wave goes out."""
        model = self.ctx.cost_model
        acc = CostAccumulator(model)
        acc.fixed(model.query_setup)
        for wave in self.waves:
            acc.fixed(model.gang_setup)
            for task in wave:
                acc.fixed(model.dispatch_per_segment)
                if task.segment == QD_SEGMENT:
                    continue  # loopback to the master's own worker: no wire
                if not self.ctx.metadata_dispatch:
                    # Ablation: the plan goes out thin and the QE turns
                    # around and storms the master's catalog, one RPC
                    # per object it needs (schema, files, stats, types).
                    lookups = max(len(self.sdp.metadata), 1) * 4
                    acc.fixed(model.catalog_rpc * lookups)
                    charge_control(acc, CATALOG_LOOKUP_BYTES)
                else:
                    charge_control(acc, task.payload_bytes)
        return acc

    def abort(self) -> None:
        """Clean up a failed or cancelled dispatch: drain the queue
        (late replies are discarded, a failure inside the drain is
        swallowed), broadcast a query-tagged ABORT to the surviving
        workers, close the trace's tasks that will never report, and
        close. The statement loop owns the original exception."""
        self._drain()
        bus = self.runtime.bus
        for name, channel in sorted(bus.channels.items()):
            if name != MASTER and channel.open:
                abort = RpcMessage(
                    kind=ABORT, sender=MASTER, size=ABORT_BYTES,
                    query_id=self.ctx.query_id,
                )
                bus.send(MASTER, name, abort)
        self._drain()
        if self.ctx.trace is not None:
            self.ctx.trace.attempt_aborted()
        self.close()

    def _drain(self) -> None:
        # The query is already dead when abort() runs: the retry loop
        # owns the *original* exception, so faults surfacing from queued
        # deliveries during the drain carry no new information.
        for _ in range(10_000):
            try:
                self.runtime.queue.deliver()
                return
            except ReproError:  # lint: allow[R4] — abort drain, see above
                continue
        raise ExecutorError("abort drain did not settle")

    def close(self) -> None:
        """Deregister from the runtime's in-flight routing table and
        drop the query's exchange streams: gathered or aborted, nothing
        reads them again, and a loop shared by many statements must not
        carry every finished one's streams to its end."""
        if self.closed:
            return
        self.closed = True
        self.runtime.exchange.clear(self.ctx.query_id)
        self.runtime._inflight.pop(self.ctx.query_id, None)

    def _stage_delay(self, slice_id: int) -> float:
        """The disk round trip a settled sending slice's motion output
        pays when pipelining is ablated: staged to disk and read back by
        the consumer, per segment. Zero when slices pipeline."""
        ctx = self.ctx
        if ctx.pipelined:
            return 0.0
        model = ctx.cost_model
        wave = self._wave_of[slice_id]
        reports = self.reports
        sent = sum(reports[(slice_id, task.segment)].bytes_out for task in wave)
        per_segment = sent / max(len(wave), 1)
        return 2 * per_segment * model.scale / model.disk_seq_bw

    def settle_wave(self, index: int) -> TaskGraph:
        """Wave ``index`` has run: check that every task reported, and
        compose the wave's share of the task DAG — its tasks at the
        gang-mean duration, then its constraints: one per child slice,
        then the same-segment edges into it, each a one-to-one
        constraint. The statement loop adds it to the live clock; gather
        replays every settled wave's share, in wave order.

        A motion is one constraint: the consumer's MotionRecv drains the
        whole sending gang's streams, so every consumer task waits for
        every sender task, charged one interconnect latency plus the
        sender's staging delay."""
        wave = self.waves[index]
        reports = self.reports
        for task in wave:
            if (task.slice_id, task.segment) in reports:
                continue
            # A DISPATCH to a dropped channel was delivered to no one
            # (UDP semantics): the master notices the worker's
            # death here, at the wave boundary.
            if not self.runtime.bus.is_open(f"seg{task.segment}"):
                raise SegmentDown(
                    f"segment {task.segment} died before completing its task"
                )
            raise ExecutorError(
                f"no completion report for task {(task.slice_id, task.segment)}"
            )
        plan_slice = self.plan.slices[index]  # one wave per slice, in order
        slice_id = plan_slice.slice_id
        seconds = [reports[(slice_id, task.segment)].seconds for task in wave]
        mean = sum(seconds) / len(seconds)
        keys = [(slice_id, task.segment) for task in wave]
        latency = self.ctx.cost_model.net_latency
        constraints = [
            (
                [(child_id, child.segment) for child in self._wave_of[child_id]],
                keys,
                latency + self._stage_delay(child_id),
            )
            for child_id in plan_slice.child_slices
        ]
        runs_after = self._runs_after
        constraints += [
            ([runs_after[key]], [key], 0.0) for key in keys if key in runs_after
        ]
        graph = TaskGraph(tasks=[(key, mean) for key in keys], constraints=constraints)
        self._settled.append(graph)
        return graph

    # ----------------------------------------------------------------- gather
    def gather(self) -> QueryResult:
        """Assemble the result once every wave has settled."""
        plan = self.plan
        waves = self.waves
        ctx = self.ctx
        master_acc = self.master_acc
        # Replay the settled waves' task DAG: the graph is also attached
        # to the result, where the concurrent runtime reads the segments
        # it touched.
        settled = self._settled
        graph = TaskGraph(
            tasks=[task for part in settled for task in part.tasks],
            constraints=[c for part in settled for c in part.constraints],
        )
        schedule = graph.replay()

        rows: List[tuple] = []
        top_id = plan.top_slice.slice_id
        top_tasks = [
            task for wave in waves for task in wave if task.slice_id == top_id
        ]
        for task in sorted(top_tasks, key=lambda t: t.segment):
            report = self.reports[(top_id, task.segment)]
            if report.result_rows is not None:
                rows.extend(report.result_rows)

        # The counters sum over the master, the init plans and every
        # task; the seconds are set below, from the critical path.
        cost = QueryCost.from_accumulator(master_acc)
        cost.add(self.init)
        for report in self.reports.values():
            cost.add(report)
        if ctx.trace is not None:
            # Absolute span placement: the scheduler's task windows,
            # shifted past this plan's dispatch overhead (init-plan
            # assemblies already advanced the trace cursor).
            ctx.trace.assemble(waves, self.reports, schedule, master_acc.seconds)

        # Master-side seconds: the dispatch charged at construction plus
        # the init plans' time (on the loop they ran as earlier waves).
        overhead = master_acc.seconds + self.init.seconds
        cost.seconds = schedule.makespan + overhead
        self.close()
        if self._inits:
            graph = _with_init_tasks(graph, [sub.task_graph for sub in self._inits])
        return QueryResult(
            rows=rows,
            column_names=plan.output_names,
            cost=cost,
            plan=plan,
            makespan=schedule.makespan,
            worker_span=sum(sub.worker_span for sub in self._inits) + schedule.makespan,
            overhead_seconds=overhead,
            critical_path=schedule.critical_path,
            query_id=ctx.query_id,
            task_graph=graph,
        )


def _with_init_tasks(graph: TaskGraph, inits: List[TaskGraph]) -> TaskGraph:
    """``graph`` with its InitPlans' tasks and constraints ahead of its
    own, as they held segment slots. Each InitPlan's slice ids move past
    every id before it, so keys stay unique; no constraint links them to
    the plan's tasks (the statement loop ran them first)."""
    out, shifts, offset = TaskGraph(tasks=[]), [], 0
    for part in [graph] + inits:
        offset += 1 + max(s for (s, _g), _d in part.tasks)
        shifts.append(offset)
    for part, by in zip(inits + [graph], shifts[:-1] + [0]):
        out.tasks += [((by + s, g), d) for (s, g), d in part.tasks]
        out.constraints += [
            ([(by + s, g) for s, g in senders], [(by + s, g) for s, g in to], delay)
            for senders, to, delay in part.constraints
        ]
    return out


class DistributedRuntime:
    """The engine's one QD/QE process group, and the QD's dispatcher on it.

    Owns the :class:`~repro.cluster.rpc.MessageQueue`, the RPC bus and
    exchange fabric on it, the master's RPC endpoint and the trace
    router; the engine builds it once and spawns its workers on the bus,
    and every statement loop runs on it. Each :class:`QueryDispatch`
    registers itself in the in-flight table, and every COMPLETE reply
    routes to its owner by the message's ``query_id``; replies for
    queries no longer in flight are discarded, UDP-style. A settled
    statement leaves nothing here: nothing queued, in flight or in an
    exchange inbox.
    """

    def __init__(self, metrics, interconnect: str) -> None:
        self.queue = MessageQueue()
        self.bus = RpcBus(self.queue)
        self.exchange = ExchangeFabric(self.queue)
        self.bus.metrics = self.exchange.metrics = metrics
        self._inflight: Dict[int, QueryDispatch] = {}
        self.bus.register(MASTER, self._on_complete)
        self.router = TraceRouter()
        self._datagrams = metrics.counter("datagrams_delivered", mode=interconnect)
        #: ``queue.delivered`` when ``datagrams_delivered`` last caught up.
        self._flushed = 0

    # ----------------------------------------------------------------- traces
    def route_trace(self, query_id: int, trace) -> None:
        """Put ``query_id``'s messages and streams on ``trace``: the
        router is the bus's and fabric's while any trace is routed."""
        self.router.register(query_id, trace)
        self.bus.trace = self.exchange.trace = self.router

    def unroute_trace(self, query_id: int) -> None:
        router = self.router
        router.unregister(query_id)
        if len(router) == 0:
            self.bus.trace = self.exchange.trace = None

    def flush_delivered(self) -> None:
        """Publish what the queue delivered since the last flush: before
        a statement's metrics are attributed, and as a loop exits."""
        delivered = self.queue.delivered
        self._datagrams.inc(delivered - self._flushed)
        self._flushed = delivered

    # --------------------------------------------------------------- messages
    def _on_complete(self, message: RpcMessage) -> None:
        """The master reads one kind of message, a task's COMPLETE: a
        worker's ACK is charged and counted at send, never queued."""
        dispatch = self._inflight.get(message.query_id)
        if dispatch is not None:  # else a late reply of a dead query
            report: TaskReport = message.payload
            dispatch.reports[(report.slice_id, report.segment)] = report

    # ----------------------------------------------------------------- driver
    def execute(self, dispatch: QueryDispatch, index: int) -> None:
        """Run wave ``index`` of ``dispatch`` on the workers: send its
        DISPATCH messages (the master paid for them when the dispatch
        opened) and deliver the queue, which runs each task and carries
        its motion streams and COMPLETE home in send order. The statement
        loop's wave step is the one caller; it settles the wave after."""
        ctx = dispatch.ctx
        for task in dispatch.waves[index]:
            message = RpcMessage(
                kind=DISPATCH,
                sender=MASTER,
                payload=(task, dispatch.roots[task.slice_id], dispatch.sdp, ctx),
                size=task.payload_bytes,
                query_id=ctx.query_id,
            )
            if task.segment != QD_SEGMENT and not ctx.metadata_dispatch:
                message.size = CATALOG_LOOKUP_BYTES  # the thin plan
            self.bus.send(MASTER, f"seg{task.segment}", message)
        self.queue.deliver()
