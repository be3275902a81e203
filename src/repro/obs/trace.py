"""Structured tracing of one query on the simulated clock.

The recorder side is deliberately dumb: during execution every layer
(RPC bus, segment workers, slice operators, storage scans, the exchange
fabric) appends *relative* marks — ``t`` values read off the task's own
:class:`~repro.simtime.CostAccumulator` — plus a flat log of RPC
protocol events. Nothing here ever charges the clock or mutates cost
state (lint R6); a trace records time, it never spends it.

Absolute placement happens once, at gather time: the runtime hands the
recorder the :class:`~repro.simtime.scheduler.EventScheduler` output and
:meth:`QueryTrace.assemble` turns each (slice, segment) task into a root
span occupying exactly the scheduler's ``[start, finish]`` window
(shifted by the master's dispatch overhead), with the task's operator
marks mapped proportionally into that window. The scheduler computes
task windows from the *gang-mean* duration, so a task whose own
accumulator ran long or short is scaled to fit — the raw accumulator
seconds stay available on every span as ``acc_seconds``. By
construction, the latest root span end equals the query's
``cost.seconds`` bit-for-bit (the differential test asserts this), so a
trace is a faithful decomposition of the makespan.

A query that restarts (chaos, dead segments) keeps its RPC event log
across attempts — that log is what the chaos trace invariant checks —
but only the final, successful attempt contributes spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: RPC protocol event kinds mirrored from :mod:`repro.cluster.rpc`
#: (string literals to keep obs import-free of the runtime), plus two
#: recorder-synthesized kinds.
DISPATCH = "dispatch"
ACK = "ack"
COMPLETE = "complete"
ABORT = "abort"
#: Synthetic closure of an outstanding DISPATCH when an attempt aborts
#: (a dead channel receives no wire ABORT; the master still accounts
#: for the task it will never hear from again).
ABORT_CLOSE = "abort-close"
#: A worker's RPC channel was dropped (the process was killed).
DROP = "drop"
#: A dropped endpoint was re-registered: a replacement process revived
#: the dead segment's name (bounded query restart, paper Section 2.6).
REVIVE = "revive"

#: Track name of the master (QD) row; QD-gang tasks render here too.
MASTER_TRACK = "master"


def _track(segment: Optional[int]) -> str:
    if segment is None or segment < 0:
        return MASTER_TRACK
    return f"seg{segment}"


@dataclass
class Span:
    """One closed interval on a track, in absolute simulated seconds."""

    name: str
    #: "master" | "task" | "exec" | "storage"
    cat: str
    track: str
    start: float
    end: float
    slice_id: Optional[int] = None
    segment: Optional[int] = None
    #: ``id()`` of the plan node this span executed, when it maps to
    #: one — EXPLAIN (ANALYZE, VERBOSE) aggregates per-operator stats
    #: through this key.
    node_key: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Instant:
    """A zero-duration event (RPC message, motion stream delivery)."""

    name: str
    cat: str
    track: str
    ts: float
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass
class RpcEvent:
    """One control-plane protocol event, in bus order."""

    attempt: int
    seq: int
    kind: str
    slice_id: Optional[int]
    segment: Optional[int]
    sender: str
    dest: str
    size: int = 0
    #: Engine-wide statement id the message carried (0 = untagged).
    query_id: int = 0


@dataclass
class _OpMark:
    """A worker-side relative mark: ``[t0, t1]`` on the task's own
    accumulator clock, placed into the task window at assembly."""

    name: str
    cat: str
    t0: float
    t1: float
    node_key: Optional[int]
    attrs: Dict[str, object]


@dataclass
class _StreamMark:
    slice_id: int
    sender: int
    receiver: int
    rows: int
    nbytes: int


class QueryTrace:
    """Recorder + assembled trace for one statement."""

    def __init__(self, label: str = "", num_segments: int = 0,
                 query_id: int = 0):
        self.label = label
        self.num_segments = num_segments
        #: Engine-wide statement id. Every RPC event recorded into this
        #: trace must carry the same id — concurrent sessions may never
        #: bleed protocol traffic into each other's trace.
        self.query_id = query_id
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.rpc_events: List[RpcEvent] = []
        self.attempts = 0
        #: Filled by :meth:`finalize` from the QueryResult.
        self.makespan = 0.0
        self.overhead = 0.0
        self.total_seconds = 0.0
        self.retries = 0
        self._cursor = 0.0
        self._marks: Dict[Tuple[int, int], List[_OpMark]] = {}
        self._streams: List[_StreamMark] = []
        self._rpc_emitted = 0

    # ----------------------------------------------------------- recording
    def begin_attempt(self) -> None:
        """A fresh dispatch attempt: marks from a failed attempt never
        become spans (the RPC event log keeps the failure's history)."""
        self.attempts += 1
        self._marks.clear()
        self._streams.clear()

    def on_rpc(self, sender: str, dest: str, message) -> None:
        """Record one control message leaving the bus (post open-check:
        a send that raises ``SegmentDown`` was never sent)."""
        kind = message.kind
        slice_id: Optional[int] = None
        segment: Optional[int] = None
        payload = message.payload
        if kind == DISPATCH:
            task = payload[0]
            slice_id, segment = task.slice_id, task.segment
        elif kind == ACK:
            slice_id, segment = payload
        elif kind == COMPLETE:
            slice_id, segment = payload.slice_id, payload.segment
        elif kind == ABORT:
            segment = _segment_of(dest)
        self.rpc_events.append(
            RpcEvent(
                attempt=self.attempts,
                seq=len(self.rpc_events),
                kind=kind,
                slice_id=slice_id,
                segment=segment,
                sender=sender,
                dest=dest,
                size=message.size,
                query_id=getattr(message, "query_id", 0),
            )
        )

    def on_drop(self, name: str) -> None:
        """A worker process died: its channel closed mid-attempt."""
        self.rpc_events.append(
            RpcEvent(
                attempt=self.attempts,
                seq=len(self.rpc_events),
                kind=DROP,
                slice_id=None,
                segment=_segment_of(name),
                sender=name,
                dest="",
                query_id=self.query_id,
            )
        )

    def on_revive(self, name: str) -> None:
        """A replacement process re-registered a dropped endpoint: the
        segment is alive again — COMPLETEs from it are legitimate."""
        self.rpc_events.append(
            RpcEvent(
                attempt=self.attempts,
                seq=len(self.rpc_events),
                kind=REVIVE,
                slice_id=None,
                segment=_segment_of(name),
                sender=name,
                dest="",
                query_id=self.query_id,
            )
        )

    def attempt_aborted(self) -> None:
        """Close every DISPATCH of the current attempt that saw no
        COMPLETE. Idempotent: a second call finds nothing outstanding,
        so the restart loop and the runtime's abort path can both call
        it without double-closing."""
        for key, count in sorted(self._outstanding(self.attempts).items()):
            for _ in range(count):
                self.rpc_events.append(
                    RpcEvent(
                        attempt=self.attempts,
                        seq=len(self.rpc_events),
                        kind=ABORT_CLOSE,
                        slice_id=key[0],
                        segment=key[1],
                        sender=MASTER_TRACK,
                        dest=_track(key[1]),
                        query_id=self.query_id,
                    )
                )

    def _outstanding(self, attempt: int) -> Dict[Tuple[int, int], int]:
        open_count: Dict[Tuple[int, int], int] = {}
        for event in self.rpc_events:
            if event.attempt != attempt or event.slice_id is None:
                continue
            key = (event.slice_id, event.segment)
            if event.kind == DISPATCH:
                open_count[key] = open_count.get(key, 0) + 1
            elif event.kind in (COMPLETE, ABORT_CLOSE):
                open_count[key] = open_count.get(key, 0) - 1
        return {k: v for k, v in open_count.items() if v > 0}

    def op_mark(
        self,
        slice_id: int,
        segment: int,
        name: str,
        t0: float,
        t1: float,
        cat: str = "exec",
        node_key: Optional[int] = None,
        **attrs: object,
    ) -> None:
        """One operator (or storage-scan) interval on a task's own
        accumulator clock; ``t`` values are monotone within a task."""
        self._marks.setdefault((slice_id, segment), []).append(
            _OpMark(
                name=name, cat=cat, t0=t0, t1=t1, node_key=node_key,
                attrs=dict(attrs),
            )
        )

    def stream(
        self,
        slice_id: int,
        sender: int,
        receiver: int,
        rows: int,
        nbytes: int,
        query_id: int = 0,
    ) -> None:
        """One motion stream crossed the exchange fabric.

        ``query_id`` exists for router compatibility on the shared
        fabric; a per-query trace records only its own streams.
        """
        self._streams.append(
            _StreamMark(
                slice_id=slice_id, sender=sender, receiver=receiver,
                rows=rows, nbytes=nbytes,
            )
        )

    # ------------------------------------------------------------ assembly
    def assemble(self, waves, reports, schedule, master_seconds: float) -> None:
        """Place one executed plan on the absolute timeline.

        Called once per PhysicalPlan execution (init plans assemble
        first, advancing the cursor by exactly their ``cost.seconds``),
        with the scheduler's task windows and the master accumulator's
        dispatch overhead. Consumes the attempt's pending marks.
        """
        t0 = self._cursor
        base = t0 + master_seconds
        task_count = sum(len(wave) for wave in waves)
        self.spans.append(
            Span(
                name="parse/plan/dispatch",
                cat="master",
                track=MASTER_TRACK,
                start=t0,
                end=base,
                attrs={"tasks_dispatched": task_count},
            )
        )
        windows: Dict[Tuple[int, int], Tuple[float, float]] = {}
        for wave in waves:
            for task in wave:
                key = (task.slice_id, task.segment)
                report = reports[key]
                start = base + schedule.start[key]
                end = base + schedule.finish[key]
                windows[key] = (start, end)
                track = _track(task.segment)
                self.spans.append(
                    Span(
                        name=f"slice {task.slice_id}",
                        cat="task",
                        track=track,
                        start=start,
                        end=end,
                        slice_id=task.slice_id,
                        segment=task.segment,
                        attrs={
                            "acc_seconds": report.seconds,
                            "rows_out": report.rows_out,
                            "bytes_out": report.bytes_out,
                            "sched_start": schedule.start[key],
                            "sched_finish": schedule.finish[key],
                        },
                    )
                )
                window = end - start
                total = report.seconds
                scale = window / total if total > 0 else 0.0
                for mark in self._marks.pop(key, []):
                    m_start = start + mark.t0 * scale
                    m_end = min(start + mark.t1 * scale, end)
                    self.spans.append(
                        Span(
                            name=mark.name,
                            cat=mark.cat,
                            track=track,
                            start=min(m_start, m_end),
                            end=m_end,
                            slice_id=task.slice_id,
                            segment=task.segment,
                            node_key=mark.node_key,
                            attrs={
                                **mark.attrs,
                                "acc_seconds": mark.t1 - mark.t0,
                            },
                        )
                    )
        for stream in self._streams:
            key = (stream.slice_id, stream.sender)
            if key not in windows:
                continue
            self.instants.append(
                Instant(
                    name=(
                        f"motion s{stream.slice_id} "
                        f"{_track(stream.sender)}->{_track(stream.receiver)}"
                    ),
                    cat="motion",
                    track=_track(stream.sender),
                    ts=windows[key][1],
                    attrs={"rows": stream.rows, "bytes": stream.nbytes},
                )
            )
        self._streams.clear()
        for event in self.rpc_events[self._rpc_emitted:]:
            key = (event.slice_id, event.segment)
            window = windows.get(key)
            if window is None or event.kind not in (DISPATCH, ACK, COMPLETE):
                continue
            ts = window[1] if event.kind == COMPLETE else window[0]
            self.instants.append(
                Instant(
                    name=f"{event.kind} s{event.slice_id}@{_track(event.segment)}",
                    cat="rpc",
                    track=MASTER_TRACK,
                    ts=ts,
                    attrs={"size": event.size},
                )
            )
        self._rpc_emitted = len(self.rpc_events)
        self._cursor = base + schedule.makespan

    def finalize(self, result) -> None:
        """Copy the result's composed timing onto the trace."""
        self.makespan = result.makespan
        self.overhead = result.overhead_seconds
        self.total_seconds = result.cost.seconds
        self.retries = result.retries

    # ------------------------------------------------------------ analysis
    def root_spans(self) -> List[Span]:
        return [span for span in self.spans if span.cat == "task"]

    def last_plan_tasks(self) -> List[Span]:
        """The task spans of the last plan assembled: the statement's
        own, after those of the init plans that assembled before it."""
        start = max(
            (i for i, span in enumerate(self.spans) if span.cat == "master"),
            default=0,
        )
        return [span for span in self.spans[start:] if span.cat == "task"]

    def tracks(self) -> List[str]:
        """Every track with at least one span, master first."""
        seen = {span.track for span in self.spans}
        seen.update(instant.track for instant in self.instants)
        ordered = [MASTER_TRACK] if MASTER_TRACK in seen else []
        ordered.extend(
            sorted(t for t in seen if t != MASTER_TRACK)
        )
        return ordered

    def operator_stats(self) -> Dict[int, Dict[str, object]]:
        """Per-plan-node aggregates over all tasks (for EXPLAIN VERBOSE)."""
        out: Dict[int, Dict[str, object]] = {}
        for span in self.spans:
            if span.node_key is None:
                continue
            stats = out.setdefault(
                span.node_key,
                {"name": span.name, "rows": 0, "bytes": 0, "calls": 0,
                 "acc_seconds": 0.0},
            )
            stats["rows"] += span.attrs.get("rows", 0)
            stats["bytes"] += span.attrs.get("bytes", 0)
            stats["calls"] += 1
            stats["acc_seconds"] += span.attrs.get("acc_seconds", 0.0)
        return out

    def scan_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-table storage-layer aggregates (bytes read, cache)."""
        out: Dict[str, Dict[str, object]] = {}
        for span in self.spans:
            if span.cat != "storage":
                continue
            table = span.attrs.get("table")
            if table is None:
                continue
            stats = out.setdefault(
                str(table),
                {"read_bytes": 0, "remote_bytes": 0, "cache_hits": 0,
                 "cache_misses": 0, "lanes": 0},
            )
            stats["read_bytes"] += span.attrs.get("read_bytes", 0)
            stats["remote_bytes"] += span.attrs.get("remote_bytes", 0)
            stats["cache_hits"] += span.attrs.get("cache_hits", 0)
            stats["cache_misses"] += span.attrs.get("cache_misses", 0)
            stats["lanes"] += 1
        return out


def _segment_of(name: str) -> Optional[int]:
    if name.startswith("seg"):
        try:
            return int(name[3:])
        except ValueError:
            return None
    return None


def rpc_closure_violations(trace: QueryTrace) -> List[str]:
    """The chaos-trace invariant (satellite 2).

    Per attempt: every DISPATCH must be closed by exactly one COMPLETE
    or one synthetic ABORT_CLOSE, never both, never neither; a COMPLETE
    must match an open DISPATCH; and a segment whose channel dropped
    must never COMPLETE afterwards within that attempt. Violations mean
    an RPC channel was silently dropped (or double-reported) somewhere
    in the master/segment protocol.
    """
    violations: List[str] = []
    for attempt in range(1, trace.attempts + 1):
        open_count: Dict[Tuple[int, int], int] = {}
        killed: set = set()
        for event in trace.rpc_events:
            if event.attempt != attempt:
                continue
            if event.kind == DROP:
                killed.add(event.segment)
                continue
            if event.kind == REVIVE:
                killed.discard(event.segment)
                continue
            if event.slice_id is None:
                continue
            key = (event.slice_id, event.segment)
            if event.kind == DISPATCH:
                open_count[key] = open_count.get(key, 0) + 1
            elif event.kind in (COMPLETE, ABORT_CLOSE):
                if open_count.get(key, 0) <= 0:
                    violations.append(
                        f"attempt {attempt}: {event.kind} for task {key} "
                        "without an open DISPATCH"
                    )
                open_count[key] = open_count.get(key, 0) - 1
                if event.kind == COMPLETE and event.segment in killed:
                    violations.append(
                        f"attempt {attempt}: killed segment "
                        f"{event.segment} reported COMPLETE for {key}"
                    )
        for key, count in sorted(open_count.items()):
            if count > 0:
                violations.append(
                    f"attempt {attempt}: DISPATCH for task {key} never "
                    "closed by COMPLETE or ABORT"
                )
    return violations


def trace_query_id_violations(trace: QueryTrace) -> List[str]:
    """Concurrency trace invariant: a trace keyed to query N may only
    contain protocol events tagged with query N. A violation means two
    in-flight statements shared a bus/trace recorder — concurrent
    sessions read each other's control traffic."""
    violations: List[str] = []
    if not trace.query_id:
        return violations
    for event in trace.rpc_events:
        if event.query_id != trace.query_id:
            violations.append(
                f"trace for query {trace.query_id} holds a {event.kind} "
                f"event tagged query {event.query_id} "
                f"({event.sender}->{event.dest})"
            )
    return violations


class TraceRouter:
    """Demultiplexes one shared bus/fabric onto per-query traces.

    Under single-pass interleaved dispatch every in-flight query rides
    the *same* :class:`~repro.cluster.rpc.RpcBus` and
    :class:`~repro.interconnect.exchange.ExchangeFabric`, but each keeps
    its own :class:`QueryTrace`. The router sits in the shared ``trace``
    slot and forwards each event to the trace registered for the query
    id the event carries. Events tagged with an unregistered id (or id
    0) are dropped — an untraced statement simply records nothing.

    Channel drops carry no query id (the dying process does not know
    whose dispatch it holds), so :meth:`on_drop` broadcasts to every
    registered trace: each query's RPC-closure invariant needs to know
    its segment died, and a drop event for a segment a query never
    dispatched to is inert under that invariant.
    """

    def __init__(self):
        self._traces: Dict[int, QueryTrace] = {}

    def register(self, query_id: int, trace: QueryTrace) -> None:
        self._traces[query_id] = trace

    def unregister(self, query_id: int) -> None:
        self._traces.pop(query_id, None)

    def __len__(self) -> int:
        return len(self._traces)

    def on_rpc(self, sender: str, dest: str, message) -> None:
        trace = self._traces.get(getattr(message, "query_id", 0))
        if trace is not None:
            trace.on_rpc(sender, dest, message)

    def on_drop(self, name: str) -> None:
        for query_id in sorted(self._traces):
            self._traces[query_id].on_drop(name)

    def on_revive(self, name: str) -> None:
        for query_id in sorted(self._traces):
            self._traces[query_id].on_revive(name)

    def stream(
        self,
        slice_id: int,
        sender: int,
        receiver: int,
        rows: int,
        nbytes: int,
        query_id: int = 0,
    ) -> None:
        trace = self._traces.get(query_id)
        if trace is not None:
            trace.stream(slice_id, sender, receiver, rows, nbytes)


class TraceCollector:
    """Per-session trace store: one :class:`QueryTrace` per traced
    statement, in execution order."""

    def __init__(self, num_segments: int = 0):
        self.num_segments = num_segments
        self.queries: List[QueryTrace] = []

    def begin_query(self, label: str = "", query_id: int = 0) -> QueryTrace:
        trace = QueryTrace(
            label=label, num_segments=self.num_segments, query_id=query_id
        )
        self.queries.append(trace)
        return trace

    def for_query(self, query_id: int) -> Optional[QueryTrace]:
        """The trace of the statement with engine-wide id ``query_id``
        (latest wins if ids ever repeat) — never "the last statement",
        which under concurrency may belong to another session."""
        for trace in reversed(self.queries):
            if trace.query_id == query_id:
                return trace
        return None

    @property
    def last(self) -> Optional[QueryTrace]:
        return self.queries[-1] if self.queries else None
