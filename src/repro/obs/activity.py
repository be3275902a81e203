"""Live cluster activity and the session workload repository.

:class:`ClusterTelemetry` is the passive facade behind the SQL system
views (:mod:`repro.catalog.master_relations`) and the ``--top``
dashboard (:func:`render_top`). The runtime *publishes* into it — every
statement runs on a :class:`~repro.executor.concurrent.StatementLoop`
that sits on the engine's stack of live loops while it runs, and every
settled statement lands in the :class:`StatementStats` workload
repository — and the views *read* from it. Nothing here charges the
simulated clock or mutates any engine structure the executor reads
(lint R6 obs-passivity holds for this whole package), so interleaving
system-view queries with a workload leaves every row and every charged
second bit-identical.

All mutable state is instance-held (created in ``__init__``): the
facade is engine-scoped, never module-global, so concurrent engines
never share telemetry (and the R7 isolation lint has nothing to flag).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The master's own loopback worker (gang "1" slices) — excluded from
#: per-segment utilization, matching EXPLAIN's QD/segN distinction.
_QD_SEGMENT = -1

_LITERAL = re.compile(r"'(?:[^']|'')*'")
_NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?")
_WHITESPACE = re.compile(r"\s+")


def fingerprint(sql: str) -> str:
    """Normalize one statement to its pg_stat_statements identity.

    String and numeric literals become ``?`` placeholders, whitespace
    collapses, case folds, and a trailing semicolon is dropped — so
    ``SELECT * FROM t WHERE a = 7`` and ``select *  from t where a=19``
    with different constants accumulate into one repository entry.
    """
    text = _LITERAL.sub("?", sql)
    text = _NUMBER.sub("?", text)
    text = _WHITESPACE.sub(" ", text).strip()
    if text.endswith(";"):
        text = text[:-1].rstrip()
    return text.lower()


class _StatementEntry:
    """Accumulated facts for one normalized statement."""

    __slots__ = (
        "calls",
        "charged_total",
        "row_total",
        "queue_wait_total",
        "retry_total",
        "cache_hits",
        "cache_misses",
    )

    def __init__(self) -> None:
        self.calls = 0
        self.charged_total = 0.0
        self.row_total = 0
        self.queue_wait_total = 0.0
        self.retry_total = 0
        self.cache_hits = 0
        self.cache_misses = 0


class StatementStats:
    """The session-lifetime workload repository (pg_stat_statements).

    Fed one ``(sql, QueryResult)`` pair per settled statement; charged
    time is the statement's accounted ``cost.seconds`` (which already
    includes queue wait under the concurrent accounting contract), and
    cache deltas come from the statement's own metrics snapshot diff.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, _StatementEntry] = {}

    def observe_statement(self, sql: str, result) -> None:
        key = fingerprint(sql)
        entry = self._entries.get(key)
        if entry is None:
            entry = _StatementEntry()
            self._entries[key] = entry
        entry.calls += 1
        cost = getattr(result, "cost", None)
        if cost is not None:
            entry.charged_total += cost.seconds
        entry.row_total += len(result.rows or [])
        entry.queue_wait_total += getattr(result, "queue_wait_seconds", 0.0)
        entry.retry_total += getattr(result, "retries", 0)
        metrics = getattr(result, "metrics", None)
        if metrics is not None:
            # One unsorted pass over the statement's delta for the two
            # per-segment counters (``cache_hits{node=segN}``), each key
            # tested by a slice: not a parse of every series per counter
            # as ``MetricsSnapshot.total`` would do.
            for key, value in metrics.unsorted_items():
                if key[:11] == "cache_hits{":
                    entry.cache_hits += int(value)
                elif key[:13] == "cache_misses{":
                    entry.cache_misses += int(value)

    def statement_rows(self) -> List[tuple]:
        out: List[tuple] = []
        for key in sorted(self._entries):
            entry = self._entries[key]
            mean = entry.charged_total / entry.calls if entry.calls else 0.0
            out.append(
                (
                    key,
                    entry.calls,
                    entry.charged_total,
                    mean,
                    entry.row_total,
                    entry.queue_wait_total,
                    entry.retry_total,
                    entry.cache_hits,
                    entry.cache_misses,
                )
            )
        return out


class ClusterTelemetry:
    """Engine-scoped publication point for live and historical state.

    Two producers feed it:

    * the engine's stack of live statement loops (``loops``, innermost
      last — a batch, a lone statement, or a lone statement nested in a
      batch): each lends its in-flight statements, resource queue
      manager and event scheduler for as long as it runs.
    * :meth:`record_statement` — every settled statement lands in the
      workload repository and the cumulative per-segment timeline
      aggregates.

    Every reader (the system views, the ``--top`` dashboard) only
    inspects; the facade never calls back into the runtime.
    """

    def __init__(
        self,
        segments: List,
        loops: Sequence = (),
        is_cancelled: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self._segments = list(segments)
        self._loops = loops
        self._is_cancelled = is_cancelled
        self.statements = StatementStats()
        # Cumulative per-segment timeline aggregates (the fallback when
        # no batch is live): task counts, busy seconds, and the total
        # observed makespan they are a fraction of.
        self._segment_tasks: Dict[int, int] = {}
        self._segment_busy: Dict[int, float] = {}
        self._observed_span = 0.0

    # --------------------------------------------------- workload repository
    def record_statement(self, sql: str, result) -> None:
        """Fold one settled statement into the repository and the
        cumulative segment aggregates."""
        self.statements.observe_statement(sql, result)
        # The executed task DAG: each task's duration is its time on
        # the scheduler's timeline, as a batch's slot timelines count it.
        graph = getattr(result, "task_graph", None)
        tasks = graph.tasks if graph is not None else []
        for (_slice_id, segment_id), seconds in tasks:
            if segment_id == _QD_SEGMENT:
                continue
            self._segment_tasks[segment_id] = (
                self._segment_tasks.get(segment_id, 0) + 1
            )
            self._segment_busy[segment_id] = (
                self._segment_busy.get(segment_id, 0.0) + seconds
            )
        self._observed_span += getattr(result, "worker_span", 0.0) or 0.0

    # ------------------------------------------------------------- view rows
    def activity_rows(self) -> List[tuple]:
        """pg_stat_activity: one row per live statement.

        Straight off the live loops' in-flight registries: queued or
        running on the loop's clock, with the slice dispatch ledger. A
        statement with a pending cancel request shows as ``cancelling``
        until its teardown event settles it.
        """
        rows: List[tuple] = []
        for loop in self._loops:
            now = loop.scheduler.now
            for query_id in sorted(loop.statements):
                state = loop.statements[query_id]
                outcome = state.outcome
                if state.admitted:
                    status = "running"
                    wait_so_far = outcome.queue_wait
                else:
                    status = "queued"
                    wait_so_far = now - outcome.submit
                if self._cancel_pending(query_id):
                    status = "cancelling"
                dispatched, completed = self._slice_progress(loop, state)
                rows.append(
                    (
                        query_id,
                        status,
                        outcome.queue,
                        wait_so_far,
                        max(state.attempt, 1),
                        dispatched,
                        completed,
                    )
                )
        rows.sort(key=lambda row: row[0])
        return rows

    def _cancel_pending(self, query_id: int) -> bool:
        return self._is_cancelled is not None and self._is_cancelled(query_id)

    @staticmethod
    def _slice_progress(loop, state) -> Tuple[int, int]:
        """(slices dispatched, slices completed) for one statement.

        Task keys are ``(qid, offset+slice, seg)``, each dispatch of the
        statement (an InitPlan, a retry) at its own offset; grouping by
        the offset slice id counts an InitPlan's slices and a retried
        wave's re-dispatch, which is the honest operator-facing number.
        """
        by_slice: Dict[int, List[tuple]] = {}
        for key in state.keys:
            by_slice.setdefault(key[1], []).append(key)
        completed = 0
        for slice_id in sorted(by_slice):
            keys = by_slice[slice_id]
            if loop.scheduler.finished_count(keys) == len(keys):
                completed += 1
        return len(by_slice), completed

    def resqueue_rows(self) -> List[tuple]:
        """pg_resqueue_status: per-queue occupancy, live from the
        outermost loop's ResourceQueueManager — the batch's while one
        runs (a statement nested in it holds a batch slot already),
        else the asking statement's own. Nothing runs, nothing to show.
        """
        if not self._loops:
            return []
        return self._loops[0].manager.occupancy()

    def segment_rows(self) -> List[tuple]:
        """pg_stat_segments: per-segment timeline occupancy.

        During a batch, straight off the event scheduler's slot
        timelines (utilization = busy seconds / current clock);
        otherwise the cumulative aggregates over every recorded
        statement (utilization = busy / total observed makespan).
        """
        batch = self._loops[0] if self._loops else None
        if (
            batch is not None
            and batch.shared
            and batch.scheduler.running
        ):
            usage = batch.scheduler.slot_usage()
            now = batch.scheduler.now
            span = now if now > 0 else 0.0
        else:
            usage = {
                segment_id: (
                    self._segment_tasks[segment_id],
                    self._segment_busy.get(segment_id, 0.0),
                )
                for segment_id in sorted(self._segment_tasks)
            }
            span = self._observed_span
        rows: List[tuple] = []
        for segment in self._segments:
            tasks, busy = usage.get(segment.segment_id, (0, 0.0))
            utilization = busy / span if span > 0 else 0.0
            rows.append(
                (segment.segment_id, segment.host, tasks, busy, utilization)
            )
        return rows

    def statement_rows(self) -> List[tuple]:
        return self.statements.statement_rows()

    # ------------------------------------------------------------- dashboard
    def overview(self) -> Dict[str, object]:
        """One coherent snapshot for the ``--top`` dashboard."""
        return {
            "now": self._loops[0].scheduler.now if self._loops else 0.0,
            "activity": self.activity_rows(),
            "queues": self.resqueue_rows(),
            "segments": self.segment_rows(),
        }


# ----------------------------------------------------------------- dashboard
def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_top(overview: Dict[str, object]) -> str:
    """The ``--top`` text dashboard from one telemetry snapshot:
    activity table, per-queue slot gauges, per-segment utilization
    bars. Pure rendering — the snapshot is the input."""
    lines: List[str] = []
    lines.append(
        f"cluster activity @ t={overview['now']:.4f}s (simulated clock)"
    )
    lines.append("")
    activity = overview["activity"]
    lines.append(f"statements ({len(activity)} live):")
    lines.append(
        f"  {'qid':>5}  {'state':<11}{'queue':<14}"
        f"{'wait_s':>9}  {'att':>3}  {'slices':>7}"
    )
    for row in activity:
        qid, state, queue, wait, attempt, dispatched, completed = row
        lines.append(
            f"  {qid:>5}  {state:<11}{queue:<14}"
            f"{wait:>9.4f}  {attempt:>3}  {completed:>3}/{dispatched}"
        )
    if not activity:
        lines.append("  (idle)")
    lines.append("")
    lines.append("resource queues:")
    for row in overview["queues"]:
        name, slots, in_use, mem_limit, mem_used, waiters, head = row
        fraction = in_use / slots if slots else 0.0
        suffix = f"  waiting={waiters}"
        if head is not None:
            suffix += f" head=q{head}"
        lines.append(
            f"  {name:<14}[{_bar(fraction)}] {in_use:>3}/{slots:<3} slots  "
            f"mem {mem_used / 1e9:.2f}/{mem_limit / 1e9:.2f} GB{suffix}"
        )
    lines.append("")
    lines.append("segments:")
    for row in overview["segments"]:
        segment_id, host, tasks, busy, utilization = row
        lines.append(
            f"  seg{segment_id:<3}{host:<8}[{_bar(utilization)}] "
            f"{utilization * 100:5.1f}%  {tasks:>4} tasks  "
            f"{busy:.4f}s busy"
        )
    return "\n".join(lines)
