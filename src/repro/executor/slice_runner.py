"""One slice on one segment: the QE-side operator interpreter.

A :class:`SliceExecutor` is what a :class:`~repro.cluster.worker.
SegmentWorker` runs when a DISPATCH message hands it a
:class:`~repro.planner.dispatch.SliceTask`: it interprets the slice's
operator tree, reads motion inputs from the
:class:`~repro.interconnect.exchange.ExchangeFabric` inbox, and pushes
its root motion's output back through the fabric, one stream per
receiver. All simulated charges land on the task's own
:class:`~repro.simtime.CostAccumulator` — the accumulator *is* the
task's duration on the event-driven scheduler's timeline.

This module holds the driver, the tracing and kernel-memo plumbing, and
the **row executor** (``executor_mode="row"``): tuple-at-a-time
generators that are the reference the differential tests and the
benchmark's oracle compare the vectorized operators of
:mod:`repro.executor.batch_ops` against. The two agree on every result
row and on every charge, to the last float bit.

One deliberate change rides the per-message latency contract: a motion
*receive* charges bandwidth only (``messages=0``) — its latency lives on
the scheduler's cross-timeline edge instead of being double-counted.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterator, List, Tuple

from repro.catalog.schema import hash_values
from repro.errors import ExecutorError
from repro.executor.aggregates import make_state
from repro.executor.batch_ops import BatchOperators
from repro.executor.expr import RowSizer, compile_expr, compile_expr_batch
from repro.interconnect.exchange import ExchangeFabric
from repro.planner import exprs as ex
from repro.planner.dispatch import SliceTask
from repro.planner.physical import (
    ExternalScan,
    Filter,
    HashAgg,
    HashJoin,
    Limit,
    Motion,
    MotionRecv,
    NestLoopJoin,
    PlanNode,
    Project,
    Result,
    SeqScan,
    Sort,
    SubqueryScan,
)
from repro.simtime import CostAccumulator


@dataclass
class SliceProviders:
    """Segment-local data sources a worker lends to its executor."""

    #: scan(table_source, partitions, segment_id, columns, acc) -> rows
    scan: Callable
    #: batch_scan(...) -> iterator of (row_count, {col: values}) or None
    batch_scan: Callable
    #: external(table_source, segment_id, columns, pushed, acc) -> rows
    external: Callable


class SliceExecutor(BatchOperators):
    """Runs one (slice, segment) task to completion."""

    def __init__(
        self,
        root: PlanNode,
        task: SliceTask,
        ctx,
        providers: SliceProviders,
        exchange: ExchangeFabric,
        acc: CostAccumulator,
    ):
        self.root = root
        self.task = task
        self.ctx = ctx
        self.providers = providers
        self.exchange = exchange
        self.acc = acc
        self.segment = task.segment
        #: Rows / bytes pushed through this slice's root motion.
        self.rows_out = 0
        self.bytes_out = 0

    # ----------------------------------------------------- kernel memoization
    # Compiled row/batch kernels are cached on the statement's
    # ``ctx.kernel_cache`` keyed by (kind, id(expr), layout): the same
    # plan node re-dispatched to N segments (or re-run after a chaos
    # retry) compiles its expressions once, not N times. The key is the
    # identity of one statement's plan nodes, so the memo lives and dies
    # with that statement's context. The cached expr object is held
    # strongly so a dead expr's id can't alias a new one, and params are
    # equality-checked because a retried query rebinds InitPlan params
    # on a copy of the context (which shares the memo).
    def _compiled(self, kind: str, expr, layout, compiler, **form):
        cache = self.ctx.kernel_cache
        params = self.ctx.params
        key = (kind, id(expr), tuple(layout))
        hit = cache.get(key)
        if hit is not None and hit[0] is expr and hit[1] == params:
            return hit[2]
        fn = compiler(expr, layout, params, **form)
        cache[key] = (expr, params, fn)
        return fn

    def _compile_row(self, expr, layout):
        return self._compiled("row", expr, layout, compile_expr)

    def _compile_batch(self, expr, layout):
        return self._compiled("batch", expr, layout, compile_expr_batch)

    def _compile_predicate(self, expr, layout):
        """The predicate form: ``fn(cols, n, sel)`` -> the rows at which
        ``expr`` is TRUE (filters, HAVING, join residuals)."""
        return self._compiled(
            "predicate", expr, layout, compile_expr_batch, predicate=True
        )

    # ---------------------------------------------------------------- driver
    def run(self) -> List[tuple]:
        """Execute the slice; returns rows only for the top slice.

        The vectorized executor's one batch→row boundary is here: the
        top slice's batches become the statement's result tuples."""
        if self.ctx.executor_mode == "batch":
            rows = chain.from_iterable(
                batch.to_rows()
                for batch in self._run_node_batches(
                    self.root, self.segment, self.acc
                )
            )
        else:
            rows = self._run_node(self.root, self.segment, self.acc)
        # Non-top slice roots are Motions, which push their streams to
        # the exchange and yield nothing.
        result = list(rows)
        if self.task.is_top:
            self.rows_out = len(result)
        return result

    # ---------------------------------------------------------------- tracing
    # Observability is passive: the helpers below only *read*
    # ``acc.seconds`` and record marks on ``ctx.trace``; they never
    # charge the accumulator, so traced and untraced runs stay
    # bit-identical in both results and simulated cost.
    @staticmethod
    def _span_name(node: PlanNode) -> str:
        name = type(node).__name__
        if isinstance(node, SeqScan):
            return f"{name}[{node.table.table_name}]"
        if isinstance(node, Motion):
            return f"{name}[{node.kind}]"
        phase = getattr(node, "phase", None)
        if phase:
            return f"{name}[{phase}]"
        return name

    def _mark(
        self, node: PlanNode, acc: CostAccumulator, t0: float, **attrs
    ) -> None:
        trace = self.ctx.trace
        if trace is not None:
            trace.op_mark(
                self.task.slice_id,
                self.segment,
                self._span_name(node),
                t0,
                acc.seconds,
                node_key=id(node),
                **attrs,
            )

    def _traced(
        self, it: Iterator[tuple], node: PlanNode, acc: CostAccumulator, t0: float
    ) -> Iterator[tuple]:
        emitted = 0
        try:
            for row in it:
                emitted += 1
                yield row
        finally:
            self._mark(node, acc, t0, rows=emitted)

    # -------------------------------------------------------------- operators
    def _run_node(
        self, node: PlanNode, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        if self.ctx.trace is None:
            return self._node_rows(node, segment, acc)
        # Capture t0 *before* dispatch: eager operators (Motion, Sort,
        # MotionRecv) do their work inside the dispatch call itself.
        t0 = acc.seconds
        return self._traced(self._node_rows(node, segment, acc), node, acc, t0)

    def _node_rows(
        self, node: PlanNode, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        if isinstance(node, Motion):
            return self._run_motion(node, segment, acc)
        if isinstance(node, MotionRecv):
            return self._run_motion_recv(node, segment, acc)
        if isinstance(node, SeqScan):
            return self._run_seqscan(node, segment, acc)
        if isinstance(node, ExternalScan):
            return self._run_external(node, segment, acc)
        if isinstance(node, SubqueryScan):
            return self._run_node(node.child, segment, acc)
        if isinstance(node, Filter):
            return self._run_filter(node, segment, acc)
        if isinstance(node, Project):
            return self._run_project(node, segment, acc)
        if isinstance(node, HashJoin):
            return self._run_hash_join(node, segment, acc)
        if isinstance(node, NestLoopJoin):
            return self._run_nest_loop(node, segment, acc)
        if isinstance(node, HashAgg):
            return self._run_hash_agg(node, segment, acc)
        if isinstance(node, Sort):
            return self._run_sort(node, segment, acc)
        if isinstance(node, Limit):
            return self._run_limit(node, segment, acc)
        if isinstance(node, Result):
            return self._run_result(node, segment, acc)
        raise ExecutorError(f"no executor for {type(node).__name__}")

    # ------------------------------------------------------------------ scans
    def _run_seqscan(
        self, node: SeqScan, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        if self.providers.scan is None:
            raise ExecutorError("no scan provider configured")
        predicate = (
            self._compile_row(node.filter, self._scan_layout(node))
            if node.filter is not None
            else None
        )
        count = 0
        for row in self.providers.scan(
            node.table, node.partitions, segment, node.columns, acc
        ):
            count += 1
            if predicate is not None and predicate(row) is not True:
                continue
            yield tuple(row[c] for c in node.columns)
        acc.cpu_tuples(count, ncolumns=len(node.columns))

    def _scan_layout(self, node) -> List[tuple]:
        """Scan filters see the table's full row shape."""
        ncols = len(node.table.schema.columns)
        return [("r", node.rel, c) for c in range(ncols)]

    def _run_external(
        self, node: ExternalScan, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        if self.providers.external is None:
            raise ExecutorError("no external (PXF) provider configured")
        predicate = (
            self._compile_row(node.filter, self._scan_layout(node))
            if node.filter is not None
            else None
        )
        count = 0
        for row in self.providers.external(
            node.table, segment, node.columns, node.pushed_filters, acc
        ):
            count += 1
            if predicate is not None and predicate(row) is not True:
                continue
            yield tuple(row[c] for c in node.columns)
        acc.cpu_tuples(count, ncolumns=len(node.columns))

    # ---------------------------------------------------------------- motions
    def _run_motion(
        self, node: Motion, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        receivers = self.task.receivers
        hash_fns = [
            self._compile_row(e, node.child.layout) for e in node.hash_exprs
        ]
        buffers: Dict[int, List[tuple]] = defaultdict(list)
        buffer_bytes: Dict[int, int] = defaultdict(int)
        sent_bytes = 0
        count = 0
        sizer = RowSizer()
        for row in self._run_node(node.child, segment, acc):
            count += 1
            size = sizer(row)
            if node.kind == "gather":
                targets = [receivers[0]]
            elif node.kind == "broadcast":
                targets = receivers
            else:
                key = tuple(fn(row) for fn in hash_fns)
                targets = [receivers[hash_values(key, len(receivers))]]
            for target in targets:
                buffers[target].append(row)
                buffer_bytes[target] += size
                sent_bytes += size
        self._charge_send(acc, count, sent_bytes, len(receivers))
        for target in sorted(buffers):
            self.rows_out += len(buffers[target])
            self.bytes_out += buffer_bytes[target]
            self.exchange.send(
                self.ctx.query_id,
                self.task.slice_id,
                segment,
                target,
                buffers[target],
                buffer_bytes[target],
            )
        return iter(())

    def _charge_send(
        self, acc: CostAccumulator, rows: int, nbytes: int, nreceivers: int
    ) -> None:
        model = self.ctx.cost_model
        acc.cpu_bytes(nbytes, model.cpu_net_byte)
        # Stream concurrency is a property of the *real* cluster being
        # modeled (96 segments in the paper's testbed), not of however
        # many segments this process simulates.
        real_segments = (
            model.modeled_segments
            if model.modeled_segments
            else self.ctx.num_segments
        )
        if self.ctx.interconnect == "tcp":
            streams = real_segments * max(self.task.num_plan_slices - 1, 1)
            bandwidth = model.net_bw / (
                1 + model.tcp_concurrency_penalty * streams
            )
            acc.fixed(model.tcp_conn_setup * real_segments * (nreceivers > 1))
            acc.network(nbytes, bandwidth)
        else:
            acc.fixed(model.udp_conn_setup * real_segments)
            acc.network(int(nbytes * (1 + model.udp_byte_overhead)))

    def _run_motion_recv(
        self, node: MotionRecv, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        streams, nbytes = self.exchange.receive(
            self.ctx.query_id, node.slice_id, segment
        )
        model = self.ctx.cost_model
        acc.cpu_bytes(nbytes, model.cpu_net_byte)
        # Bandwidth only: the receive's latency is the scheduler edge
        # from the sending task's timeline to this one.
        acc.network(nbytes, messages=0)
        return chain.from_iterable(streams)

    # -------------------------------------------------------------- filtering
    def _run_filter(
        self, node: Filter, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        predicate = self._compile_row(node.cond, node.child.layout)
        count = 0
        for row in self._run_node(node.child, segment, acc):
            count += 1
            if predicate(row) is True:
                yield row
        acc.cpu_tuples(count, weight=0.5)

    def _run_project(
        self, node: Project, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        fns = [self._compile_row(e, node.child.layout) for e in node.exprs]
        count = 0
        for row in self._run_node(node.child, segment, acc):
            count += 1
            yield tuple(fn(row) for fn in fns)
        acc.cpu_tuples(count, ncolumns=len(fns))

    # ------------------------------------------------------------------ joins
    def _run_hash_join(
        self, node: HashJoin, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        residual = (
            self._compile_row(node.residual, node.layout_for_residual())
            if node.residual is not None
            else None
        )
        # Build side (right).
        table: Dict[tuple, List[tuple]] = defaultdict(list)
        build_count = 0
        build_bytes = 0
        sizer = RowSizer()
        for row, key in self._keyed_rows(
            node.right, node.right_keys, segment, acc
        ):
            if any(k is None for k in key):
                continue  # NULL never matches an equality key
            table[key].append(row)
            build_count += 1
            build_bytes += sizer(row)
        acc.cpu_tuples(build_count, weight=1.2)
        self._charge_spill(acc, build_bytes)

        probe_count = 0
        out_count = 0
        join_type = node.join_type
        pad = (None,) * len(node.right.layout)
        for row, key in self._keyed_rows(
            node.left, node.left_keys, segment, acc
        ):
            probe_count += 1
            matches = table.get(key, []) if not any(k is None for k in key) else []
            if residual is not None and matches:
                matches = [m for m in matches if residual(row + m) is True]
            if join_type == "inner":
                for match in matches:
                    out_count += 1
                    yield row + match
            elif join_type == "left":
                if matches:
                    for match in matches:
                        out_count += 1
                        yield row + match
                else:
                    out_count += 1
                    yield row + pad
            elif join_type == "semi":
                if matches:
                    out_count += 1
                    yield row
            elif join_type == "anti":
                if not matches:
                    out_count += 1
                    yield row
            else:  # pragma: no cover
                raise ExecutorError(f"unknown join type {join_type!r}")
        acc.cpu_tuples(probe_count, weight=1.0)
        acc.cpu_tuples(out_count, weight=0.3)

    def _keyed_rows(
        self,
        node: PlanNode,
        key_exprs: List[ex.BoundExpr],
        segment: int,
        acc: CostAccumulator,
    ) -> Iterator[Tuple[tuple, tuple]]:
        """Yield ``(row, key)`` pairs for a join input."""
        fns = [self._compile_row(e, node.layout) for e in key_exprs]
        for row in self._run_node(node, segment, acc):
            yield row, tuple(fn(row) for fn in fns)

    def _run_nest_loop(
        self, node: NestLoopJoin, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        inner = list(self._run_node(node.right, segment, acc))
        cond = (
            self._compile_row(node.cond, node.layout_for_residual())
            if node.cond is not None
            else None
        )
        counts = [0, 0]  # outer rows, comparisons
        yield from self._nest_loop_rows(
            node, self._run_node(node.left, segment, acc), inner, cond, counts
        )
        acc.cpu_tuples(counts[1], weight=0.3)
        acc.cpu_tuples(counts[0], weight=0.5)

    @staticmethod
    def _nest_loop_rows(
        node: NestLoopJoin,
        outer: Iterator[tuple],
        inner: List[tuple],
        cond,
        counts: List[int],
    ) -> Iterator[tuple]:
        """The nested loop proper, shared by both executors (a join
        without keys has nothing to vectorize on). Adds the outer rows
        and comparisons it performs to ``counts``."""
        join_type = node.join_type
        pad = (None,) * len(node.right.layout)
        for row in outer:
            counts[0] += 1
            counts[1] += len(inner)
            if cond is None:
                matches = inner
            else:
                matches = [m for m in inner if cond(row + m) is True]
            if join_type == "inner":
                for match in matches:
                    yield row + match
            elif join_type == "left":
                if matches:
                    for match in matches:
                        yield row + match
                else:
                    yield row + pad
            elif join_type == "semi":
                if matches:
                    yield row
            elif join_type == "anti":
                if not matches:
                    yield row

    # ------------------------------------------------------------ aggregation
    def _run_hash_agg(
        self, node: HashAgg, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        child_layout = node.child.layout
        phase = node.phase
        nkeys = len(node.group_keys)
        groups: Dict[tuple, List] = {}
        count = 0
        if phase == "final":
            # Input rows are (group values..., states...) from partials.
            for row in self._run_node(node.child, segment, acc):
                count += 1
                key = row[:nkeys]
                states = row[nkeys:]
                slot = groups.get(key)
                if slot is None:
                    groups[key] = list(states)
                else:
                    for mine, theirs in zip(slot, states):
                        mine.merge(theirs)
            acc.cpu_tuples(count, weight=1.0 + 0.3 * len(node.aggs))
            for key, states in groups.items():
                yield key + tuple(state.finalize() for state in states)
            return

        group_bytes = 0
        sizer = RowSizer()
        key_fns = [self._compile_row(e, child_layout) for e in node.group_keys]
        arg_fns = [
            self._compile_row(a.arg, child_layout) if a.arg is not None else None
            for a in node.aggs
        ]
        for row in self._run_node(node.child, segment, acc):
            count += 1
            key = tuple(fn(row) for fn in key_fns)
            states = groups.get(key)
            if states is None:
                states = [make_state(a) for a in node.aggs]
                groups[key] = states
                group_bytes += sizer(key) + 16 * len(states)
            for state, arg_fn in zip(states, arg_fns):
                state.accumulate(arg_fn(row) if arg_fn is not None else 1)
        acc.cpu_tuples(count, weight=1.2 + 0.3 * len(node.aggs))
        self._charge_spill(acc, group_bytes)
        if not groups and not node.group_keys and node.aggs:
            # Aggregate over empty input still yields one row.
            groups[()] = [make_state(a) for a in node.aggs]
        if phase == "partial":
            for key, states in groups.items():
                yield key + tuple(states)
        else:  # single
            for key, states in groups.items():
                yield key + tuple(state.finalize() for state in states)

    # ------------------------------------------------------------- sort/limit
    def _run_sort(
        self, node: Sort, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        rows = list(self._run_node(node.child, segment, acc))
        key_fns = [
            (
                self._compile_row(k.expr, node.child.layout),
                k.ascending,
                k.nulls_first,
            )
            for k in node.keys
        ]
        # Stable multi-key sort: apply keys right-to-left. Each pass
        # evaluates its key expression once per row up front and sorts an
        # index array over the decorated values, so the per-comparison
        # path never re-enters the compiled closure chain.
        for fn, ascending, nulls_first in reversed(key_fns):
            if nulls_first is None:
                # PostgreSQL defaults: NULLS LAST ascending, FIRST descending.
                nulls_first = not ascending
            if ascending:
                null_bucket = 0 if nulls_first else 2
            else:
                # The whole sort is reversed, so the bucket order flips too.
                null_bucket = 2 if nulls_first else 0
            decorated = [
                (null_bucket, 0) if value is None else (1, value)
                for value in map(fn, rows)
            ]
            # sorted(reverse=True) keeps equal elements in their original
            # order, so descending passes stay stable too.
            order = sorted(
                range(len(rows)),
                key=decorated.__getitem__,
                reverse=not ascending,
            )
            rows = [rows[i] for i in order]
        count = len(rows)
        if count > 1:
            acc.cpu_tuples(count, weight=0.25 * math.log2(count))
        sizer = RowSizer()
        self._charge_spill(acc, sum(sizer(r) for r in rows))
        return iter(rows)

    def _run_limit(
        self, node: Limit, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        produced = 0
        rows = self._run_node(node.child, segment, acc)
        try:
            for row in rows:
                if produced >= node.count:
                    break
                produced += 1
                yield row
        finally:
            # Close eagerly so the child's finally-charges (abandoned
            # scans still pay for what they read) land inside this
            # task's accumulator window, not at GC time.
            close = getattr(rows, "close", None)
            if close is not None:
                close()

    def _run_result(
        self, node: Result, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        fns = [self._compile_row(e, []) for e in node.exprs]
        acc.cpu_tuples(1, ncolumns=len(fns))
        yield tuple(fn(()) for fn in fns)

    # ---------------------------------------------------------------- spilling
    def _charge_spill(self, acc: CostAccumulator, actual_bytes: int) -> None:
        """Charge simulated IO when an operator's nominal working set
        exceeds work_mem (external sort / spilling hash tables)."""
        model = self.ctx.cost_model
        nominal = actual_bytes * model.scale
        if nominal <= self.ctx.work_mem:
            return
        spilled = nominal - self.ctx.work_mem
        # Written once and read back once, at local-disk bandwidth;
        # nominal bytes, so bypass the scaled disk_read/write helpers.
        acc.seconds += 2 * spilled / model.disk_seq_bw
        acc.disk_write_bytes += int(spilled / max(model.scale, 1e-9))
