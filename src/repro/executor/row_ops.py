"""The reference operators: every node of a slice, one tuple at a time.

:class:`RowOperators` is the ``executor_mode="row"`` half of
:class:`~repro.executor.slice_runner.SliceExecutor` and the sibling of
:class:`~repro.executor.batch_ops.BatchOperators`: generators over
tuples, written for being obviously right, not fast. Nothing in
production selects it — it is what the differential tests and the
benchmark's oracle hold the vectorized operators to, on every result row
and on every charge, to the last float bit.

The two executors stay independent implementations: no function here is
called from ``batch_ops.py`` and none of its from here. What both run —
the row sources, the nested-loop pair walk and the charge helpers —
lives in ``slice_runner.py``.

One deliberate change rides the per-message latency contract: a motion
*receive* charges bandwidth only (``messages=0``) — its latency lives on
the scheduler's cross-timeline edge instead of being double-counted.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain
from typing import Dict, Iterator, List, Tuple

from repro.catalog.schema import hash_values
from repro.errors import ExecutorError
from repro.executor.aggregates import make_state
from repro.executor.expr import RowSizer
from repro.planner import exprs as ex
from repro.planner.physical import (
    Filter,
    HashAgg,
    HashJoin,
    Limit,
    Motion,
    MotionRecv,
    NestLoopJoin,
    PlanNode,
    Project,
    Sort,
    SubqueryScan,
)
from repro.simtime import CostAccumulator


class RowOperators:
    """Mixin over ``SliceExecutor``: ``_run_node`` and below."""

    # ---------------------------------------------------------------- driver
    def _run_node(
        self, node: PlanNode, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        if self.ctx.trace is None:
            return self._node_rows(node, segment, acc)
        # Capture t0 *before* dispatch: eager operators (Motion, Sort,
        # MotionRecv) do their work inside the dispatch call itself.
        t0 = acc.seconds
        return self._traced(self._node_rows(node, segment, acc), node, acc, t0)

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

    def _operator_rows(
        self, node: PlanNode, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        if isinstance(node, Motion):
            return self._run_motion(node, segment, acc)
        if isinstance(node, MotionRecv):
            return self._run_motion_recv(node, segment, acc)
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
        raise ExecutorError(f"no executor for {type(node).__name__}")

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
        self.motion_rows = count
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
