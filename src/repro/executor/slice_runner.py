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
only what *both* executors run: the row sources (PXF scans, ``Result``),
the nested-loop pair walk and the charge helpers. A ``SeqScan`` reaches
both executors as the blocks of one provider; the row executor reads
them as rows here (``_run_scan``), the vectorized one as batches.
The operators are two independent implementations that agree on every
result row and on every charge, to the last float bit — the vectorized
ones of :mod:`repro.executor.batch_ops` (production) and the
tuple-at-a-time reference of :mod:`repro.executor.row_ops`
(``executor_mode="row"``: the differential tests and the benchmark's
oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, List

from repro.errors import ExecutorError
from repro.executor.batch_ops import BatchOperators
from repro.executor.expr import compile_expr, compile_expr_batch
from repro.executor.row_ops import RowOperators
from repro.interconnect.exchange import ExchangeFabric
from repro.planner.dispatch import SliceTask
from repro.planner.physical import (
    ExternalScan,
    Motion,
    NestLoopJoin,
    PlanNode,
    Result,
    SeqScan,
)
from repro.simtime import CostAccumulator
from repro.storage.base import rows_from_blocks


@dataclass
class SliceProviders:
    """Segment-local data sources a worker lends to its executor."""

    #: scan(table_source, partitions, segment_id, columns, acc, late=())
    #: -> iterator of (row_count, {column_index: values}) blocks; a
    #: column of ``late`` may come as a ``storage.base.LateChunk``
    scan: Callable
    #: external(table_source, segment_id, columns, pushed, acc) -> rows
    external: Callable


class SliceExecutor(RowOperators, BatchOperators):
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
        #: Rows the root motion took from its child: a broadcast row
        #: counts once, however many receivers it reached.
        self.motion_rows = 0

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
            if isinstance(node, Motion):
                # A sender yields nothing to a parent: its actual rows
                # are the ones it sent.
                attrs["rows"] = self.motion_rows
            trace.op_mark(
                self.task.slice_id,
                self.segment,
                self._span_name(node),
                t0,
                acc.seconds,
                node_key=id(node),
                **attrs,
            )

    # ------------------------------------------------------------ row sources
    def _node_rows(
        self, node: PlanNode, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        """Rows of one node. The row sources (PXF scans, ``Result``) are
        what both executors run; a ``SeqScan`` read as rows and every
        operator above are the reference executor's."""
        if isinstance(node, (SeqScan, ExternalScan)):
            return self._run_scan(node, segment, acc)
        if isinstance(node, Result):
            return self._run_result(node, segment, acc)
        return self._operator_rows(node, segment, acc)

    def _run_scan(self, node, segment: int, acc: CostAccumulator) -> Iterator[tuple]:
        """A table's rows (``SeqScan``) or an external source's
        (``ExternalScan``), filtered and cut to ``node.columns``."""
        external = isinstance(node, ExternalScan)
        provider = self.providers.external if external else self.providers.scan
        if provider is None:
            raise ExecutorError(
                "no external (PXF) provider configured"
                if external
                else "no scan provider configured"
            )
        predicate = (
            self._compile_row(node.filter, self._scan_layout(node))
            if node.filter is not None
            else None
        )
        rows = (
            provider(node.table, segment, node.columns, node.pushed_filters, acc)
            if external
            else rows_from_blocks(
                provider(node.table, node.partitions, segment, node.columns, acc),
                len(node.table.schema.columns),
            )
        )
        count = 0
        for row in rows:
            count += 1
            if predicate is not None and predicate(row) is not True:
                continue
            yield tuple(row[c] for c in node.columns)
        acc.cpu_tuples(count, ncolumns=len(node.columns))

    def _scan_layout(self, node) -> List[tuple]:
        """Scan filters see the table's full row shape."""
        ncols = len(node.table.schema.columns)
        return [("r", node.rel, c) for c in range(ncols)]

    def _run_result(
        self, node: Result, segment: int, acc: CostAccumulator
    ) -> Iterator[tuple]:
        fns = [self._compile_row(e, []) for e in node.exprs]
        acc.cpu_tuples(1, ncolumns=len(fns))
        yield tuple(fn(()) for fn in fns)

    # ------------------------------------------------------------ nested loop
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

    # ---------------------------------------------------------------- charges
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
