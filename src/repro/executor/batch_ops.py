"""The vectorized operators: every node of a slice on ColumnBatches.

:class:`BatchOperators` is the ``executor_mode="batch"`` half of
:class:`~repro.executor.slice_runner.SliceExecutor`. Every operator
consumes and emits :class:`~repro.executor.batch.ColumnBatch` objects —
scan, filter and project narrow a selection vector; hash join probes a
whole batch against a key → build-row-index table and gathers each
output column once; hash aggregation folds columns into per-group
accumulators by factorized group code; a motion places a batch with one
columnar hash over the key columns and ships one batch per receiver —
so rows exist as tuples only where a row-shaped source or sink forces
them: a ``NestLoopJoin``'s condition loop, the sources that only exist
as rows (PXF, ``Result``), and the top slice's return.

Two contracts shape every operator here:

* **Charges.** Each ``acc.*`` call is made with the same arguments, in
  the same order relative to the others, as the reference operator in
  ``row_ops.py`` makes it — so simulated seconds agree to the last
  float bit. Per-operator CPU charges trail the input loop, which a
  consumer that stops early (LIMIT) skips in both executors.
* **One batch in, at most one batch out, never an empty one.** A
  pipelined operator turns each input batch into at most one output
  batch, so "the consumer asked for more" means the same thing as in
  the row executor — the rows so far were not enough — and a LIMIT
  abandons a scan after the same storage block either way.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

from repro.catalog.schema import hash_columns
from repro.columnar import ConstVector, as_list, take_columns
from repro.errors import ExecutorError
from repro.executor.batch import DEFAULT_BATCH_ROWS, ColumnBatch
from repro.executor.expr import column_ref_position
from repro.executor.vecagg import GroupTable
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
    SeqScan,
    Sort,
    SubqueryScan,
)
from repro.simtime import CostAccumulator
from repro.storage.base import LateChunk, converts_late

Batches = Iterator[ColumnBatch]


def _bounded_by_limit(root: PlanNode, target: PlanNode) -> bool:
    """Does a LIMIT consume ``target``'s rows as they stream, with no
    operator between that drains its whole input first?"""

    def search(node: PlanNode, bounded: bool) -> Optional[bool]:
        if node is target:
            return bounded
        if isinstance(node, Limit):
            streams = [(node.child, True)]
        elif isinstance(node, (Filter, Project, SubqueryScan)):
            streams = [(node.child, bounded)]
        elif isinstance(node, (HashJoin, NestLoopJoin)):
            # The probe/outer side streams; the build/inner side drains.
            streams = [(node.left, bounded), (node.right, False)]
        else:  # Sort, HashAgg, Motion: blocking
            streams = [(child, False) for child in node.children]
        for child, flag in streams:
            found = search(child, flag)
            if found is not None:
                return found
        return None

    return bool(search(root, False))


def _join_keys(key_cols: List[list]) -> list:
    """Hashable join key per row, None where SQL says it cannot match
    (any NULL component). One key column joins on the bare value."""
    if len(key_cols) == 1:
        return key_cols[0]
    keys = list(zip(*key_cols))
    if any(None in col for col in key_cols):
        keys = [None if None in key else key for key in keys]
    return keys


def _late_positions(expr, columns, params, schema) -> Tuple[int, ...]:
    """The positions in a scan's ``columns`` of the columns its filter
    ``expr`` does not read and that convert late: a CO or Parquet scan
    converts their values only at the rows the filter keeps
    (``storage.base.LateChunk``)."""
    read = {var.col for var in ex.vars_of(expr)}
    return tuple(
        p for p, c in enumerate(columns)
        if c not in read and converts_late(schema.columns[c])
    )


class BatchOperators:
    """Mixin over ``SliceExecutor``: ``_run_node_batches`` and below."""

    # ---------------------------------------------------------------- driver
    def _run_node_batches(
        self, node: PlanNode, segment: int, acc: CostAccumulator
    ) -> Batches:
        """Vectorized execution of a subtree.

        Yields non-empty :class:`ColumnBatch` objects: column vectors in
        ``node.layout`` order plus a selection vector.
        """
        trace = self.ctx.trace
        if trace is None:
            return self._node_batches(node, segment, acc)
        # Capture t0 *before* dispatch: eager operators (Motion, Sort,
        # MotionRecv) do their work inside the dispatch call itself.
        t0 = acc.seconds
        return self._traced_batches(
            self._node_batches(node, segment, acc), node, acc, t0
        )

    def _traced_batches(
        self, it: Batches, node: PlanNode, acc: CostAccumulator, t0: float
    ) -> Batches:
        emitted = 0
        try:
            for batch in it:
                emitted += batch.count
                yield batch
        finally:
            self._mark(node, acc, t0, rows=emitted)

    def _node_batches(
        self, node: PlanNode, segment: int, acc: CostAccumulator
    ) -> Batches:
        if isinstance(node, Motion):
            return self._motion_batches(node, segment, acc)
        if isinstance(node, MotionRecv):
            return self._motion_recv_batches(node, segment, acc)
        if isinstance(node, SeqScan):
            return self._scan_batches(node, segment, acc)
        if isinstance(node, SubqueryScan):
            # Pass-through: positions are unchanged, only labels differ.
            return self._run_node_batches(node.child, segment, acc)
        if isinstance(node, Filter):
            return self._filter_batches(node, segment, acc)
        if isinstance(node, Project):
            return self._project_batches(node, segment, acc)
        if isinstance(node, HashJoin):
            return self._hash_join_batches(node, segment, acc)
        if isinstance(node, NestLoopJoin):
            return self._nest_loop_batches(node, segment, acc)
        if isinstance(node, HashAgg):
            return self._hash_agg_batches(node, segment, acc)
        if isinstance(node, Sort):
            return self._sort_batches(node, segment, acc)
        if isinstance(node, Limit):
            return self._limit_batches(node, segment, acc)
        # ExternalScan, Result: sources that only exist as rows.
        return self._row_source_batches(
            node, self._node_rows(node, segment, acc)
        )

    def _row_source_batches(self, node: PlanNode, rows: Iterator[tuple]) -> Batches:
        """Column batches over a leaf that can only produce tuples.

        Under a streaming LIMIT the rows are handed on one at a time:
        pulling further ahead than the row executor would could run the
        source to its end, and its trailing charges with it, where the
        row executor abandons it."""
        size = 1 if _bounded_by_limit(self.root, node) else DEFAULT_BATCH_ROWS
        ncols = len(node.layout)
        while True:
            chunk = list(islice(rows, size))
            if not chunk:
                return
            yield ColumnBatch.from_rows(chunk, ncols)

    # ------------------------------------------------------------------ scans
    def _scan_batches(
        self, node: SeqScan, segment: int, acc: CostAccumulator
    ) -> Batches:
        out_positions = list(node.columns)
        late_positions = late = ()
        if node.filter is not None and node.table.schema.storage_format != "ao":
            late_positions = self._compiled(
                "late", node.filter, out_positions, _late_positions,
                schema=node.table.schema,
            )
            late = [out_positions[p] for p in late_positions]
        source = self.providers.scan(
            node.table, node.partitions, segment, node.columns, acc, late
        )
        predicate = (
            self._compile_predicate(node.filter, self._scan_layout(node))
            if node.filter is not None
            else None
        )
        ncols = len(node.table.schema.columns)

        def gen():
            count = 0
            for row_count, vectors in source:
                count += row_count
                if predicate is None:
                    yield ColumnBatch(
                        [vectors[c] for c in out_positions], row_count
                    )
                    continue
                # The scan filter is compiled against the full table row
                # shape; the planner guarantees every referenced column
                # is decoded, so unrequested positions never get read.
                # Undecoded columns share one NULL constant — the same
                # None placeholders the row-path provider materializes.
                placeholder = ConstVector(None, row_count)
                full = [vectors.get(c, placeholder) for c in range(ncols)]
                sel = predicate(full, row_count, None)
                columns = [vectors[c] for c in out_positions]
                if late_positions:
                    # A late column converts at the kept rows: whole when
                    # every row is kept, its checks alone when none is.
                    keep = None if len(sel) == row_count else sel
                    for p in late_positions:
                        column = columns[p]
                        if type(column) is LateChunk:
                            columns[p] = column.values(keep)
                if len(sel) == row_count:
                    yield ColumnBatch(columns, row_count)
                elif sel:
                    # Survivors ride as a selection vector; the copy is
                    # deferred to the operator that builds new columns.
                    yield ColumnBatch(columns, row_count, sel)
            acc.cpu_tuples(count, ncolumns=len(node.columns))

        return gen()

    # ----------------------------------------------------- filter and project
    def _filter_batches(
        self, node: Filter, segment: int, acc: CostAccumulator
    ) -> Batches:
        child = self._run_node_batches(node.child, segment, acc)
        predicate = self._compile_predicate(node.cond, node.child.layout)
        count = 0
        for batch in child:
            count += batch.count
            sel = predicate(batch.columns, batch.nrows, batch.sel)
            if len(sel) == batch.count:
                yield batch
            elif sel:
                # Narrow the selection only — no column copies.
                yield ColumnBatch(batch.columns, batch.nrows, sel)
        acc.cpu_tuples(count, weight=0.5)

    def _project_batches(
        self, node: Project, segment: int, acc: CostAccumulator
    ) -> Batches:
        child = self._run_node_batches(node.child, segment, acc)
        positions = [
            column_ref_position(e, node.child.layout) for e in node.exprs
        ]
        count = 0
        if all(p is not None for p in positions):
            # Pure column permutation: alias the child's vectors and keep
            # its selection — zero compute, zero copies.
            for batch in child:
                count += batch.count
                yield ColumnBatch(
                    [batch.columns[p] for p in positions],
                    batch.nrows,
                    batch.sel,
                )
        else:
            fns = [self._compile_batch(e, node.child.layout) for e in node.exprs]
            for batch in child:
                count += batch.count
                # Computed projections evaluate through the selection, so
                # the output batch is dense (no sel) over the live rows.
                yield ColumnBatch(
                    [fn(batch.columns, batch.nrows, batch.sel) for fn in fns],
                    batch.count,
                )
        acc.cpu_tuples(count, ncolumns=len(positions))

    # ------------------------------------------------------------------ joins
    def _key_columns(self, fns, batch: ColumnBatch) -> List[list]:
        return [
            as_list(fn(batch.columns, batch.nrows, batch.sel)) for fn in fns
        ]

    def _hash_join_batches(
        self, node: HashJoin, segment: int, acc: CostAccumulator
    ) -> Batches:
        """Hash join on key vectors.

        The build side becomes one dense batch and a dict from key to
        its build-row indices (a bare int while keys are unique, which a
        primary-key build side always is). A probe batch is looked up in
        one C-level ``map``; the result is a pair of index vectors
        ``(probe row, build row)`` in the row executor's output order —
        probe order, matches in build-insertion order — and each output
        column is gathered once from them.
        """
        join_type = node.join_type
        if join_type not in ("inner", "left", "semi", "anti"):
            raise ExecutorError(f"unknown join type {join_type!r}")
        residual = (
            self._compile_predicate(node.residual, node.layout_for_residual())
            if node.residual is not None
            else None
        )
        nkeys = len(node.right_keys)

        # ---- build side (right): rows whose key holds a NULL can never
        # match, and the row executor neither stores nor charges them.
        key_fns = [self._compile_batch(e, node.right.layout) for e in node.right_keys]
        kept: List[ColumnBatch] = []
        build_keys: list = []
        for batch in self._run_node_batches(node.right, segment, acc):
            if nkeys:
                keys = _join_keys(self._key_columns(key_fns, batch))
                if None in keys:
                    live = [i for i, key in enumerate(keys) if key is not None]
                    if not live:
                        continue
                    keys = [keys[i] for i in live]
                    batch = batch.select(live)
                build_keys.extend(keys)
            kept.append(batch)
        build = ColumnBatch.concat(kept) if kept else None
        build_count = build.nrows if build is not None else 0
        acc.cpu_tuples(build_count, weight=1.2)
        self._charge_spill(acc, build.nbytes() if build is not None else 0)
        build_cols = build.columns if build is not None else [
            [] for _ in node.right.layout
        ]
        if join_type == "left":
            # A trailing NULL per column: build index -1 pads a probe
            # row that found no match.
            build_cols = [as_list(col) + [None] for col in build_cols]

        everything = list(range(build_count))
        if not nkeys:
            lookup = None
            unique = False
        else:
            table = dict(zip(build_keys, everything))
            unique = len(table) == build_count
            if not unique:
                table = defaultdict(list)
                for index, key in enumerate(build_keys):
                    table[key].append(index)
            lookup = table.get

        # ---- probe side (left), one batch at a time.
        key_fns = [self._compile_batch(e, node.left.layout) for e in node.left_keys]
        probe_count = 0
        out_count = 0
        for batch in self._run_node_batches(node.left, segment, acc):
            n = batch.count
            probe_count += n
            if lookup is None:  # zero-key join: every pair is a candidate
                hits = [everything] * n if build_count else [None] * n
            else:
                hits = list(
                    map(lookup, _join_keys(self._key_columns(key_fns, batch)))
                )
            out = self._join_output(
                batch, hits, unique, join_type, build_cols, residual
            )
            if out is not None:
                out_count += out.count
                yield out
        acc.cpu_tuples(probe_count, weight=1.0)
        acc.cpu_tuples(out_count, weight=0.3)

    def _join_output(
        self,
        batch: ColumnBatch,
        hits: list,
        unique: bool,
        join_type: str,
        build_cols: List[object],
        residual,
    ) -> Optional[ColumnBatch]:
        """One probe batch's join output (dense), or None when empty.

        ``hits[i]`` is probe row ``i``'s build-row index (``unique``),
        list of build-row indices, or None for no match.
        """
        n = batch.count
        matched = [i for i, hit in enumerate(hits) if hit is not None]
        if residual is None and join_type in ("semi", "anti"):
            if join_type == "anti":
                matched = [i for i, hit in enumerate(hits) if hit is None]
            return self._probe_rows(batch, matched)

        # Candidate pairs, before the residual.
        if unique:
            left = matched
            right = hits if len(matched) == n else [hits[i] for i in matched]
        else:
            lists = [hits[i] for i in matched]
            left = list(chain.from_iterable(map(repeat, matched, map(len, lists))))
            right = list(chain.from_iterable(lists))
        if residual is not None and left:
            # The residual sees (probe columns, build columns) of every
            # candidate pair, like the row executor's ``row + match``.
            pairs = self._pair_columns(batch, left, right, build_cols)
            passed = residual(pairs, len(left), None)
            if len(passed) < len(left):
                left = [left[j] for j in passed]
                right = [right[j] for j in passed]
                pairs = None
        else:
            pairs = None

        if join_type in ("semi", "anti"):
            survivors = dict.fromkeys(left)
            if join_type == "anti":
                return self._probe_rows(
                    batch, [i for i in range(n) if i not in survivors]
                )
            return self._probe_rows(batch, list(survivors))
        if join_type == "left":
            alive = set(left)
            if len(alive) < n:
                # Unmatched probe rows join the NULL pad (build index
                # -1), each at its own place in probe order; the stable
                # sort keeps a row's matches in build-insertion order.
                merged = sorted(
                    chain(
                        zip(left, right),
                        ((i, -1) for i in range(n) if i not in alive),
                    ),
                    key=itemgetter(0),
                )
                left = [pair[0] for pair in merged]
                right = [pair[1] for pair in merged]
                pairs = None
        if not left:
            return None
        if pairs is None:
            pairs = self._pair_columns(batch, left, right, build_cols)
        return ColumnBatch(pairs, len(left))

    @staticmethod
    def _pair_columns(
        batch: ColumnBatch, left: List[int], right: List[int], build_cols
    ) -> List[object]:
        """Probe columns at ``left`` + build columns at ``right``."""
        if len(left) == batch.nrows and batch.sel is None and (
            left == list(range(batch.nrows))
        ):
            probe = list(batch.columns)  # every row once, in place
        else:
            sel = batch.sel
            rows = left if sel is None else [sel[i] for i in left]
            probe = take_columns(batch.columns, rows)
        return probe + take_columns(build_cols, right)

    @staticmethod
    def _probe_rows(batch: ColumnBatch, picks: List[int]) -> Optional[ColumnBatch]:
        """Semi/anti output: a narrower selection of the probe batch."""
        if not picks:
            return None
        if len(picks) == batch.count:
            return batch
        return batch.select(picks)

    def _nest_loop_batches(
        self, node: NestLoopJoin, segment: int, acc: CostAccumulator
    ) -> Batches:
        """Nested loop over tuples: the condition is an arbitrary
        predicate over every (outer, inner) pair, so there is no key to
        vectorize on — rows are materialized, one outer batch at a time."""
        inner = [
            row
            for batch in self._run_node_batches(node.right, segment, acc)
            for row in batch.to_rows()
        ]
        cond = (
            self._compile_row(node.cond, node.layout_for_residual())
            if node.cond is not None
            else None
        )
        ncols = len(node.layout)
        counts = [0, 0]  # outer rows, comparisons
        for batch in self._run_node_batches(node.left, segment, acc):
            out = list(
                self._nest_loop_rows(node, batch.to_rows(), inner, cond, counts)
            )
            if out:
                yield ColumnBatch.from_rows(out, ncols)
        acc.cpu_tuples(counts[1], weight=0.3)
        acc.cpu_tuples(counts[0], weight=0.5)

    # ------------------------------------------------------------ aggregation
    def _hash_agg_batches(
        self, node: HashAgg, segment: int, acc: CostAccumulator
    ) -> Batches:
        child = self._run_node_batches(node.child, segment, acc)
        nkeys = len(node.group_keys)
        naggs = len(node.aggs)
        groups = GroupTable(node.aggs, nkeys)
        count = 0
        if node.phase == "final":
            # Input rows are (group values..., states...) from partials.
            for batch in child:
                count += batch.count
                columns = batch.dense().columns
                groups.merge(columns[:nkeys], columns[nkeys:], batch.count)
            acc.cpu_tuples(count, weight=1.0 + 0.3 * naggs)
        else:
            layout = node.child.layout
            key_fns = [self._compile_batch(e, layout) for e in node.group_keys]
            arg_fns = [
                self._compile_batch(a.arg, layout) if a.arg is not None else None
                for a in node.aggs
            ]
            for batch in child:
                count += batch.count
                columns, nrows, sel = batch.columns, batch.nrows, batch.sel
                groups.add(
                    [fn(columns, nrows, sel) for fn in key_fns],
                    [
                        fn(columns, nrows, sel) if fn is not None else None
                        for fn in arg_fns
                    ],
                    batch.count,
                )
            acc.cpu_tuples(count, weight=1.2 + 0.3 * naggs)
            self._charge_spill(acc, groups.group_bytes)
            if not nkeys and naggs:
                # Aggregate over empty input still yields one row.
                groups.ensure_global_group()
        if len(groups):
            finished = (
                groups.state_columns()
                if node.phase == "partial"
                else groups.result_columns()
            )
            yield ColumnBatch(groups.key_columns() + finished, len(groups))

    # ------------------------------------------------------------- sort/limit
    def _sort_batches(
        self, node: Sort, segment: int, acc: CostAccumulator
    ) -> Batches:
        batches = list(self._run_node_batches(node.child, segment, acc))
        if not batches:
            return iter(())
        batch = ColumnBatch.concat(batches)
        count = batch.nrows
        order = list(range(count))
        # Stable multi-key sort: apply keys right-to-left. A key column
        # is evaluated once over the whole input; each pass sorts the
        # row-index permutation by it.
        for key in reversed(node.keys):
            values = as_list(
                self._compile_batch(key.expr, node.child.layout)(
                    batch.columns, count, None
                )
            )
            ascending, nulls_first = key.ascending, key.nulls_first
            if None in values:
                if nulls_first is None:
                    # PostgreSQL defaults: NULLS LAST ascending, FIRST
                    # descending.
                    nulls_first = not ascending
                # A descending pass reverses the whole order, buckets
                # included.
                bucket = 0 if nulls_first == ascending else 2
                values = [
                    (bucket, 0) if value is None else (1, value)
                    for value in values
                ]
            # sorted(reverse=True) keeps equal elements in their original
            # order, so descending passes stay stable too.
            order = sorted(order, key=values.__getitem__, reverse=not ascending)
        if count > 1:
            acc.cpu_tuples(count, weight=0.25 * math.log2(count))
        self._charge_spill(acc, batch.nbytes())
        # The permutation rides as the selection: a LIMIT above gathers
        # only the rows it keeps.
        return iter((ColumnBatch(batch.columns, count, order),))

    def _limit_batches(
        self, node: Limit, segment: int, acc: CostAccumulator
    ) -> Batches:
        wanted = node.count
        # This operator marks its child's trace span itself: the rows
        # the child "emitted" are the ones pulled from it, and the row
        # executor pulls one past the limit before it stops — a count a
        # wrapper that sees only whole batches could not report.
        t0 = acc.seconds
        child = self._node_batches(node.child, segment, acc)
        pulled = 0
        try:
            for batch in child:
                if batch.count > wanted:
                    # The row past the limit is in hand: stop here.
                    pulled += wanted + 1
                    if wanted:
                        yield batch.select(range(wanted))
                    break
                pulled += batch.count
                wanted -= batch.count
                yield batch
        finally:
            # The child's span ends where the row executor's does: when
            # the limit lets go of it, before the charges its close
            # releases.
            if self.ctx.trace is not None:
                self._mark(node.child, acc, t0, rows=pulled)
            # Close eagerly so the child's finally-charges (abandoned
            # scans still pay for what they read) land inside this
            # task's accumulator window, not at GC time.
            close = getattr(child, "close", None)
            if close is not None:
                close()

    # ---------------------------------------------------------------- motions
    def _motion_batches(
        self, node: Motion, segment: int, acc: CostAccumulator
    ) -> Batches:
        """Send half of a motion: one dense batch per receiver.

        A redistribute places its input with one columnar hash over the
        key columns and takes each receiver's rows out of it; gather and
        broadcast ship the input as it is. Streams are sized column-wise
        (``ColumnBatch.nbytes``), to the row sizer's exact totals, and a
        shipped batch keeps the size it was charged at: the operator
        that consumes the stream does not size it again.
        """
        receivers = self.task.receivers
        batches = list(self._run_node_batches(node.child, segment, acc))
        count = 0
        streams = {}
        if batches:
            stream = ColumnBatch.concat(batches)
            count = stream.nrows
            if node.kind == "redistribute":
                places = hash_columns(
                    [
                        self._compile_batch(e, node.child.layout)(
                            stream.columns, count, None
                        )
                        for e in node.hash_exprs
                    ],
                    count, len(receivers),
                )
                picks: List[List[int]] = [[] for _ in receivers]
                for row, place in enumerate(places):
                    picks[place].append(row)
                taken = {t: rows for t, rows in zip(receivers, picks) if rows}
                if len(taken) == 1:  # every row to one receiver
                    streams = dict.fromkeys(taken, stream)
                else:
                    streams = dict(
                        zip(taken, stream.partition(list(taken.values())))
                    )
            else:
                targets = receivers if node.kind == "broadcast" else receivers[:1]
                streams = dict.fromkeys(targets, stream)
        self._charge_send(
            acc, count, sum(s.nbytes() for s in streams.values()),
            len(receivers),
        )
        self.motion_rows = count
        for target in sorted(streams):
            stream = streams[target]
            nbytes = stream.nbytes()
            self.rows_out += stream.nrows
            self.bytes_out += nbytes
            self.exchange.send(
                self.ctx.query_id,
                self.task.slice_id,
                segment,
                target,
                stream,
                nbytes,
            )
        return iter(())

    def _motion_recv_batches(
        self, node: MotionRecv, segment: int, acc: CostAccumulator
    ) -> Batches:
        streams, nbytes = self.exchange.receive(
            self.ctx.query_id, node.slice_id, segment
        )
        model = self.ctx.cost_model
        acc.cpu_bytes(nbytes, model.cpu_net_byte)
        # Bandwidth only: the receive's latency is the scheduler edge
        # from the sending task's timeline to this one.
        acc.network(nbytes, messages=0)
        return iter(streams)
