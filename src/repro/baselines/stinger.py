"""Stinger: Hive 0.12-class SQL over MapReduce (paper Section 8.1).

The comparison baseline, faithfully *rule-based*:

* joins run in the order the query writes them (left-deep, no cost-based
  reordering — the paper: "Stinger uses a simple rule-based algorithm
  and ... most of the time can only give a sub-optimal query plan");
* each join, aggregation, and ORDER BY is its own MapReduce job, with
  the intermediate result materialized to replicated HDFS between jobs;
* the Stinger improvements are included where they existed: ORC-like
  columnar storage with projection (here: the PAX/zlib format), map-side
  combiners for aggregation, and automatic map-joins for small tables;
* ORDER BY funnels through a single reducer (Hive's behaviour).

Queries execute for real (rows match HAWQ's answers — the test suite
checks), while job times come from the MapReduce cluster's clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.mapreduce import Dataset, JobStats, MapReduceCluster
from repro.catalog.schema import TableSchema
from repro.errors import PlannerError, ReproError, SemanticError
from repro.executor.aggregates import AggState, make_state
from repro.executor.expr import compile_expr
from repro.hdfs import Hdfs
from repro.planner import exprs as ex
from repro.planner.analyzer import Analyzer, RelationInfo
from repro.planner.decorrelate import decorrelate
from repro.planner.logical import DerivedSource, LogicalQuery, RelEntry
from repro.planner.planner import applicable_quals, needed_columns, split_eq
from repro.simtime import CostModel
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.storage import parquet as orcfile  # ORC stand-in: PAX + zlib
from repro.storage.base import ScanStats


@dataclass
class StingerResult:
    """Rows, simulated seconds, and per-job accounting."""

    rows: List[tuple]
    column_names: List[str]
    seconds: float
    jobs: List[JobStats] = field(default_factory=list)


class _Catalog:
    def __init__(self, engine: "StingerEngine"):
        self.engine = engine

    def resolve(self, name: str) -> RelationInfo:
        name = name.lower()
        if name in self.engine.views:
            return RelationInfo(kind="view", view_query=self.engine.views[name])
        entry = self.engine.tables.get(name)
        if entry is None:
            raise SemanticError(f"relation {name!r} does not exist")
        return RelationInfo(kind="table", schema=entry[0])


class StingerEngine:
    """A Hive/Stinger warehouse plus its MapReduce execution engine."""

    #: Hive's default auto-map-join threshold is 25 MB of (nominal) data.
    MAPJOIN_THRESHOLD = 25e6

    def __init__(
        self,
        num_nodes: int = 16,
        containers_per_node: int = 9,
        cost_model: Optional[CostModel] = None,
        scale: float = 1.0,
        compression: str = "zlib1",
        seed: int = 0,
    ):
        self.model = cost_model or CostModel()
        self.scale = scale
        self.compression = compression
        self.cluster = MapReduceCluster(
            num_nodes, containers_per_node, self.model, scale=scale
        )
        self.hdfs = Hdfs(block_size=256 * 1024, replication=3, seed=seed)
        for i in range(num_nodes):
            self.hdfs.add_datanode(f"hive{i}", num_disks=12)
        # name -> (schema, {path: length})
        self.tables: Dict[str, Tuple[TableSchema, Dict[str, int]]] = {}
        self.views: Dict[str, ast.SelectStmt] = {}

    # ---------------------------------------------------------------- loading
    def load_table(self, schema: TableSchema, rows: Sequence[tuple]) -> None:
        """Store a table in the warehouse in the ORC-like format."""
        client = self.hdfs.client()
        coerce_row = schema.row_codec().coerce_row
        coerced = [coerce_row(r) for r in rows]
        result = orcfile.write(
            client,
            f"/warehouse/{schema.name}",
            coerced,
            schema,
            self.compression,
        )
        self.tables[schema.name] = (schema, dict(result.paths))

    # --------------------------------------------------------------- queries
    def execute(self, sql: str) -> StingerResult:
        statements = parse_sql(sql)
        result: Optional[StingerResult] = None
        for stmt in statements:
            if isinstance(stmt, ast.CreateViewStmt):
                self.views[stmt.name.lower()] = stmt.query
                result = StingerResult([], [], 0.0)
            elif isinstance(stmt, ast.DropStmt) and stmt.object_kind == "view":
                self.views.pop(stmt.name.lower(), None)
                result = StingerResult([], [], 0.0)
            elif isinstance(stmt, ast.SelectStmt):
                result = self._select(stmt)
            else:
                raise ReproError(
                    f"Stinger baseline supports SELECT and views, not "
                    f"{type(stmt).__name__}"
                )
        assert result is not None
        return result

    def _select(self, stmt: ast.SelectStmt) -> StingerResult:
        analyzer = Analyzer(_Catalog(self))
        query = analyzer.analyze(stmt)
        decorrelate(query)
        jobs_before = len(self.cluster.jobs)
        params = [self._run_init_plan(ip) for ip in query.init_plans]
        dataset, layout = self._run_block(query, params)
        jobs = self.cluster.jobs[jobs_before:]
        return StingerResult(
            rows=dataset.rows,
            column_names=query.output_names,
            seconds=sum(j.seconds for j in jobs),
            jobs=jobs,
        )

    def _run_init_plan(self, query: LogicalQuery) -> object:
        params = [self._run_init_plan(ip) for ip in query.init_plans]
        dataset, _ = self._run_block(query, params)
        if len(dataset.rows) > 1:
            raise ReproError("InitPlan returned more than one row")
        return dataset.rows[0][0] if dataset.rows else None

    # ----------------------------------------------------------- query blocks
    def _run_block(
        self, query: LogicalQuery, params: List[object]
    ) -> Tuple[Dataset, List[tuple]]:
        """Execute one SELECT block as a chain of MapReduce jobs."""
        pool = list(query.quals)
        needed = {i: sorted(cols) for i, cols in needed_columns(query).items()}

        # Scan (or recursively compute) every relation.
        rel_data: List[Tuple[Dataset, List[tuple]]] = []
        for index, rel in enumerate(query.rels):
            rel_data.append(self._input_for(index, rel, pool, needed, params))

        # Left-deep joins in FROM order (the rule-based part).
        dataset, layout = rel_data[0]
        joined = {0}
        for index in range(1, len(query.rels)):
            rel = query.rels[index]
            right_ds, right_layout = rel_data[index]
            quals = (
                list(ex.conjuncts(rel.join_cond)) if rel.join_cond is not None else []
            )
            applicable = applicable_quals(pool, joined, index)
            for qual in applicable:
                pool.remove(qual)
            quals += applicable
            dataset, layout = self._join_job(
                rel.join_type if rel.join_type != "inner" else "inner",
                dataset,
                layout,
                right_ds,
                right_layout,
                joined,
                index,
                quals,
                params,
            )
            joined.add(index)

        # Any leftover predicates run in a filter pass.
        if pool:
            cond = compile_expr(ex.make_conjunction(pool), layout, params)
            dataset, _ = self.cluster.run_map_only_job(
                "filter",
                dataset,
                lambda row: [row] if cond(row) is True else [],
            )

        if query.has_aggregates:
            dataset, layout, rewrite = self._agg_job(query, dataset, layout, params)
        else:
            rewrite = lambda e: e

        # Final projection (+ DISTINCT / ORDER BY / LIMIT jobs).
        targets = [rewrite(t) for t, _ in query.targets]
        dataset, layout = self._project_job(query, dataset, layout, targets, params, rewrite)
        return dataset, layout

    # ---------------------------------------------------------------- inputs
    def _input_for(
        self,
        index: int,
        rel: RelEntry,
        pool: List[ex.BoundExpr],
        needed: Dict[int, List[int]],
        params: List[object],
    ) -> Tuple[Dataset, List[tuple]]:
        mine = [
            q
            for q in pool
            if ex.rels_of(q) == {index} and not ex.has_aggregate(q)
        ]
        for qual in mine:
            pool.remove(qual)

        if isinstance(rel.source, DerivedSource):
            inner_params = [
                self._run_init_plan(ip) for ip in rel.source.query.init_plans
            ]
            rel.source.query.init_plans = []
            dataset, _ = self._run_block(rel.source.query, inner_params)
            layout = [("r", index, i) for i in range(len(rel.column_names))]
            if mine:
                cond = compile_expr(ex.make_conjunction(mine), layout, params)
                dataset = Dataset.from_rows(
                    [r for r in dataset.rows if cond(r) is True], self.scale
                )
            return dataset, layout

        schema = rel.source.schema
        entry = self.tables.get(rel.source.table_name)
        if entry is None:
            raise SemanticError(f"table {rel.source.table_name!r} not loaded")
        _, paths = entry
        columns = needed.get(index) or [0]
        stats = ScanStats()
        client = self.hdfs.client()
        rows = list(
            orcfile.scan(
                client, paths, schema, self.compression, columns=columns, stats=stats
            )
        )
        pre_filter_rows = len(rows)
        layout_full = [("r", index, c) for c in range(len(schema.columns))]
        if mine:
            cond = compile_expr(ex.make_conjunction(mine), layout_full, params)
            rows = [r for r in rows if cond(r) is True]
        projected = [tuple(r[c] for c in columns) for r in rows]
        layout = [("r", index, c) for c in columns]
        # The job reading this input pays IO for the (projected) ORC
        # bytes, deserialization CPU for every pre-filter row, and input
        # splits are computed over the whole file (ORC behaviour).
        full_file_bytes = sum(paths.values())
        return (
            Dataset(
                rows=projected,
                nominal_bytes=stats.compressed_bytes * self.scale,
                cpu_rows=pre_filter_rows,
                split_bytes=full_file_bytes * self.scale,
            ),
            layout,
        )

    # ------------------------------------------------------------------ joins
    def _join_job(
        self,
        join_type: str,
        left: Dataset,
        left_layout: List[tuple],
        right: Dataset,
        right_layout: List[tuple],
        joined: set,
        cand: int,
        quals: List[ex.BoundExpr],
        params: List[object],
    ) -> Tuple[Dataset, List[tuple]]:
        left_keys, right_keys, residual = [], [], []
        for qual in quals:
            pair = split_eq(qual, joined, cand)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(qual)
        out_layout = (
            list(left_layout)
            if join_type in ("semi", "anti")
            else list(left_layout) + list(right_layout)
        )
        residual_layout = list(left_layout) + list(right_layout)
        residual_fn = (
            compile_expr(ex.make_conjunction(residual), residual_layout, params)
            if residual
            else None
        )
        pad = (None,) * len(right_layout)

        def join_rows(lrow, matches):
            if residual_fn is not None:
                matches = [m for m in matches if residual_fn(lrow + m) is True]
            if join_type == "inner":
                return [lrow + m for m in matches]
            if join_type == "left":
                return [lrow + m for m in matches] if matches else [lrow + pad]
            if join_type == "semi":
                return [lrow] if matches else []
            if join_type == "anti":
                return [] if matches else [lrow]
            raise PlannerError(f"unknown join type {join_type!r}")

        if not left_keys:
            # Key-less join: broadcast the right side into every mapper.
            inner_rows = right.rows

            def cross_map(row):
                return join_rows(row, inner_rows)

            dataset, _ = self.cluster.run_map_only_job(
                "map-cross-join",
                left,
                cross_map,
                side_data_bytes=right.nominal_bytes,
                map_cpu_weight=1.0 + 0.3 * max(len(inner_rows), 1),
            )
            return dataset, out_layout

        lkey_fns = [compile_expr(k, left_layout, params) for k in left_keys]
        rkey_fns = [compile_expr(k, right_layout, params) for k in right_keys]

        if right.nominal_bytes <= self.MAPJOIN_THRESHOLD:
            # Stinger's automatic map-join: hash the small side in RAM.
            table: Dict[tuple, List[tuple]] = {}
            for row in right.rows:
                key = tuple(fn(row) for fn in rkey_fns)
                if any(k is None for k in key):
                    continue
                table.setdefault(key, []).append(row)

            def mapjoin_map(row):
                key = tuple(fn(row) for fn in lkey_fns)
                matches = table.get(key, []) if not any(k is None for k in key) else []
                return join_rows(row, matches)

            dataset, _ = self.cluster.run_map_only_job(
                "map-join",
                left,
                mapjoin_map,
                side_data_bytes=right.nominal_bytes,
                map_cpu_weight=2.0,
            )
            return dataset, out_layout

        # Reduce-side (common) join: tag, shuffle on key, join in reduce.
        def left_map(row):
            key = tuple(fn(row) for fn in lkey_fns)
            if any(k is None for k in key):
                if join_type in ("left", "anti"):
                    return [((None, id(row)), (0, row))]  # unmatched outer
                return []
            return [(key, (0, row))]

        def right_map(row):
            key = tuple(fn(row) for fn in rkey_fns)
            if any(k is None for k in key):
                return []
            return [(key, (1, row))]

        def join_reduce(key, values):
            lrows = [row for tag, row in values if tag == 0]
            rrows = [row for tag, row in values if tag == 1]
            out = []
            for lrow in lrows:
                out.extend(join_rows(lrow, rrows))
            return out

        dataset, _ = self.cluster.run_job(
            "common-join",
            [(left, left_map), (right, right_map)],
            join_reduce,
            reduce_cpu_weight=1.5,
        )
        return dataset, out_layout

    # ------------------------------------------------------------ aggregation
    def _agg_job(
        self,
        query: LogicalQuery,
        dataset: Dataset,
        layout: List[tuple],
        params: List[object],
    ):
        aggs: List[ex.BAgg] = []
        seen: Dict[ex.BAgg, int] = {}
        scan_exprs = [t for t, _ in query.targets]
        if query.having is not None:
            scan_exprs.append(query.having)
        scan_exprs.extend(k.expr for k in query.order_by)
        for expr in scan_exprs:
            for node in ex.walk(expr):
                if isinstance(node, ex.BAgg) and node not in seen:
                    seen[node] = len(aggs)
                    aggs.append(node)

        key_fns = [compile_expr(k, layout, params) for k in query.group_by]
        arg_fns = [
            compile_expr(a.arg, layout, params) if a.arg is not None else None
            for a in aggs
        ]
        has_distinct = any(a.distinct for a in aggs)

        def agg_map(row):
            key = tuple(fn(row) for fn in key_fns)
            args = tuple(
                fn(row) if fn is not None else 1 for fn in arg_fns
            )
            return [(key, args)]

        def fold(values) -> List[AggState]:
            states = [make_state(a) for a in aggs]
            for value in values:
                if isinstance(value, list):  # combined partial states
                    for state, other in zip(states, value):
                        state.merge(other)
                else:
                    for state, arg in zip(states, value):
                        state.accumulate(arg)
            return states

        combine_fn = None
        if not has_distinct:
            # Stinger's map-side aggregation (hash + combiner).
            def combine_fn(key, values):
                return [list(fold(values))]

        def agg_reduce(key, values):
            states = fold(values)
            return [key + tuple(s.finalize() for s in states)]

        agg_dataset, _ = self.cluster.run_job(
            "group-by",
            [(dataset, agg_map)],
            agg_reduce,
            combine_fn=combine_fn,
            map_cpu_weight=1.2 + 0.3 * len(aggs),
            reduce_cpu_weight=1.2 + 0.3 * len(aggs),
        )
        if not agg_dataset.rows and not query.group_by and aggs:
            states = [make_state(a) for a in aggs]
            agg_dataset.rows.append(tuple(s.finalize() for s in states))

        agg_layout = [("g", i) for i in range(len(query.group_by))] + [
            ("a", i) for i in range(len(aggs))
        ]
        group_refs = {key: i for i, key in enumerate(query.group_by)}

        def rewrite(expr):
            return ex.rewrite_post_agg(expr, seen, group_refs)

        if query.having is not None:
            having_fn = compile_expr(rewrite(query.having), agg_layout, params)
            agg_dataset = Dataset.from_rows(
                [r for r in agg_dataset.rows if having_fn(r) is True], self.scale
            )
        return agg_dataset, agg_layout, rewrite

    # --------------------------------------------------------- project / sort
    def _project_job(
        self,
        query: LogicalQuery,
        dataset: Dataset,
        layout: List[tuple],
        targets: List[ex.BoundExpr],
        params: List[object],
        rewrite,
    ) -> Tuple[Dataset, List[tuple]]:
        project_exprs = list(targets)
        sort_slots: List[Tuple[int, bool, Optional[bool]]] = []
        for key in query.order_by:
            expr = rewrite(key.expr)
            if expr in project_exprs:
                slot = project_exprs.index(expr)
            else:
                project_exprs.append(expr)
                slot = len(project_exprs) - 1
            sort_slots.append((slot, key.ascending, key.nulls_first))

        fns = [compile_expr(e, layout, params) for e in project_exprs]

        def project_map(row):
            return [tuple(fn(row) for fn in fns)]

        dataset, _ = self.cluster.run_map_only_job(
            "select", dataset, project_map, map_cpu_weight=0.5 + 0.2 * len(fns)
        )

        if query.distinct:
            def distinct_map(row):
                return [(row, 1)]

            def distinct_reduce(key, values):
                return [key]

            dataset, _ = self.cluster.run_job(
                "distinct", [(dataset, distinct_map)], distinct_reduce
            )

        if sort_slots or query.limit is not None:
            dataset = self._sort_job(dataset, sort_slots, query.limit)

        ncols = len(targets)
        if len(project_exprs) > ncols:
            dataset = Dataset.from_rows(
                [r[:ncols] for r in dataset.rows], self.scale
            )
        return dataset, [("t", i) for i in range(ncols)]

    def _sort_job(
        self,
        dataset: Dataset,
        sort_slots: List[Tuple[int, bool, Optional[bool]]],
        limit: Optional[int],
    ) -> Dataset:
        """ORDER BY: Hive funnels everything through ONE reducer."""

        def sort_map(row):
            return [(0, row)]

        def sort_reduce(key, values):
            rows = list(values)
            for slot, ascending, nulls_first in reversed(sort_slots):
                if nulls_first is None:
                    nulls_first = not ascending
                if ascending:
                    null_bucket = 0 if nulls_first else 2
                else:
                    null_bucket = 2 if nulls_first else 0

                def sort_key(row, slot=slot, null_bucket=null_bucket):
                    value = row[slot]
                    if value is None:
                        return (null_bucket, 0)
                    return (1, value)

                rows.sort(key=sort_key, reverse=not ascending)
            if limit is not None:
                rows = rows[:limit]
            return rows

        out, _ = self.cluster.run_job(
            "order-by",
            [(dataset, sort_map)],
            sort_reduce,
            num_reducers=1,
            reduce_cpu_weight=2.0,
            # Hive's single-reducer sort spills externally; it is slow
            # but does not OOM.
            check_memory=False,
        )
        return out
