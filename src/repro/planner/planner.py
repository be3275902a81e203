"""The cost-based parallel planner (paper Section 3).

Turns a decorrelated :class:`LogicalQuery` into a sliced
:class:`PhysicalPlan`:

* single-table predicates are pushed into scans, partitions eliminated;
* inner joins are ordered greedily by estimated output cardinality;
* motions (Broadcast / Redistribute / Gather) are inserted only where
  co-location does not already hold, choosing the cheaper of
  broadcast-vs-redistribute from estimated byte volumes;
* aggregation runs in two phases (local partial, redistribute on the
  group keys, final) unless rows are already co-located on the keys or a
  DISTINCT aggregate forces a single phase;
* a query whose predicates pin every distribution key of its only table
  is *directly dispatched* to the one segment that can hold the rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.schema import hash_values
from repro.catalog.stats import TableStats
from repro.errors import PlannerError
from repro.planner import exprs as ex
from repro.planner.cost import Estimator
from repro.planner.decorrelate import decorrelate
from repro.planner.logical import (
    DerivedSource,
    LogicalQuery,
    RelEntry,
    SortKey,
    TableSource,
)
from repro.planner.physical import (
    Distribution,
    ExternalScan,
    Filter,
    HashAgg,
    HashJoin,
    Limit,
    Motion,
    NestLoopJoin,
    PhysicalPlan,
    PlanNode,
    Project,
    Result,
    SeqScan,
    Sort,
    SubqueryScan,
    expr_column_id,
    slice_plan,
)


@dataclass
class PlannerOptions:
    """Feature knobs, mostly for ablation benchmarks."""

    enable_direct_dispatch: bool = True
    enable_partition_elimination: bool = True
    enable_colocation: bool = True  # ablation: ignore existing distributions


# ------------------------------------------------------- query-shape helpers
# What a query block asks of its relations, shared by every engine that
# plans one (this planner and the Stinger baseline).
def needed_columns(query: LogicalQuery) -> Dict[int, Set[int]]:
    """The columns each relation of ``query`` must produce."""
    needed: Dict[int, Set[int]] = {i: set() for i in range(len(query.rels))}
    exprs: List[ex.BoundExpr] = []
    exprs.extend(t for t, _ in query.targets)
    exprs.extend(query.quals)
    exprs.extend(query.group_by)
    if query.having is not None:
        exprs.append(query.having)
    exprs.extend(k.expr for k in query.order_by)
    for rel in query.rels:
        if rel.join_cond is not None:
            exprs.append(rel.join_cond)
    for expr in exprs:
        for var in ex.vars_of(expr, level=0):
            if var.rel in needed:
                needed[var.rel].add(var.col)
    return needed


def applicable_quals(
    pool: List[ex.BoundExpr], joined: Set[int], cand: int
) -> List[ex.BoundExpr]:
    """The quals of ``pool`` that joining ``cand`` to ``joined`` can
    evaluate, in pool order (the pool is left as it is)."""
    out = []
    for qual in pool:
        rels = ex.rels_of(qual)
        if cand in rels and rels <= joined | {cand} and not ex.has_aggregate(qual):
            out.append(qual)
    return out


def split_eq(
    qual: ex.BoundExpr, joined: Set[int], cand: int
) -> Optional[Tuple[ex.BoundExpr, ex.BoundExpr]]:
    """Return (left_expr, right_expr) if ``qual`` is an equality
    bridging the joined set and the candidate."""
    if not (isinstance(qual, ex.BOp) and qual.op == "="):
        return None
    left_rels, right_rels = ex.rels_of(qual.left), ex.rels_of(qual.right)
    if left_rels and left_rels <= joined and right_rels == {cand}:
        return qual.left, qual.right
    if right_rels and right_rels <= joined and left_rels == {cand}:
        return qual.right, qual.left
    return None


class Planner:
    """Plans one LogicalQuery for a cluster of ``num_segments``."""

    def __init__(
        self,
        num_segments: int,
        stats: Optional[Dict[str, TableStats]] = None,
        options: Optional[PlannerOptions] = None,
        partition_children: Optional[Dict[str, List[Tuple[str, object]]]] = None,
    ):
        """``partition_children`` maps a partitioned parent table name to
        its [(child_name, Partition)] list (from the catalog)."""
        self.num_segments = num_segments
        self.estimator = Estimator(stats)
        self.options = options or PlannerOptions()
        self.partition_children = partition_children or {}
        self._motion_ids = itertools.count(1)

    # ------------------------------------------------------------- top level
    def plan(self, query: LogicalQuery) -> PhysicalPlan:
        decorrelate(query)
        # InitPlans from every nesting level are hoisted into one flat,
        # top-level list; _plan_block renumbers BParam references.
        self._pending_init_plans: List[LogicalQuery] = []
        root = self._plan_block(query)
        init_plans = []
        for init_query in self._pending_init_plans:
            sub_planner = Planner(
                num_segments=self.num_segments,
                stats=self.estimator.stats,
                options=self.options,
                partition_children=self.partition_children,
            )
            init_plans.append(sub_planner.plan(init_query))
        if root.dist.kind != "single":
            root = self._motion("gather", root)
        direct = self._direct_dispatch_segment(query)
        return slice_plan(
            root,
            query.output_names,
            init_plans=init_plans,
            num_segments=self.num_segments,
            direct_dispatch_segment=direct,
        )

    # ------------------------------------------------------------ block plan
    def _plan_block(self, query: LogicalQuery) -> PlanNode:
        self._hoist_init_plans(query)
        self._reduce_outer_joins(query)
        if not query.rels:
            return Result(exprs=[t for t, _ in query.targets])

        saved_ec = getattr(self, "_ec", None)
        self._ec = self._equivalence_classes(query)
        try:
            return self._plan_block_inner(query)
        finally:
            self._ec = saved_ec

    def _plan_block_inner(self, query: LogicalQuery) -> PlanNode:
        pool = list(query.quals)
        needed = needed_columns(query)
        nodes: Dict[int, PlanNode] = {}
        for index, rel in enumerate(query.rels):
            nodes[index] = self._plan_rel(index, rel, pool, needed)

        joined = self._join_all(query, nodes, pool)

        node = joined
        # Residual quals that could not be attached anywhere earlier
        # (e.g. WHERE predicates over left-join nullable columns).
        if pool:
            node = Filter(child=node, cond=ex.make_conjunction(pool))
            node.est_rows = max(joined.est_rows * 0.5, 1.0)
            node.est_width = joined.est_width

        if query.has_aggregates:
            node, rewrite = self._plan_aggregation(query, node)
        else:
            rewrite = lambda e: e

        targets = [rewrite(t) for t, _ in query.targets]
        node = self._plan_output(query, node, targets, rewrite)
        return node

    # ----------------------------------------------------- equivalence classes
    def _equivalence_classes(self, query: LogicalQuery) -> Dict:
        """Union-find over `col = col` predicates: a table hashed on
        p_partkey is co-located for a join on l_partkey when the two are
        equated, so distribution matching must work modulo equivalence."""
        parent: Dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        quals = list(query.quals)
        for rel in query.rels:
            if rel.join_cond is not None and rel.join_type != "left":
                quals.extend(ex.conjuncts(rel.join_cond))
        for qual in quals:
            if (
                isinstance(qual, ex.BOp)
                and qual.op == "="
                and isinstance(qual.left, ex.BVar)
                and isinstance(qual.right, ex.BVar)
                and qual.left.level == 0
                and qual.right.level == 0
            ):
                union(("r", qual.left.rel, qual.left.col),
                      ("r", qual.right.rel, qual.right.col))
        return {key: find(key) for key in parent}

    def _canon(self, column_id):
        if column_id is None:
            return None
        ec = getattr(self, "_ec", None) or {}
        return ec.get(column_id, column_id)

    def _dist_matches(self, dist: Distribution, key_ids) -> bool:
        """Distribution co-location test modulo equivalence classes."""
        if dist.kind != "hashed" or not dist.keys:
            return False
        present = {self._canon(k) for k in key_ids if k is not None}
        return all(self._canon(k) in present for k in dist.keys)

    @staticmethod
    def _reduce_outer_joins(query: LogicalQuery) -> None:
        """A left join whose nullable side a WHERE qual rejects when NULL
        (``ex.is_strict``) is an inner join, its ON quals WHERE quals that
        may reject another's padding in turn (``reduce_outer_joins``)."""
        reduced = True
        while reduced:
            reduced = False
            for index, rel in enumerate(query.rels):
                if rel.join_type == "left" and any(
                    ex.is_strict(qual, {index}) for qual in query.quals
                ):
                    query.quals.extend(ex.conjuncts(rel.join_cond))
                    rel.join_type, rel.join_cond = "inner", None
                    reduced = True

    def _hoist_init_plans(self, query: LogicalQuery) -> None:
        """Move this block's InitPlans into the top-level list, shifting
        its BParam indexes to the flat numbering."""
        if not query.init_plans:
            return
        offset = len(self._pending_init_plans)
        self._pending_init_plans.extend(query.init_plans)
        query.init_plans = []
        if offset == 0:
            return

        def shift(expr: ex.BoundExpr) -> ex.BoundExpr:
            def fn(node: ex.BoundExpr):
                if isinstance(node, ex.BParam):
                    return ex.BParam(node.index + offset)
                return None

            return ex.transform(expr, fn)

        query.quals = [shift(q) for q in query.quals]
        query.targets = [(shift(t), name) for t, name in query.targets]
        query.group_by = [shift(g) for g in query.group_by]
        if query.having is not None:
            query.having = shift(query.having)
        for key in query.order_by:
            key.expr = shift(key.expr)
        for rel in query.rels:
            if rel.join_cond is not None:
                rel.join_cond = shift(rel.join_cond)

    # ----------------------------------------------------------------- scans
    def _plan_rel(
        self,
        index: int,
        rel: RelEntry,
        pool: List[ex.BoundExpr],
        needed: Dict[int, Set[int]],
    ) -> PlanNode:
        # Pull this relation's single-table predicates out of the pool. A
        # left join's nullable side keeps its WHERE quals in the pool:
        # none rejects NULL (or the join was reduced to an inner one), so
        # they filter the joined rows, padding included, above the join.
        mine = [
            q for q in pool
            if rel.join_type != "left"
            and ex.rels_of(q) == {index}
            and not ex.has_aggregate(q)
        ]
        for qual in mine:
            pool.remove(qual)
        cond = ex.make_conjunction(mine)

        if isinstance(rel.source, DerivedSource):
            sub = rel.source.query
            child = self._plan_block(sub)
            node = SubqueryScan(rel=index, child=child, ncols=len(sub.output_names))
            node.dist = self._translate_subquery_dist(child, sub, index)
            node.est_rows = child.est_rows
            node.est_width = child.est_width
            if cond is not None:
                wrapped = Filter(child=node, cond=cond)
                wrapped.est_rows = max(node.est_rows * 0.25, 1.0)
                wrapped.est_width = node.est_width
                node = wrapped
            return node

        source: TableSource = rel.source
        columns = sorted(needed.get(index, set()))
        if not columns:
            columns = [0]
        if source.external:
            pushed = [q for q in mine if self._pushable(q)]
            node = ExternalScan(
                rel=index,
                table=source,
                columns=columns,
                filter=cond,
                pushed_filters=pushed,
            )
        else:
            partitions, pruned = self._select_partitions(source, mine)
            node = SeqScan(
                rel=index,
                table=source,
                columns=columns,
                filter=cond,
                partitions=partitions,
                pruned_partitions=pruned,
            )
        schema = source.schema
        if schema.distribution.is_hash and self.options.enable_colocation:
            key_ids = tuple(
                ("r", index, schema.column_index(c))
                for c in schema.distribution.columns
            )
            node.dist = Distribution.hashed(key_ids)
        else:
            node.dist = Distribution.random()
        base_rows = self.estimator.table_rows(source)
        sel = self.estimator.selectivity(mine, source)
        node.est_rows = max(base_rows * sel, 1.0)
        node.est_width = self.estimator.table_width(source, len(columns))
        return node

    def _translate_subquery_dist(
        self, child: PlanNode, sub: LogicalQuery, rel_index: int
    ) -> Distribution:
        """Map an inner distribution onto the SubqueryScan's columns."""
        if child.dist.kind != "hashed":
            return Distribution.random()
        # The child's top is a Project with layout ('t', i); its dist keys
        # are ('t', i) ids. Map target position -> outer ('r', rel, i).
        keys = []
        for key in child.dist.keys:
            if key[0] != "t":
                return Distribution.random()
            keys.append(("r", rel_index, key[1]))
        return Distribution.hashed(keys)

    def _pushable(self, qual: ex.BoundExpr) -> bool:
        """Simple predicates a PXF connector can evaluate at the source."""
        if isinstance(qual, ex.BOp) and qual.op in ("=", "<", "<=", ">", ">="):
            sides = (qual.left, qual.right)
            has_var = any(isinstance(s, ex.BVar) for s in sides)
            has_const = any(isinstance(s, ex.BConst) for s in sides)
            return has_var and has_const
        return False

    def _select_partitions(
        self, source: TableSource, quals: List[ex.BoundExpr]
    ) -> Tuple[Optional[List[str]], List[str]]:
        children = self.partition_children.get(source.table_name)
        if not children:
            return None, []
        spec = source.schema.partition_spec
        if spec is None or not self.options.enable_partition_elimination:
            return [name for name, _ in children], []
        part_col = source.schema.column_index(spec.column)
        keep, pruned = [], []
        for child_name, partition in children:
            if all(
                self._partition_may_satisfy(partition, qual, part_col)
                for qual in quals
            ):
                keep.append(child_name)
            else:
                pruned.append(child_name)
        return keep, pruned

    def _partition_may_satisfy(self, partition, qual, part_col: int) -> bool:
        """Conservative: only eliminate on `col OP literal` conjuncts."""
        if isinstance(qual, ex.BOp) and qual.op in ("=", "<", "<=", ">", ">="):
            var, const, op = None, None, qual.op
            if isinstance(qual.left, ex.BVar) and isinstance(qual.right, ex.BConst):
                var, const = qual.left, qual.right.value
            elif isinstance(qual.right, ex.BVar) and isinstance(qual.left, ex.BConst):
                var, const = qual.right, qual.left.value
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
            if var is not None and var.col == part_col and const is not None:
                return partition.may_satisfy(op, const)
        return True

    # ----------------------------------------------------------------- joins
    def _join_all(
        self,
        query: LogicalQuery,
        nodes: Dict[int, PlanNode],
        pool: List[ex.BoundExpr],
    ) -> PlanNode:
        inner_ids = [
            i for i, rel in enumerate(query.rels) if rel.join_type == "inner"
        ]
        special_ids = [
            i for i, rel in enumerate(query.rels) if rel.join_type != "inner"
        ]
        if not inner_ids:
            raise PlannerError("query must start from at least one inner relation")

        joined_set = {inner_ids[0]}
        node = nodes[inner_ids[0]]
        remaining = set(inner_ids[1:])
        while remaining:
            best = None
            for cand in sorted(remaining):
                quals = applicable_quals(pool, joined_set, cand)
                keys = sum(
                    1 for q in quals if split_eq(q, joined_set, cand) is not None
                )
                cand_rows = nodes[cand].est_rows
                est = self.estimator.join_rows(node.est_rows, cand_rows, keys)
                connected = bool(quals)
                score = (not connected, est)  # prefer connected, then cheap
                if best is None or score < best[0]:
                    best = (score, cand, quals, est)
            _, cand, quals, est = best
            node = self._build_join(
                "inner", node, joined_set, nodes[cand], cand, quals, pool, est
            )
            joined_set.add(cand)
            remaining.discard(cand)

        for cand in special_ids:
            rel = query.rels[cand]
            quals = ex.conjuncts(rel.join_cond) if rel.join_cond is not None else []
            if rel.join_type != "left":
                quals = quals + applicable_quals(pool, joined_set, cand)
            est = node.est_rows if rel.join_type != "inner" else node.est_rows
            node = self._build_join(
                rel.join_type, node, joined_set, nodes[cand], cand, quals, pool, est
            )
            joined_set.add(cand)
        return node

    def _build_join(
        self,
        join_type: str,
        left: PlanNode,
        joined: Set[int],
        right: PlanNode,
        cand: int,
        quals: List[ex.BoundExpr],
        pool: List[ex.BoundExpr],
        est_rows: float,
    ) -> PlanNode:
        for qual in quals:
            if qual in pool:
                pool.remove(qual)
        left_keys, right_keys, residual = [], [], []
        for qual in quals:
            pair = split_eq(qual, joined, cand)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(qual)

        if join_type == "inner" and left_keys and right.est_bytes > left.est_bytes * 2:
            # Build the smaller side: swap inputs (inner joins commute).
            left, right = right, left
            left_keys, right_keys = right_keys, left_keys

        if not left_keys:
            # Key-less join: broadcast the inner side, nested loop.
            inner = right
            if inner.dist.kind != "replicated" and self.num_segments > 1:
                inner = self._motion("broadcast", inner)
            node = NestLoopJoin(
                join_type=join_type,
                left=left,
                right=inner,
                cond=ex.make_conjunction(residual),
            )
            node.dist = left.dist
            node.est_rows = max(est_rows, 1.0)
            node.est_width = left.est_width + right.est_width
            return node

        left, right = self._place_motions(join_type, left, right, left_keys, right_keys)
        node = HashJoin(
            join_type=join_type,
            left=left,
            right=right,
            left_keys=left_keys,
            right_keys=right_keys,
            residual=ex.make_conjunction(residual),
        )
        node.dist = left.dist if left.dist.kind != "replicated" else right.dist
        node.est_rows = max(est_rows, 1.0)
        node.est_width = left.est_width + (
            right.est_width if join_type in ("inner", "left") else 0
        )
        return node

    def _place_motions(
        self,
        join_type: str,
        left: PlanNode,
        right: PlanNode,
        left_keys: List[ex.BoundExpr],
        right_keys: List[ex.BoundExpr],
    ) -> Tuple[PlanNode, PlanNode]:
        """Make both sides co-located for the join keys, choosing the
        cheapest of: stay put / redistribute one side to match the
        other's hashing / broadcast the build side / redistribute both."""
        if self.num_segments <= 1:
            return left, right
        left_ids = [expr_column_id(e) for e in left_keys]
        right_ids = [expr_column_id(e) for e in right_keys]
        left_ok = self._dist_matches(left.dist, left_ids) or left.dist.kind == "single"
        right_ok = self._dist_matches(right.dist, right_ids) or right.dist.kind in (
            "replicated",
            "single",
        )
        if left.dist.kind == "replicated":
            left_ok = join_type == "inner"  # outer/semi left must stay unique

        # Candidate strategies: (cost in bytes moved, builder).
        candidates: List[Tuple[float, object]] = []
        if left_ok and right_ok and self._aligned(left, right, left_ids, right_ids):
            candidates.append((0.0, lambda: (left, right)))
        if left.dist.kind == "hashed" and self._dist_matches(left.dist, left_ids):
            exprs = self._matching_exprs(left.dist.keys, left_ids, right_keys)
            if exprs is not None:
                candidates.append(
                    (
                        right.est_bytes,
                        lambda e=exprs: (left, self._motion("redistribute", right, e)),
                    )
                )
        if (
            right.dist.kind == "hashed"
            and self._dist_matches(right.dist, right_ids)
            and join_type == "inner"
        ):
            exprs = self._matching_exprs(right.dist.keys, right_ids, left_keys)
            if exprs is not None:
                candidates.append(
                    (
                        left.est_bytes,
                        lambda e=exprs: (self._motion("redistribute", left, e), right),
                    )
                )
        if right.dist.kind != "replicated":
            candidates.append(
                (
                    right.est_bytes * (self.num_segments - 1),
                    lambda: (left, self._motion("broadcast", right)),
                )
            )
        if right.dist.kind == "replicated":
            # Right is already everywhere; left may stay put.
            candidates.append((0.0, lambda: (left, right)))
        # Fallback: redistribute both sides on the full key lists.
        both_cost = left.est_bytes + right.est_bytes
        candidates.append(
            (
                both_cost,
                lambda: (
                    self._motion("redistribute", left, left_keys),
                    self._motion("redistribute", right, right_keys),
                ),
            )
        )
        _cost, builder = min(candidates, key=lambda c: c[0])
        return builder()

    def _aligned(
        self,
        left: PlanNode,
        right: PlanNode,
        left_ids: List,
        right_ids: List,
    ) -> bool:
        """Are the two hashed sides partitioned *compatibly*? The i-th
        distribution key of each side must be the i-th member of the same
        join key pair."""
        if left.dist.kind != "hashed":
            return True  # single/replicated combinations
        if right.dist.kind in ("replicated", "single"):
            return True
        if len(left.dist.keys) != len(right.dist.keys):
            return False
        left_canon = [self._canon(i) for i in left_ids]
        right_canon = [self._canon(i) for i in right_ids]
        for lkey, rkey in zip(left.dist.keys, right.dist.keys):
            try:
                li = left_canon.index(self._canon(lkey))
                ri = right_canon.index(self._canon(rkey))
            except ValueError:
                return False
            if li != ri:
                return False
        return True

    def _matching_exprs(
        self,
        dist_keys: Sequence,
        side_ids: List,
        other_keys: List[ex.BoundExpr],
    ) -> Optional[List[ex.BoundExpr]]:
        """For each dist key of the stationary side, the matching join
        expression of the moving side (order matters for hash alignment)."""
        exprs = []
        side_canon = [self._canon(i) for i in side_ids]
        for key in dist_keys:
            try:
                index = side_canon.index(self._canon(key))
            except ValueError:
                return None
            exprs.append(other_keys[index])
        return exprs

    # ------------------------------------------------------------ aggregation
    def _plan_aggregation(
        self, query: LogicalQuery, node: PlanNode
    ) -> Tuple[PlanNode, object]:
        aggs: List[ex.BAgg] = []
        seen: Dict[ex.BAgg, int] = {}

        def register(agg: ex.BAgg) -> int:
            if agg not in seen:
                seen[agg] = len(aggs)
                aggs.append(agg)
            return seen[agg]

        exprs_to_scan: List[ex.BoundExpr] = [t for t, _ in query.targets]
        if query.having is not None:
            exprs_to_scan.append(query.having)
        exprs_to_scan.extend(k.expr for k in query.order_by)
        for expr in exprs_to_scan:
            for sub in ex.walk(expr):
                if isinstance(sub, ex.BAgg):
                    register(sub)

        group_keys = list(query.group_by)
        has_distinct = any(a.distinct for a in aggs)
        key_ids = [expr_column_id(k) for k in group_keys]
        colocated = (
            node.dist.kind == "single"
            or (group_keys and self._dist_matches(node.dist, key_ids))
            or self.num_segments <= 1
        )
        input_rows = node.est_rows
        groups_est = max(
            min(input_rows / 3.0, 10_000.0) if group_keys else 1.0, 1.0
        )

        if colocated:
            agg = HashAgg(child=node, group_keys=group_keys, aggs=aggs, phase="single")
            agg.dist = node.dist
            node = agg
        elif has_distinct:
            # DISTINCT aggregates need all of a group's rows on one QE.
            if group_keys:
                moved = self._motion("redistribute", node, group_keys)
            else:
                moved = self._motion("gather", node)
            agg = HashAgg(child=moved, group_keys=group_keys, aggs=aggs, phase="single")
            agg.dist = moved.dist
            node = agg
        else:
            partial = HashAgg(
                child=node, group_keys=group_keys, aggs=aggs, phase="partial"
            )
            partial.dist = node.dist
            partial.est_rows = min(
                groups_est * self.num_segments, max(input_rows, 1.0)
            )
            partial.est_width = 8.0 * len(partial.layout)
            if group_keys:
                keys_above = [ex.BGroupRef(i) for i in range(len(group_keys))]
                moved = self._motion("redistribute", partial, keys_above)
                final = HashAgg(
                    child=moved,
                    group_keys=keys_above,
                    aggs=aggs,
                    phase="final",
                )
                final.dist = moved.dist
            else:
                moved = self._motion("gather", partial)
                final = HashAgg(child=moved, group_keys=[], aggs=aggs, phase="final")
                final.dist = Distribution.single()
            node = final
        node.est_rows = groups_est
        node.est_width = 8.0 * len(node.layout)

        group_refs = {key: i for i, key in enumerate(group_keys)}

        def rewrite(expr: ex.BoundExpr) -> ex.BoundExpr:
            return ex.rewrite_post_agg(expr, seen, group_refs)

        if query.having is not None:
            having = rewrite(query.having)
            filtered = Filter(child=node, cond=having)
            filtered.est_rows = max(node.est_rows * 0.3, 1.0)
            filtered.est_width = node.est_width
            node = filtered
        return node, rewrite

    # ----------------------------------------------------------- output shape
    def _plan_output(
        self,
        query: LogicalQuery,
        node: PlanNode,
        targets: List[ex.BoundExpr],
        rewrite,
    ) -> PlanNode:
        # Sort keys may reference expressions beyond the select list;
        # compute them as hidden projection columns.
        sort_keys: List[SortKey] = []
        hidden: List[ex.BoundExpr] = []
        project_exprs = list(targets)
        for key in query.order_by:
            expr = rewrite(key.expr)
            if expr in project_exprs:
                index = project_exprs.index(expr)
            else:
                project_exprs.append(expr)
                hidden.append(expr)
                index = len(project_exprs) - 1
            sort_keys.append(
                SortKey(
                    ex.BTargetRef(index),
                    ascending=key.ascending,
                    nulls_first=key.nulls_first,
                )
            )

        project = Project(child=node, exprs=project_exprs)
        project.dist = node.dist
        project.est_rows = node.est_rows
        project.est_width = 8.0 * len(project_exprs)
        node = project

        if query.distinct:
            if hidden:
                raise PlannerError(
                    "for SELECT DISTINCT, ORDER BY expressions must appear "
                    "in select list"
                )
            node = self._plan_distinct(node, len(targets))
            # The dedup's layout is its group keys: sort on those.
            sort_keys = [
                SortKey(
                    ex.BGroupRef(key.expr.index),
                    ascending=key.ascending,
                    nulls_first=key.nulls_first,
                )
                for key in sort_keys
            ]

        if sort_keys:
            local_sort = Sort(child=node, keys=sort_keys)
            local_sort.est_rows = node.est_rows
            local_sort.est_width = node.est_width
            node = local_sort
            if query.limit is not None and node.dist.kind != "single":
                node = Limit(child=node, count=query.limit)
            if node.dist.kind != "single":
                node = self._motion("gather", node)
                merge = Sort(child=node, keys=sort_keys)
                merge.est_rows = node.est_rows
                merge.est_width = node.est_width
                node = merge
        if query.limit is not None:
            if not sort_keys and node.dist.kind != "single":
                node = Limit(child=node, count=query.limit)
                node = self._motion("gather", node)
            node = Limit(child=node, count=query.limit)

        if hidden:
            trim = Project(
                child=node,
                exprs=[ex.BTargetRef(i) for i in range(len(targets))],
            )
            trim.dist = node.dist
            trim.est_rows = node.est_rows
            trim.est_width = 8.0 * len(targets)
            node = trim
        return node

    def _plan_distinct(self, node: PlanNode, ncols: int) -> PlanNode:
        keys = [ex.BTargetRef(i) for i in range(ncols)]
        key_ids = [expr_column_id(k) for k in keys]
        if node.dist.kind == "single" or node.dist.matches_keys(key_ids):
            dedup = HashAgg(child=node, group_keys=keys, aggs=[], phase="single")
            dedup.dist = node.dist
            return dedup
        partial = HashAgg(child=node, group_keys=keys, aggs=[], phase="partial")
        partial.dist = node.dist
        partial.est_rows = node.est_rows
        moved = self._motion(
            "redistribute", partial, [ex.BGroupRef(i) for i in range(ncols)]
        )
        final = HashAgg(
            child=moved,
            group_keys=[ex.BGroupRef(i) for i in range(ncols)],
            aggs=[],
            phase="final",
        )
        final.dist = moved.dist
        final.est_rows = max(node.est_rows / 2, 1.0)
        return final

    # ------------------------------------------------------------- utilities
    def _motion(
        self,
        kind: str,
        child: PlanNode,
        hash_exprs: Optional[List[ex.BoundExpr]] = None,
    ) -> Motion:
        motion = Motion(
            kind=kind,
            child=child,
            hash_exprs=list(hash_exprs or []),
            motion_id=next(self._motion_ids),
        )
        motion.est_rows = child.est_rows * (
            self.num_segments if kind == "broadcast" else 1
        )
        motion.est_width = child.est_width
        return motion

    def _direct_dispatch_segment(self, query: LogicalQuery) -> Optional[int]:
        """Segment id when the plan provably touches one segment only."""
        if not self.options.enable_direct_dispatch:
            return None
        if len(query.rels) != 1 or query.init_plans:
            return None
        rel = query.rels[0]
        if not isinstance(rel.source, TableSource) or rel.source.external:
            return None
        schema = rel.source.schema
        if not schema.distribution.is_hash or schema.partition_spec is not None:
            return None
        pinned: Dict[int, object] = {}
        for qual in query.quals:
            if isinstance(qual, ex.BOp) and qual.op == "=":
                if isinstance(qual.left, ex.BVar) and isinstance(
                    qual.right, ex.BConst
                ):
                    pinned[qual.left.col] = qual.right.value
                elif isinstance(qual.right, ex.BVar) and isinstance(
                    qual.left, ex.BConst
                ):
                    pinned[qual.right.col] = qual.left.value
        try:
            values = [
                pinned[schema.column_index(c)] for c in schema.distribution.columns
            ]
        except KeyError:
            return None
        return hash_values(values, self.num_segments)
