"""Subquery decorrelation.

Rewrites :class:`~repro.planner.exprs.BSubPlan` nodes into joins, the way
mature optimizers (including Greenplum's, which HAWQ inherits) do:

* uncorrelated scalar subquery        -> InitPlan (run once, becomes a
  parameter),
* ``x IN (SELECT ...)``               -> semi join (anti join for NOT IN),
* ``[NOT] EXISTS (correlated SELECT)``-> semi/anti join whose join
  condition is the rewritten correlation predicate,
* correlated scalar *aggregate*       -> the subquery is grouped by its
  correlation columns and inner-joined back (the classic magic-set-style
  rewrite; works for Q2/Q17/Q20).

Only subplans appearing as top-level WHERE/HAVING conjuncts can change
join structure; a subplan nested under OR raises a clear PlannerError
(no TPC-H query needs it).

Semantics notes (documented deviations, see DESIGN.md's "Known
simplifications"; neither reaches a TPC-H answer): ``NOT IN`` is an anti
join, so NULLs in the subquery output or on the probe side do not give
SQL's answer. A correlated scalar aggregate is an inner join, so an
outer row that no inner row matches is dropped: right under a WHERE
comparison for MIN / MAX / AVG / SUM (their NULL never compares true),
wrong for ``COUNT`` (which should compare 0), and wrong in a SELECT list
for every aggregate, which should give NULL for that row instead.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.errors import PlannerError
from repro.planner import exprs as ex
from repro.planner.logical import DerivedSource, LogicalQuery, RelEntry


def decorrelate(query: LogicalQuery) -> LogicalQuery:
    """Rewrite all subplans in ``query`` (in place; returned for chaining)."""
    for rel in query.rels:
        if isinstance(rel.source, DerivedSource):
            decorrelate(rel.source.query)
    if not any(map(ex.has_subplan, query.expressions())):
        # Nothing to rewrite. The rewrite below would walk every tree to
        # change nothing but HAVING's conjunction, which it rebuilds
        # left-deep: that changes the plan, so it is kept.
        if query.having is not None:
            query.having = ex.make_conjunction(ex.conjuncts(query.having))
        for init in query.init_plans:
            decorrelate(init)
        return query

    # Join predicates manufactured mid-rewrite (by the scalar-aggregate
    # transform) land in _pending_quals so the reassignment below cannot
    # lose them.
    query._pending_quals = []  # type: ignore[attr-defined]
    new_quals: List[ex.BoundExpr] = []
    for qual in list(query.quals):
        new_quals.extend(_rewrite_conjunct(qual, query))
    query.quals = new_quals

    query.targets = [
        (_rewrite_scalar_subplans(t, query), name) for t, name in query.targets
    ]
    if query.having is not None:
        having_parts: List[ex.BoundExpr] = []
        for conjunct in ex.conjuncts(query.having):
            having_parts.append(_rewrite_scalar_subplans(conjunct, query))
        query.having = ex.make_conjunction(having_parts)
    query.order_by = [
        replace(k, expr=_rewrite_scalar_subplans(k.expr, query))
        for k in query.order_by
    ]
    query.quals.extend(query._pending_quals)  # type: ignore[attr-defined]
    query._pending_quals = []  # type: ignore[attr-defined]
    for init in query.init_plans:
        decorrelate(init)
    _reject_remaining_subplans(query)
    return query


# ----------------------------------------------------------- conjunct rewrite
def _rewrite_conjunct(
    qual: ex.BoundExpr, query: LogicalQuery
) -> List[ex.BoundExpr]:
    """Rewrite one WHERE conjunct; may append rels/quals to ``query``."""
    if isinstance(qual, ex.BSubPlan):
        if qual.kind == "exists":
            _add_semi_join(query, qual.query, negated=qual.negated, test=None)
            return []
        if qual.kind == "in":
            _add_semi_join(query, qual.query, negated=qual.negated, test=qual.test)
            return []
        # A bare scalar subplan as a boolean conjunct: treat as scalar.
    return [_rewrite_scalar_subplans(qual, query)]


def _rewrite_scalar_subplans(
    expr: ex.BoundExpr, query: LogicalQuery
) -> ex.BoundExpr:
    """Replace scalar BSubPlans with params (uncorrelated) or join vars
    (correlated aggregates)."""

    def rewrite(node: ex.BoundExpr) -> Optional[ex.BoundExpr]:
        if not isinstance(node, ex.BSubPlan):
            return None
        if node.kind != "scalar":
            raise PlannerError(
                "IN/EXISTS subqueries are only supported as top-level "
                "WHERE conjuncts"
            )
        sub: LogicalQuery = node.query
        decorrelate(sub)
        corr = _correlation_quals(sub)
        if not corr:
            query.init_plans.append(sub)
            return ex.BParam(len(query.init_plans) - 1)
        return _add_scalar_agg_join(query, sub, corr)

    return ex.transform(expr, rewrite)


# ----------------------------------------------------------------- semi join
def _add_semi_join(
    query: LogicalQuery,
    sub: LogicalQuery,
    negated: bool,
    test: Optional[ex.BoundExpr],
) -> None:
    """Attach ``sub`` as a semi (or anti) joined derived relation."""
    decorrelate(sub)
    corr = _correlation_quals(sub)
    if sub.has_aggregates and corr:
        raise PlannerError(
            "correlated IN/EXISTS over an aggregating subquery is not supported"
        )
    sub.quals = [q for q in sub.quals if q not in corr]

    new_rel_index = len(query.rels)
    inner_outputs: Dict[ex.BVar, int] = {}
    join_conds: List[ex.BoundExpr] = []
    if test is not None:
        # IN: the subquery's single output column is join key 0.
        join_conds.append(
            ex.BOp("=", test, ex.BVar(rel=new_rel_index, col=0, name="_in"))
        )
    else:
        # EXISTS: the original targets are irrelevant; only correlation
        # columns need to flow out of the subquery.
        sub.targets = []

    def _slot_for(var: ex.BVar) -> int:
        if var not in inner_outputs:
            sub.targets.append((var, f"_c{len(sub.targets)}"))
            inner_outputs[var] = len(sub.targets) - 1
        return inner_outputs[var]

    def rebind(qual: ex.BoundExpr) -> ex.BoundExpr:
        """Move a correlated conjunct into the outer query's frame."""

        def fn(node: ex.BoundExpr) -> Optional[ex.BoundExpr]:
            if isinstance(node, ex.BVar):
                if node.level == 0:
                    slot = _slot_for(node)
                    return ex.BVar(
                        rel=new_rel_index, col=slot, name=node.name, level=0
                    )
                return replace(node, level=node.level - 1)
            return None

        return ex.transform(qual, fn)

    for conjunct in corr:
        join_conds.append(rebind(conjunct))

    query.rels.append(
        RelEntry(
            alias=f"_subplan_{new_rel_index}",
            column_names=[name for _, name in sub.targets],
            source=DerivedSource(sub),
            join_type="anti" if negated else "semi",
            join_cond=ex.make_conjunction(join_conds),
        )
    )


# ---------------------------------------------------------- scalar agg join
def _add_scalar_agg_join(
    query: LogicalQuery, sub: LogicalQuery, corr: List[ex.BoundExpr]
) -> ex.BoundExpr:
    """Group the correlated scalar-aggregate subquery by its correlation
    columns, inner-join it back, and return the Var holding the value."""
    if not sub.has_aggregates or sub.group_by or len(sub.targets) != 1:
        raise PlannerError(
            "correlated scalar subqueries must be a single plain aggregate"
        )
    sub.quals = [q for q in sub.quals if q not in corr]
    new_rel_index = len(query.rels)
    group_slots: Dict[ex.BVar, int] = {}
    join_quals: List[ex.BoundExpr] = []
    for conjunct in corr:
        outer_expr, inner_var = _split_eq_correlation(conjunct)
        if inner_var not in group_slots:
            sub.group_by.append(inner_var)
            sub.targets.append((inner_var, f"_g{len(sub.targets)}"))
            group_slots[inner_var] = len(sub.targets) - 1
        join_quals.append(
            ex.BOp(
                "=",
                _lower_level(outer_expr),
                ex.BVar(rel=new_rel_index, col=group_slots[inner_var]),
            )
        )
    query.rels.append(
        RelEntry(
            alias=f"_scalar_{new_rel_index}",
            column_names=[name for _, name in sub.targets],
            source=DerivedSource(sub),
            join_type="inner",
            join_cond=None,
        )
    )
    pending = getattr(query, "_pending_quals", None)
    if pending is None:
        query.quals.extend(join_quals)
    else:
        pending.extend(join_quals)
    return ex.BVar(rel=new_rel_index, col=0, name="_scalar")


def _split_eq_correlation(
    qual: ex.BoundExpr,
) -> Tuple[ex.BoundExpr, ex.BVar]:
    """For ``inner_var = outer_expr`` (either order) return (outer, inner)."""
    if not (isinstance(qual, ex.BOp) and qual.op == "="):
        raise PlannerError(
            "correlated scalar aggregates support only equality correlation"
        )
    left_levels = {v.level for v in _all_vars(qual.left)}
    right_levels = {v.level for v in _all_vars(qual.right)}
    if left_levels == {0} and right_levels and 0 not in right_levels:
        inner, outer = qual.left, qual.right
    elif right_levels == {0} and left_levels and 0 not in left_levels:
        inner, outer = qual.right, qual.left
    else:
        raise PlannerError("unsupported correlation predicate shape")
    if not isinstance(inner, ex.BVar):
        raise PlannerError("correlation must be on a bare inner column")
    return outer, inner


def _lower_level(expr: ex.BoundExpr) -> ex.BoundExpr:
    def fn(node: ex.BoundExpr) -> Optional[ex.BoundExpr]:
        if isinstance(node, ex.BVar) and node.level >= 1:
            return replace(node, level=node.level - 1)
        return None

    return ex.transform(expr, fn)


# ------------------------------------------------------------------ helpers
def _all_vars(expr: ex.BoundExpr) -> List[ex.BVar]:
    return [n for n in ex.walk(expr) if isinstance(n, ex.BVar)]


def _correlation_quals(sub: LogicalQuery) -> List[ex.BoundExpr]:
    """Conjuncts of ``sub`` that reference enclosing-query columns."""
    return [
        q
        for q in sub.quals
        if any(v.level >= 1 for v in _all_vars(q))
    ]


def _reject_remaining_subplans(query: LogicalQuery) -> None:
    for expr in query.expressions():
        if ex.has_subplan(expr):
            raise PlannerError(
                "a subquery expression survived decorrelation (subqueries "
                "under OR or in unsupported positions are not implemented)"
            )
