"""The analyzed, planner-ready representation of one SELECT.

A :class:`LogicalQuery` is relational-algebra-flavoured: a list of
relations (base tables, derived subqueries), a flat list of WHERE
conjuncts, and the projection/aggregation/ordering clauses — all
expressed over :class:`~repro.planner.exprs.BVar` (relation index,
column index) references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.catalog.schema import TableSchema
from repro.planner.exprs import BoundExpr, BSubPlan, walk


@dataclass
class TableSource:
    """A base table (or external PXF table)."""

    table_name: str
    schema: TableSchema
    external: bool = False
    pxf: Optional[dict] = None


@dataclass
class DerivedSource:
    """A subquery in FROM (or one manufactured by decorrelation)."""

    query: "LogicalQuery"


@dataclass
class RelEntry:
    """One relation in the query's FROM space.

    ``join_type`` describes how this relation joins the ones before it:
    'inner' (default; comma-separated tables are inner with conditions in
    the WHERE quals), 'left' (explicit LEFT JOIN with ``join_cond``),
    'semi' / 'anti' (manufactured by decorrelation of IN/EXISTS).
    """

    alias: str
    column_names: List[str]
    source: object  # TableSource | DerivedSource
    join_type: str = "inner"
    join_cond: Optional[BoundExpr] = None


@dataclass
class SortKey:
    expr: BoundExpr
    ascending: bool = True
    nulls_first: Optional[bool] = None


@dataclass
class LogicalQuery:
    """One analyzed SELECT block."""

    rels: List[RelEntry] = field(default_factory=list)
    quals: List[BoundExpr] = field(default_factory=list)
    #: Output expressions with their column names.
    targets: List[Tuple[BoundExpr, str]] = field(default_factory=list)
    group_by: List[BoundExpr] = field(default_factory=list)
    having: Optional[BoundExpr] = None
    order_by: List[SortKey] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    #: True when any target/having contains an aggregate (even without
    #: GROUP BY: plain aggregation to one row).
    has_aggregates: bool = False
    #: Uncorrelated scalar subqueries hoisted out; BParam(i) refers here.
    init_plans: List["LogicalQuery"] = field(default_factory=list)

    @property
    def output_names(self) -> List[str]:
        return [name for _, name in self.targets]

    def expressions(self) -> List[BoundExpr]:
        """The expressions a subquery can sit in: quals, targets, HAVING,
        ORDER BY keys and join conditions of this block."""
        exprs = list(self.quals)
        exprs.extend(t for t, _ in self.targets)
        if self.having is not None:
            exprs.append(self.having)
        exprs.extend(k.expr for k in self.order_by)
        exprs.extend(r.join_cond for r in self.rels if r.join_cond is not None)
        return exprs

    def tables(self, subplans: bool = False) -> List[str]:
        """Every base-table name this query reads, derived tables and
        init plans included, sorted. Before decorrelation IN / EXISTS /
        scalar subqueries still sit inside expressions; ``subplans``
        includes their tables too."""
        names = set()
        pending = [self]
        while pending:
            query = pending.pop()
            for rel in query.rels:
                if isinstance(rel.source, DerivedSource):
                    pending.append(rel.source.query)
                else:
                    names.add(rel.source.table_name)
            pending.extend(query.init_plans)
            if subplans:
                pending.extend(
                    node.query
                    for expr in query.expressions()
                    for node in walk(expr)
                    if isinstance(node, BSubPlan)
                )
        return sorted(names)
