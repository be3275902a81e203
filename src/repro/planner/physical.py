"""Physical plan nodes, distributions, and plan slicing.

A physical plan is a tree of operator nodes; ``Motion`` nodes mark data
movement between gangs. :func:`slice_plan` cuts the tree at motion
boundaries into :class:`PlanSlice` units (paper Section 2.4): each slice
runs as a gang of QEs, the topmost slice on the QD.

Every node carries a **layout** — the ordered list of column identities
its output tuples have. Column identities are tuples:
``('r', rel, col)`` for base/derived relation columns, ``('g', i)`` /
``('a', i)`` for group keys / aggregate slots above a HashAgg, and
``('t', i)`` for final projected targets. Expressions are compiled
against a node's input layout at execution time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlannerError
from repro.planner import exprs as ex
from repro.planner.logical import LogicalQuery, SortKey, TableSource

ColumnId = Tuple


# -------------------------------------------------------------- distributions
def expr_column_id(expr: ex.BoundExpr) -> Optional[ColumnId]:
    """Column identity of a bare column expression, else None.

    Used to reason about co-location: a distribution or join key that is
    not a bare column cannot be matched structurally and is treated
    conservatively (no co-location assumed).
    """
    if isinstance(expr, ex.BVar) and expr.level == 0:
        return ("r", expr.rel, expr.col)
    if isinstance(expr, ex.BGroupRef):
        return ("g", expr.index)
    if isinstance(expr, ex.BAggRef):
        return ("a", expr.index)
    if isinstance(expr, ex.BTargetRef):
        return ("t", expr.index)
    return None


@dataclass(frozen=True)
class Distribution:
    """How a node's output rows are spread across the gang.

    ``keys`` are column ids in the node's output layout vocabulary.
    """

    kind: str  # hashed | random | replicated | single
    keys: Tuple[ColumnId, ...] = ()

    @classmethod
    def hashed(cls, keys: Sequence[ColumnId]) -> "Distribution":
        return cls("hashed", tuple(keys))

    @classmethod
    def random(cls) -> "Distribution":
        return cls("random")

    @classmethod
    def replicated(cls) -> "Distribution":
        return cls("replicated")

    @classmethod
    def single(cls) -> "Distribution":
        return cls("single")

    def matches_keys(self, key_ids: Sequence[Optional[ColumnId]]) -> bool:
        """True if rows are already co-located for these join/group keys:
        every distribution key must appear among the given column ids."""
        if self.kind != "hashed" or not self.keys:
            return False
        present = {k for k in key_ids if k is not None}
        return all(k in present for k in self.keys)


# --------------------------------------------------------------------- nodes
@dataclass
class PlanNode:
    """Base physical node; subclasses set children and layout."""

    layout: List[ColumnId] = field(default_factory=list, init=False)
    dist: Distribution = field(default=Distribution.random(), init=False)
    est_rows: float = field(default=1000.0, init=False)
    est_width: float = field(default=64.0, init=False)

    @property
    def children(self) -> List["PlanNode"]:
        return []

    @property
    def est_bytes(self) -> float:
        return self.est_rows * self.est_width

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class SeqScan(PlanNode):
    """Scan of one base table (all of its partitions unless eliminated)."""

    rel: int
    table: TableSource
    columns: List[int]  # physical columns actually decoded
    filter: Optional[ex.BoundExpr] = None
    #: Child partition table names to scan (None = not partitioned).
    partitions: Optional[List[str]] = None
    #: Partitions pruned by the planner, for EXPLAIN and tests.
    pruned_partitions: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.layout = [("r", self.rel, c) for c in self.columns]

    def describe(self) -> str:
        extra = f", filter" if self.filter is not None else ""
        pruned = (
            f", pruned {len(self.pruned_partitions)} partitions"
            if self.pruned_partitions
            else ""
        )
        return f"SeqScan({self.table.table_name}{extra}{pruned})"


@dataclass
class ExternalScan(PlanNode):
    """PXF external-table scan (paper Section 6)."""

    rel: int
    table: TableSource
    columns: List[int]
    filter: Optional[ex.BoundExpr] = None
    #: Conjuncts pushed down to the connector's filter API.
    pushed_filters: List[ex.BoundExpr] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.layout = [("r", self.rel, c) for c in self.columns]

    def describe(self) -> str:
        return f"ExternalScan({self.table.table_name})"


@dataclass
class SubqueryScan(PlanNode):
    """Adapts a derived subquery's output into relation ``rel``."""

    rel: int
    child: PlanNode
    ncols: int

    def __post_init__(self) -> None:
        self.layout = [("r", self.rel, i) for i in range(self.ncols)]

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class Filter(PlanNode):
    child: PlanNode
    cond: ex.BoundExpr = None

    def __post_init__(self) -> None:
        self.layout = list(self.child.layout)
        self.dist = self.child.dist

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class Project(PlanNode):
    child: PlanNode
    exprs: List[ex.BoundExpr] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.layout = [("t", i) for i in range(len(self.exprs))]
        self.dist = self.child.dist

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class HashJoin(PlanNode):
    """Hash join; build side is always ``right``.

    ``join_type``: inner | left | semi | anti. Semi/anti output only the
    left side's columns.
    """

    join_type: str
    left: PlanNode
    right: PlanNode
    left_keys: List[ex.BoundExpr] = field(default_factory=list)
    right_keys: List[ex.BoundExpr] = field(default_factory=list)
    residual: Optional[ex.BoundExpr] = None

    def __post_init__(self) -> None:
        if self.join_type in ("semi", "anti"):
            self.layout = list(self.left.layout)
        else:
            self.layout = list(self.left.layout) + list(self.right.layout)

    @property
    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def layout_for_residual(self) -> List[ColumnId]:
        """Residual conditions see both sides even for semi/anti joins."""
        return list(self.left.layout) + list(self.right.layout)

    def describe(self) -> str:
        return f"HashJoin({self.join_type}, {len(self.left_keys)} keys)"


@dataclass
class NestLoopJoin(PlanNode):
    """Nested-loop join for key-less (cross / pure inequality) joins."""

    join_type: str  # inner | left | semi | anti
    left: PlanNode
    right: PlanNode
    cond: Optional[ex.BoundExpr] = None

    def __post_init__(self) -> None:
        if self.join_type in ("semi", "anti"):
            self.layout = list(self.left.layout)
        else:
            self.layout = list(self.left.layout) + list(self.right.layout)

    @property
    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def layout_for_residual(self) -> List[ColumnId]:
        return list(self.left.layout) + list(self.right.layout)


@dataclass
class HashAgg(PlanNode):
    """Hash aggregation.

    ``phase``: 'single' computes final values directly; 'partial'
    emits transition states; 'final' merges states from a partial phase.
    Output layout: group keys then aggregate slots.
    """

    child: PlanNode
    group_keys: List[ex.BoundExpr] = field(default_factory=list)
    aggs: List[ex.BAgg] = field(default_factory=list)
    phase: str = "single"

    def __post_init__(self) -> None:
        self.layout = [("g", i) for i in range(len(self.group_keys))] + [
            ("a", i) for i in range(len(self.aggs))
        ]

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"HashAgg({self.phase}, {len(self.group_keys)} keys, {len(self.aggs)} aggs)"


@dataclass
class Sort(PlanNode):
    child: PlanNode
    keys: List[SortKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.layout = list(self.child.layout)
        self.dist = self.child.dist

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class Limit(PlanNode):
    child: PlanNode
    count: int = 0

    def __post_init__(self) -> None:
        self.layout = list(self.child.layout)
        self.dist = self.child.dist

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class Result(PlanNode):
    """Constant-expression query (no FROM): runs on the master only."""

    exprs: List[ex.BoundExpr] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.layout = [("t", i) for i in range(len(self.exprs))]
        self.dist = Distribution.single()


@dataclass
class Motion(PlanNode):
    """Data movement: the send half lives at the top of a child slice."""

    kind: str  # gather | redistribute | broadcast
    child: PlanNode
    hash_exprs: List[ex.BoundExpr] = field(default_factory=list)
    motion_id: int = 0

    def __post_init__(self) -> None:
        self.layout = list(self.child.layout)
        if self.kind == "gather":
            self.dist = Distribution.single()
        elif self.kind == "broadcast":
            self.dist = Distribution.replicated()
        else:
            ids = [expr_column_id(e) for e in self.hash_exprs]
            self.dist = (
                Distribution.hashed([i for i in ids if i is not None])
                if all(i is not None for i in ids) and ids
                else Distribution.random()
            )

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Motion({self.kind})"


@dataclass
class MotionRecv(PlanNode):
    """Receive half of a motion: a leaf in the consuming slice."""

    slice_id: int = 0
    kind: str = "gather"
    source_layout: List[ColumnId] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.layout = list(self.source_layout)

    def describe(self) -> str:
        return f"MotionRecv(slice {self.slice_id}, {self.kind})"


# -------------------------------------------------------------------- slices
@dataclass
class PlanSlice:
    """One execution unit: runs as a gang of QEs (paper Section 2.4)."""

    slice_id: int
    root: PlanNode
    #: 'N' = one QE per segment; '1' = a single QE (the QD for the top).
    gang: str = "N"
    #: Motion kind connecting this slice to its parent (None for top).
    motion_kind: Optional[str] = None
    hash_exprs: List[ex.BoundExpr] = field(default_factory=list)
    child_slices: List[int] = field(default_factory=list)


@dataclass
class PhysicalPlan:
    """A complete parallel plan: slices + init plans + output metadata."""

    slices: List[PlanSlice]
    output_names: List[str]
    init_plans: List["PhysicalPlan"] = field(default_factory=list)
    #: Set when the planner proved the plan touches one segment only.
    direct_dispatch_segment: Optional[int] = None
    #: Number of segments the plan was built for.
    num_segments: int = 0

    @property
    def top_slice(self) -> PlanSlice:
        return self.slices[-1]

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    def explain(self, annotate=None) -> str:
        """Human-readable plan tree for EXPLAIN, one line per operator
        ending in the planner's row estimate (``est_rows=<int>``).

        ``annotate``, when given, is ``callback(node) -> Optional[str]``;
        a returned string is appended to that node's line (EXPLAIN
        (ANALYZE, VERBOSE) feeds per-operator trace stats through it).
        """
        lines: List[str] = []
        for plan in self.init_plans:
            lines.append("InitPlan:")
            lines.extend(
                "  " + l for l in plan.explain(annotate=annotate).splitlines()
            )
        for plan_slice in reversed(self.slices):
            gang = "QD" if plan_slice.gang == "1" else "gang of N"
            lines.append(f"Slice {plan_slice.slice_id} ({gang}):")
            self._explain_node(plan_slice.root, lines, depth=1, annotate=annotate)
        return "\n".join(lines)

    def _explain_node(
        self, node: PlanNode, lines: List[str], depth: int, annotate=None
    ) -> None:
        line = "  " * depth + "-> " + node.describe()
        line += f"  est_rows={round(node.est_rows)}"
        if annotate is not None:
            extra = annotate(node)
            if extra:
                line += f"  {extra}"
        lines.append(line)
        for child in node.children:
            self._explain_node(child, lines, depth + 1, annotate=annotate)


def slice_plan(
    root: PlanNode,
    output_names: List[str],
    init_plans: Optional[List[PhysicalPlan]] = None,
    num_segments: int = 0,
    direct_dispatch_segment: Optional[int] = None,
) -> PhysicalPlan:
    """Cut a plan tree at motion boundaries into slices.

    Slices are emitted children-first, the top slice last. The top slice
    runs on the QD (gang '1') when the root's distribution is 'single',
    otherwise as an N-gang whose results the engine gathers implicitly.
    """
    slices: List[PlanSlice] = []
    counter = itertools.count()
    top_root, child_ids = _cut(root, slices, counter)
    top_id = next(counter)
    gang = "1" if top_root.dist.kind == "single" else "N"
    slices.append(
        PlanSlice(
            slice_id=top_id,
            root=top_root,
            gang=gang,
            motion_kind=None,
            child_slices=child_ids,
        )
    )
    return PhysicalPlan(
        slices=slices,
        output_names=output_names,
        init_plans=init_plans or [],
        num_segments=num_segments,
        direct_dispatch_segment=direct_dispatch_segment,
    )


def _cut(
    node: PlanNode, slices: List[PlanSlice], counter: Iterator[int]
) -> Tuple[PlanNode, List[int]]:
    """Replace Motions under ``node`` with MotionRecv leaves, appending
    the slice below each to ``slices``. (A module-level function: as a
    closure calling itself it would tie the slices into a reference
    cycle, and a finished statement's plan should die by refcount.)"""
    if isinstance(node, Motion):
        child_root, grandchildren = _cut(node.child, slices, counter)
        slice_id = next(counter)
        gang = "1" if node.child.dist.kind == "single" else "N"
        slices.append(
            PlanSlice(
                slice_id=slice_id,
                root=_clone_with_child(node, child_root),
                gang=gang,
                motion_kind=node.kind,
                hash_exprs=list(node.hash_exprs),
                child_slices=grandchildren,
            )
        )
        recv = MotionRecv(
            slice_id=slice_id, kind=node.kind, source_layout=list(node.layout)
        )
        recv.dist = node.dist
        recv.est_rows = node.est_rows
        recv.est_width = node.est_width
        return recv, [slice_id]
    child_ids: List[int] = []
    new_children = []
    for child in node.children:
        new_child, ids = _cut(child, slices, counter)
        new_children.append(new_child)
        child_ids.extend(ids)
    return _replace_children(node, new_children), child_ids


def _clone_with_child(motion: Motion, child: PlanNode) -> Motion:
    clone = Motion(
        kind=motion.kind,
        child=child,
        hash_exprs=list(motion.hash_exprs),
        motion_id=motion.motion_id,
    )
    clone.est_rows = motion.est_rows
    clone.est_width = motion.est_width
    return clone


def _replace_children(node: PlanNode, new_children: List[PlanNode]) -> PlanNode:
    """Mutate ``node`` to point at the rewritten children."""
    if not new_children:
        return node
    if isinstance(node, (Filter, Project, HashAgg, Sort, Limit, SubqueryScan)):
        node.child = new_children[0]
    elif isinstance(node, (HashJoin, NestLoopJoin)):
        node.left, node.right = new_children
    elif isinstance(node, Motion):  # pragma: no cover - handled in cut()
        node.child = new_children[0]
    else:
        raise PlannerError(f"cannot replace children of {type(node).__name__}")
    return node
