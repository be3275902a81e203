"""Bound (resolved) expression nodes.

The semantic analyzer turns parser AST expressions into these: column
references become :class:`BVar` (relation index, column index), function
names are validated, aggregates become :class:`BAgg`, and subqueries
become :class:`BSubPlan` nodes for the decorrelation pass.

All nodes are dataclasses with structural equality — the aggregation
planner relies on it to match GROUP BY keys inside output expressions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.errors import PlannerError

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")
SCALAR_FUNCTIONS = (
    "substring",
    "upper",
    "lower",
    "length",
    "abs",
    "round",
    "coalesce",
    "nullif",
)


@dataclass(frozen=True)
class BoundExpr:
    """Base class of all bound expressions."""


@dataclass(frozen=True)
class BConst(BoundExpr):
    value: object


@dataclass(frozen=True)
class BInterval(BoundExpr):
    quantity: float
    unit: str  # year | month | day


@dataclass(frozen=True)
class BVar(BoundExpr):
    """A column of relation ``rel`` in the query ``level`` scopes out.

    ``level`` 0 is the current query; >0 marks a correlated reference
    into an enclosing query (resolved away by decorrelation).
    """

    rel: int
    col: int
    name: str = ""
    level: int = 0


@dataclass(frozen=True)
class BParam(BoundExpr):
    """Placeholder for an InitPlan result (uncorrelated scalar subquery)."""

    index: int


@dataclass(frozen=True)
class BOp(BoundExpr):
    op: str  # and or = <> < <= > >= + - * / % ||
    left: BoundExpr
    right: BoundExpr


@dataclass(frozen=True)
class BNot(BoundExpr):
    operand: BoundExpr


@dataclass(frozen=True)
class BFunc(BoundExpr):
    name: str
    args: Tuple[BoundExpr, ...] = ()


@dataclass(frozen=True)
class BAgg(BoundExpr):
    func: str  # count sum avg min max
    arg: Optional[BoundExpr] = None  # None => count(*)
    distinct: bool = False


@dataclass(frozen=True)
class BAggRef(BoundExpr):
    """Reference to aggregate slot ``index`` above a HashAgg node."""

    index: int


@dataclass(frozen=True)
class BGroupRef(BoundExpr):
    """Reference to group-key slot ``index`` above a HashAgg node."""

    index: int


@dataclass(frozen=True)
class BTargetRef(BoundExpr):
    """Reference to projected target slot ``index`` above a Project node."""

    index: int


@dataclass(frozen=True)
class BCase(BoundExpr):
    whens: Tuple[Tuple[BoundExpr, BoundExpr], ...]
    else_result: Optional[BoundExpr] = None


@dataclass(frozen=True)
class BCast(BoundExpr):
    operand: BoundExpr
    type_name: str


@dataclass(frozen=True)
class BLike(BoundExpr):
    operand: BoundExpr
    pattern: str  # patterns are literal in the supported dialect
    negated: bool = False


@dataclass(frozen=True)
class BIn(BoundExpr):
    operand: BoundExpr
    items: Tuple[BoundExpr, ...]
    negated: bool = False


@dataclass(frozen=True)
class BIsNull(BoundExpr):
    operand: BoundExpr
    negated: bool = False


@dataclass(frozen=True)
class BExtract(BoundExpr):
    part: str
    operand: BoundExpr


@dataclass(frozen=True)
class BSubPlan(BoundExpr):
    """A subquery expression awaiting decorrelation.

    ``kind``: 'scalar' | 'in' | 'exists'. ``test`` is the left operand of
    IN. The LogicalQuery is stored by reference (not hashed/compared).
    """

    kind: str
    query: object = field(compare=False, hash=False)  # LogicalQuery
    test: Optional[BoundExpr] = None
    negated: bool = False


# ----------------------------------------------------------------- utilities
def conjuncts(expr: Optional[BoundExpr]) -> List[BoundExpr]:
    """Flatten a boolean expression into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def make_conjunction(parts: List[BoundExpr]) -> Optional[BoundExpr]:
    if not parts:
        return None
    result = parts[0]
    for part in parts[1:]:
        result = BOp(op="and", left=result, right=part)
    return result


#: Node types with no child expression.
_LEAVES = frozenset(
    (BConst, BInterval, BVar, BParam, BAggRef, BGroupRef, BTargetRef)
)
#: Node types whose one child is ``operand``.
_OPERAND = frozenset((BNot, BCast, BExtract, BIsNull, BLike))


def walk(expr: BoundExpr) -> Iterator[BoundExpr]:
    """Yield the expression and all of its descendants: pre-order, each
    node's children left to right (``BIn``'s operand before its items,
    each ``CASE`` condition before its result). One loop over a stack of
    the nodes still to visit, which takes children right to left."""
    stack = [expr]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        yield node
        cls = type(node)
        if cls in _LEAVES:
            continue
        if cls is BOp:
            push(node.right)
            push(node.left)
        elif cls in _OPERAND:
            push(node.operand)
        elif cls is BFunc:
            extend(reversed(node.args))
        elif cls is BAgg or cls is BSubPlan:
            child = node.arg if cls is BAgg else node.test
            if child is not None:
                push(child)
        elif cls is BIn:
            extend(reversed(node.items))
            push(node.operand)
        elif cls is BCase:
            if node.else_result is not None:
                push(node.else_result)
            for cond, result in reversed(node.whens):
                push(result)
                push(cond)


def transform(
    expr: BoundExpr, fn: Callable[[BoundExpr], Optional[BoundExpr]]
) -> BoundExpr:
    """Bottom-up rewrite: ``fn`` may return a replacement or None to keep.

    ``fn`` is applied to children first, then to the rebuilt node. A
    node none of whose children changed is kept, not copied: nodes are
    immutable, so a rewrite that replaces nothing returns ``expr``.
    """
    rebuilt = _rebuild(expr, fn)
    replacement = fn(rebuilt)
    return replacement if replacement is not None else rebuilt


def _same(new: tuple, old: tuple) -> bool:
    return all(map(operator.is_, new, old))


def _rebuild(expr: BoundExpr, fn) -> BoundExpr:
    """``expr`` with its children transformed, dispatched on its type."""
    cls = type(expr)
    if cls in _LEAVES:
        return expr
    if cls is BOp:
        left, right = transform(expr.left, fn), transform(expr.right, fn)
        if left is expr.left and right is expr.right:
            return expr
        return BOp(expr.op, left, right)
    if cls in _OPERAND:
        operand = transform(expr.operand, fn)
        return expr if operand is expr.operand else replace(expr, operand=operand)
    if cls is BFunc:
        args = tuple(transform(a, fn) for a in expr.args)
        return expr if _same(args, expr.args) else BFunc(expr.name, args)
    if cls is BAgg or cls is BSubPlan:
        child = expr.arg if cls is BAgg else expr.test
        if child is None:
            return expr
        new = transform(child, fn)
        if new is child:
            return expr
        return replace(expr, arg=new) if cls is BAgg else replace(expr, test=new)
    if cls is BIn:
        operand = transform(expr.operand, fn)
        items = tuple(transform(i, fn) for i in expr.items)
        if operand is expr.operand and _same(items, expr.items):
            return expr
        return BIn(operand, items, expr.negated)
    if cls is BCase:
        whens = tuple((transform(c, fn), transform(r, fn)) for c, r in expr.whens)
        else_result = (
            transform(expr.else_result, fn) if expr.else_result is not None else None
        )
        if else_result is expr.else_result and all(
            _same(when, old) for when, old in zip(whens, expr.whens)
        ):
            return expr
        return BCase(whens, else_result)
    return expr


def rewrite_post_agg(
    expr: BoundExpr,
    agg_index: dict,
    group_refs: dict,
) -> BoundExpr:
    """Rewrite an output expression for evaluation above a HashAgg.

    Top-down, so aggregate nodes are replaced *whole* (their arguments
    must never be rewritten — ``count(a)`` with ``GROUP BY a`` is still
    the aggregate over the raw column, not over the group slot).
    """
    if isinstance(expr, BAgg):
        return BAggRef(agg_index[expr])
    if expr in group_refs:
        return BGroupRef(group_refs[expr])

    def recurse(node: BoundExpr) -> BoundExpr:
        return rewrite_post_agg(node, agg_index, group_refs)

    if isinstance(expr, BOp):
        return BOp(expr.op, recurse(expr.left), recurse(expr.right))
    if isinstance(expr, BNot):
        return BNot(recurse(expr.operand))
    if isinstance(expr, BFunc):
        return BFunc(expr.name, tuple(recurse(a) for a in expr.args))
    if isinstance(expr, BCase):
        whens = tuple((recurse(c), recurse(r)) for c, r in expr.whens)
        else_result = (
            recurse(expr.else_result) if expr.else_result is not None else None
        )
        return BCase(whens, else_result)
    if isinstance(expr, BCast):
        return BCast(recurse(expr.operand), expr.type_name)
    if isinstance(expr, BExtract):
        return BExtract(expr.part, recurse(expr.operand))
    if isinstance(expr, BIsNull):
        return BIsNull(recurse(expr.operand), expr.negated)
    if isinstance(expr, BLike):
        return BLike(recurse(expr.operand), expr.pattern, expr.negated)
    if isinstance(expr, BIn):
        return BIn(
            recurse(expr.operand),
            tuple(recurse(i) for i in expr.items),
            expr.negated,
        )
    return expr


def vars_of(expr: BoundExpr, level: int = 0) -> List[BVar]:
    """All BVars at the given correlation level."""
    return [
        node
        for node in walk(expr)
        if isinstance(node, BVar) and node.level == level
    ]


def rels_of(expr: BoundExpr) -> set:
    """Relation indexes referenced at level 0."""
    return {v.rel for v in vars_of(expr, 0)}


def has_aggregate(expr: BoundExpr) -> bool:
    return any(isinstance(node, BAgg) for node in walk(expr))


def has_subplan(expr: BoundExpr) -> bool:
    return any(isinstance(node, BSubPlan) for node in walk(expr))


#: Operators that give NULL when either operand is NULL.
_NULL_IN_NULL_OUT = frozenset(("=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"))


def is_strict(expr: BoundExpr, rels: Set[int], null: bool = False) -> bool:
    """True if ``expr`` cannot be TRUE while every column of ``rels`` is
    NULL (with ``null``: if it is NULL then), so a WHERE qual rejects the
    rows a left join pads with NULLs (PostgreSQL's
    ``reduce_outer_joins``). Comparisons, LIKE, IN lists and arithmetic
    over such a column are NULL; an AND is strict if one arm is, an OR
    only if both are. ``IS NULL``, ``COALESCE``, ``CASE`` and every
    other function are not."""
    if isinstance(expr, BVar):
        return expr.level == 0 and expr.rel in rels
    if isinstance(expr, (BNot, BLike, BIn)):
        return is_strict(expr.operand, rels, True)
    if not isinstance(expr, BOp):
        return False
    if expr.op == "and" and not null:
        return is_strict(expr.left, rels) or is_strict(expr.right, rels)
    if expr.op in ("and", "or"):
        return is_strict(expr.left, rels, null) and is_strict(expr.right, rels, null)
    return expr.op in _NULL_IN_NULL_OUT and (
        is_strict(expr.left, rels, True) or is_strict(expr.right, rels, True)
    )
