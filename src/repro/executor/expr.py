"""Expression compilation and SQL value semantics.

Bound expressions are compiled into Python closures evaluated per row.
SQL three-valued logic is honoured: comparisons with NULL yield NULL,
AND/OR follow Kleene semantics, and predicates keep a row only when they
evaluate to exactly TRUE.
"""

from __future__ import annotations

import calendar
import datetime
import operator
import re
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.schema import DataType
from repro.columnar import (
    BoolVector,
    ConstVector,
    DictVector,
    Vector,
    numpy_module,
    take,
)
from repro.columnar import kernels as vk
from repro.errors import CatalogError, ExecutorError
from repro.planner import exprs as ex
from repro.planner.physical import ColumnId

RowFn = Callable[[tuple], object]

#: Batch evaluator: ``fn(cols, n, sel)`` over column vectors (see
#: :func:`compile_expr_batch`). Results duck-type as sequences of
#: Python values: plain lists, typed :mod:`repro.columnar` vectors, or
#: :class:`~repro.columnar.ConstVector`.
BatchFn = Callable[[Sequence[list], int, Optional[List[int]]], object]

_LIKE_CACHE: Dict[str, "re.Pattern"] = {}


def _like_pattern(pattern: str) -> "re.Pattern":
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        compiled = re.compile(f"^{regex}$", re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


def like_match(value: Optional[str], pattern: str) -> Optional[bool]:
    """SQL LIKE; ``%`` and ``_`` wildcards, anchored both ends."""
    if value is None:
        return None
    return _like_pattern(pattern).match(value) is not None


def add_interval(
    value: datetime.date, quantity: float, unit: str, sign: int = 1
) -> datetime.date:
    """date +/- INTERVAL, with end-of-month clamping like PostgreSQL."""
    amount = int(quantity) * sign
    if unit == "day":
        return value + datetime.timedelta(days=amount)
    months = amount if unit == "month" else amount * 12
    total = value.year * 12 + (value.month - 1) + months
    year, month = divmod(total, 12)
    month += 1
    day = min(value.day, calendar.monthrange(year, month)[1])
    return datetime.date(year, month, day)


def sql_compare(op: str, left: object, right: object) -> Optional[bool]:
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutorError(f"unknown comparison {op!r}")  # pragma: no cover


def sql_arith(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    if isinstance(right, _Interval):
        if op == "+":
            return add_interval(left, right.quantity, right.unit, 1)
        if op == "-":
            return add_interval(left, right.quantity, right.unit, -1)
        raise ExecutorError(f"cannot {op!r} an interval")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutorError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return left / right  # SQL numeric division, not floor
        return left / right
    if op == "%":
        return left % right
    if op == "||":
        return str(left) + str(right)
    raise ExecutorError(f"unknown operator {op!r}")  # pragma: no cover


class _Interval:
    """Runtime interval value (only ever combined with dates)."""

    __slots__ = ("quantity", "unit")

    def __init__(self, quantity: float, unit: str):
        self.quantity = quantity
        self.unit = unit


#: Exact sizes for exact types (bool keys before it would match int;
#: ``type()`` dispatch keeps bool/int distinct, unlike ``isinstance``).
_FIXED_VALUE_BYTES = {
    type(None): 1,
    bool: 1,
    int: 8,
    float: 8,
    datetime.date: 4,
    datetime.datetime: 4,
}


def _generic_value_bytes(value: object) -> int:
    """The original isinstance chain, kept for subclasses and types
    outside the dispatch table — byte-identical to the historical sizes."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (str, bytes)):
        return 4 + len(value)
    if isinstance(value, datetime.date):
        return 4
    if isinstance(value, tuple):
        return estimate_row_bytes(value)
    return 8


def estimate_row_bytes(row: Sequence[object]) -> int:
    """Approximate on-the-wire size of a tuple (for the cost model)."""
    total = 4
    for value in row:
        size = _FIXED_VALUE_BYTES.get(type(value))
        if size is not None:
            total += size
        elif type(value) is str or type(value) is bytes:
            total += 4 + len(value)
        elif type(value) is tuple:
            total += estimate_row_bytes(value)
        else:
            total += _generic_value_bytes(value)
    return total


class RowSizer:
    """:func:`estimate_row_bytes` with the fixed portion memoized per row
    type-signature.

    Motion and spill paths size every tuple they move; a stream has only
    a handful of type signatures (NULLs flip one entry), so memoizing the
    fixed byte total per signature collapses the per-value dispatch to
    one dict hit plus the variable-length (str/bytes/tuple) terms. Byte
    counts are exactly those of :func:`estimate_row_bytes` — the cost
    model's figures must not move.
    """

    __slots__ = ("_plans",)

    #: Sentinel plan: a type outside the table appeared; size per-row.
    _FALLBACK = (None, ())

    def __init__(self) -> None:
        self._plans: Dict[tuple, Tuple[Optional[int], tuple]] = {}

    def __call__(self, row: Sequence[object]) -> int:
        key = tuple(map(type, row))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._compile(key)
            self._plans[key] = plan
        fixed, var_positions = plan
        if fixed is None:
            return estimate_row_bytes(row)
        total = fixed
        for position in var_positions:
            value = row[position]
            if type(value) is tuple:
                total += self(value)
            else:
                total += len(value)
        return total

    def _compile(self, key: tuple) -> Tuple[Optional[int], tuple]:
        fixed = 4
        variable = []
        for i, t in enumerate(key):
            size = _FIXED_VALUE_BYTES.get(t)
            if size is not None:
                fixed += size
            elif t is str or t is bytes:
                fixed += 4
                variable.append(i)
            elif t is tuple:
                variable.append(i)
            else:
                return self._FALLBACK
        return fixed, tuple(variable)


def column_bytes(col) -> int:
    """Bytes one column contributes to its rows' :class:`RowSizer` sizes
    (the per-row header of 4 is the caller's): exactly
    ``sum(RowSizer()((v,)) - 4 for v in col)``, computed per column
    representation instead of per value."""
    n = len(col)
    if isinstance(col, ConstVector):
        return n * (estimate_row_bytes((col.value,)) - 4)
    if isinstance(col, DictVector):
        # Per-entry sizes, with the NULL size last so code -1 finds it.
        sizes = [4 + len(s) for s in col.dictionary] + [1]
        np = numpy_module()
        if np is not None and col.is_numpy():
            return int(np.asarray(sizes, dtype=np.int64)[col.data].sum())
        return sum(map(sizes.__getitem__, col.data))
    if isinstance(col, BoolVector):
        return n  # TRUE, FALSE and NULL are all one byte
    if isinstance(col, Vector):  # int64 / float64: 8, NULL: 1
        mask = col.mask
        if mask is None:
            return 8 * n
        np = numpy_module()
        nulls = int(np.count_nonzero(mask)) if np is not None else sum(mask)
        return 8 * n - 7 * nulls
    kinds = dict.fromkeys(map(type, col))
    if len(kinds) == 1:  # no NULLs, one type: no need to count
        kinds = {next(iter(kinds)): n}
    elif kinds:
        kinds = Counter(map(type, col))
    total = 0
    for kind, count in kinds.items():
        size = _FIXED_VALUE_BYTES.get(kind)
        if size is not None:
            total += size * count
        elif kind is str or kind is bytes:
            total += 4 * count + (
                sum(map(len, col)) if count == n
                else sum(len(v) for v in col if type(v) is kind)
            )
        elif issubclass(kind, (str, bytes, tuple)):
            total += sum(
                estimate_row_bytes((v,)) - 4 for v in col if type(v) is kind
            )
        else:
            # Not variable-length: the size depends on the type alone.
            sample = col[0] if count == n else next(
                v for v in col if type(v) is kind
            )
            total += count * _generic_value_bytes(sample)
    return total


#: Expression leaves whose value is not known until a row (or an
#: InitPlan result) is — a subtree holding none of them is literal-only.
_NON_LITERAL = (ex.BVar, ex.BParam, ex.BGroupRef, ex.BAggRef, ex.BTargetRef,
                ex.BAgg, ex.BSubPlan)


#: What evaluating an expression over literals can raise: division by
#: zero, a cast that does not parse, date arithmetic out of range, an
#: operator applied to the wrong types.
_EVALUATION_ERRORS = (ExecutorError, CatalogError, ArithmeticError, TypeError,
                      ValueError, AttributeError, LookupError)


def fold_constants(expr: ex.BoundExpr) -> ex.BoundExpr:
    """Replace literal-only subexpressions by their value, once.

    TPC-H's ``date '1994-01-01' + interval '1' year`` is otherwise
    re-evaluated for every row. A subtree whose evaluation raises
    (``1 / 0``, a bad cast) is left alone, so the error still surfaces
    only if — and when — a row actually reaches it."""

    def fold(node: ex.BoundExpr) -> Optional[ex.BoundExpr]:
        if isinstance(node, (ex.BConst, ex.BInterval) + _NON_LITERAL):
            return None
        below = ex.walk(node)
        next(below)
        # Bottom-up: a foldable child is already a BConst, so anything
        # else below means some part must wait for run time.
        if not all(isinstance(d, (ex.BConst, ex.BInterval)) for d in below):
            return None
        try:
            return ex.BConst(_compile_row(node, (), None)(()))
        except _EVALUATION_ERRORS:
            return None

    return ex.transform(expr, fold)


def compile_expr(
    expr: ex.BoundExpr,
    layout: Sequence[ColumnId],
    params: Optional[Sequence[object]] = None,
) -> RowFn:
    """Compile a bound expression against an input layout.

    ``layout`` lists the column identities of the input tuples;
    ``params`` holds InitPlan results for :class:`~repro.planner.exprs.BParam`.
    """
    return _compile_row(fold_constants(expr), layout, params)


def _compile_row(
    expr: ex.BoundExpr,
    layout: Sequence[ColumnId],
    params: Optional[Sequence[object]],
) -> RowFn:
    index_of = {cid: i for i, cid in enumerate(layout)}
    params = list(params or [])

    def compile_node(node: ex.BoundExpr) -> RowFn:
        if isinstance(node, ex.BConst):
            value = node.value
            return lambda row: value
        if isinstance(node, ex.BInterval):
            interval = _Interval(node.quantity, node.unit)
            return lambda row: interval
        if isinstance(node, ex.BVar):
            if node.level != 0:
                raise ExecutorError(
                    "correlated variable survived planning (unsupported query shape)"
                )
            key = ("r", node.rel, node.col)
            position = index_of.get(key)
            if position is None:
                raise ExecutorError(f"column {key} not in layout {layout}")
            return lambda row, p=position: row[p]
        if isinstance(node, ex.BGroupRef):
            position = index_of.get(("g", node.index))
            if position is None:
                raise ExecutorError(f"group ref {node.index} not in layout")
            return lambda row, p=position: row[p]
        if isinstance(node, ex.BAggRef):
            position = index_of.get(("a", node.index))
            if position is None:
                raise ExecutorError(f"agg ref {node.index} not in layout")
            return lambda row, p=position: row[p]
        if isinstance(node, ex.BTargetRef):
            position = index_of.get(("t", node.index))
            if position is None:
                raise ExecutorError(f"target ref {node.index} not in layout")
            return lambda row, p=position: row[p]
        if isinstance(node, ex.BParam):
            if node.index >= len(params):
                raise ExecutorError(f"missing InitPlan param {node.index}")
            value = params[node.index]
            return lambda row: value
        if isinstance(node, ex.BOp):
            left = compile_node(node.left)
            right = compile_node(node.right)
            op = node.op
            if op == "and":
                def f_and(row):
                    a = left(row)
                    if a is False:
                        return False
                    b = right(row)
                    if b is False:
                        return False
                    if a is None or b is None:
                        return None
                    return True
                return f_and
            if op == "or":
                def f_or(row):
                    a = left(row)
                    if a is True:
                        return True
                    b = right(row)
                    if b is True:
                        return True
                    if a is None or b is None:
                        return None
                    return False
                return f_or
            if op in ("=", "<>", "<", "<=", ">", ">="):
                return lambda row: sql_compare(op, left(row), right(row))
            return lambda row: sql_arith(op, left(row), right(row))
        if isinstance(node, ex.BNot):
            operand = compile_node(node.operand)
            def f_not(row):
                value = operand(row)
                return None if value is None else not value
            return f_not
        if isinstance(node, ex.BCase):
            whens = [(compile_node(c), compile_node(r)) for c, r in node.whens]
            else_fn = (
                compile_node(node.else_result)
                if node.else_result is not None
                else (lambda row: None)
            )
            def f_case(row):
                for cond, result in whens:
                    if cond(row) is True:
                        return result(row)
                return else_fn(row)
            return f_case
        if isinstance(node, ex.BCast):
            operand = compile_node(node.operand)
            target = DataType.parse(node.type_name)
            return lambda row: target.coerce(operand(row))
        if isinstance(node, ex.BLike):
            operand = compile_node(node.operand)
            pattern, negated = node.pattern, node.negated
            def f_like(row):
                value = like_match(operand(row), pattern)
                if value is None:
                    return None
                return (not value) if negated else value
            return f_like
        if isinstance(node, ex.BIn):
            operand = compile_node(node.operand)
            items = [compile_node(i) for i in node.items]
            negated = node.negated
            def f_in(row):
                value = operand(row)
                if value is None:
                    return None
                found = any(item(row) == value for item in items)
                return (not found) if negated else found
            return f_in
        if isinstance(node, ex.BIsNull):
            operand = compile_node(node.operand)
            negated = node.negated
            def f_isnull(row):
                is_null = operand(row) is None
                return (not is_null) if negated else is_null
            return f_isnull
        if isinstance(node, ex.BExtract):
            operand = compile_node(node.operand)
            part = node.part
            def f_extract(row):
                value = operand(row)
                if value is None:
                    return None
                return getattr(value, part)
            return f_extract
        if isinstance(node, ex.BFunc):
            return compile_function(node)
        if isinstance(node, ex.BAgg):
            raise ExecutorError(
                "raw aggregate reached expression compilation (planner bug)"
            )
        if isinstance(node, ex.BSubPlan):
            raise ExecutorError(
                "subplan survived decorrelation (unsupported query shape)"
            )
        raise ExecutorError(f"cannot compile {type(node).__name__}")

    def compile_function(node: ex.BFunc) -> RowFn:
        args = [compile_node(a) for a in node.args]
        name = node.name
        if name == "substring":
            def f_substring(row):
                value = args[0](row)
                if value is None:
                    return None
                start = int(args[1](row)) - 1
                if len(args) > 2:
                    length = int(args[2](row))
                    return value[start : start + length]
                return value[start:]
            return f_substring
        if name == "upper":
            return lambda row: None if (v := args[0](row)) is None else v.upper()
        if name == "lower":
            return lambda row: None if (v := args[0](row)) is None else v.lower()
        if name == "length":
            return lambda row: None if (v := args[0](row)) is None else len(v)
        if name == "abs":
            return lambda row: None if (v := args[0](row)) is None else abs(v)
        if name == "round":
            def f_round(row):
                value = args[0](row)
                if value is None:
                    return None
                digits = int(args[1](row)) if len(args) > 1 else 0
                return round(value, digits)
            return f_round
        if name == "coalesce":
            def f_coalesce(row):
                for arg in args:
                    value = arg(row)
                    if value is not None:
                        return value
                return None
            return f_coalesce
        if name == "nullif":
            def f_nullif(row):
                a, b = args[0](row), args[1](row)
                return None if a == b else a
            return f_nullif
        raise ExecutorError(f"unknown function {name!r}")

    return compile_node(expr)


_CMP_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_PURE_OPS = frozenset({"=", "<>", "<", "<=", ">", ">=", "and", "or",
                       "+", "-", "*"})
_PURE_FUNCS = frozenset({"upper", "lower", "length", "abs", "coalesce",
                         "nullif"})


def _is_pure(node: ex.BoundExpr) -> bool:
    """May this expression be evaluated eagerly on extra rows?

    "Pure" means evaluation cannot raise on rows the row path would have
    skipped via AND/OR short-circuiting, so the batch path may evaluate
    it over the whole selection and apply the Kleene truth table
    afterwards — which gives exactly the short-circuit result. Division
    (by zero), ``%``, casts (parse errors), substring/round (``int()``
    of NULL arguments) and date±interval (calendar overflow) can raise,
    so they are excluded; comparisons, numeric ``+``/``-``/``*``, logic,
    LIKE/IN/IS NULL/CASE and total functions cannot.
    """
    if isinstance(node, (ex.BConst, ex.BParam, ex.BGroupRef, ex.BAggRef,
                         ex.BTargetRef)):
        return True
    if isinstance(node, ex.BVar):
        return node.level == 0
    if isinstance(node, ex.BOp):
        return (
            node.op in _PURE_OPS
            and _is_pure(node.left)
            and _is_pure(node.right)
        )
    if isinstance(node, (ex.BNot, ex.BIsNull, ex.BLike)):
        return _is_pure(node.operand)
    if isinstance(node, ex.BIn):
        return _is_pure(node.operand) and all(_is_pure(i) for i in node.items)
    if isinstance(node, ex.BCase):
        return all(
            _is_pure(c) and _is_pure(r) for c, r in node.whens
        ) and (node.else_result is None or _is_pure(node.else_result))
    if isinstance(node, ex.BFunc):
        return node.name in _PURE_FUNCS and all(_is_pure(a) for a in node.args)
    return False  # BInterval, BCast, BSubPlan, BAgg, anything unknown


def _null_propagating(fn, l, r) -> list:
    """``fn(a, b)`` per row, NULL where either side is — the generic
    (plain-list) kernel of comparisons and arithmetic. A constant side
    is hoisted out of the loop: ``column <op> literal`` is the common
    shape, and it needs neither a zip nor a per-row test of the literal."""
    if isinstance(r, ConstVector):
        b = r.value
        if b is None:
            return [None] * len(l)
        return [None if a is None else fn(a, b) for a in l]
    if isinstance(l, ConstVector):
        a = l.value
        if a is None:
            return [None] * len(r)
        return [None if b is None else fn(a, b) for b in r]
    return [None if a is None or b is None else fn(a, b) for a, b in zip(l, r)]


def column_ref_key(node: ex.BoundExpr) -> Optional[tuple]:
    """The layout ColumnId of a bare column reference, else None."""
    if isinstance(node, ex.BVar) and node.level == 0:
        return ("r", node.rel, node.col)
    if isinstance(node, ex.BGroupRef):
        return ("g", node.index)
    if isinstance(node, ex.BAggRef):
        return ("a", node.index)
    if isinstance(node, ex.BTargetRef):
        return ("t", node.index)
    return None


def column_ref_position(
    node: ex.BoundExpr, layout: Sequence[ColumnId]
) -> Optional[int]:
    """Layout position of a bare column reference, else None.

    Drives the fused-projection fast path: a projection made purely of
    references permutes batch columns without evaluating any kernel."""
    key = column_ref_key(node)
    if key is None:
        return None
    for i, cid in enumerate(layout):
        if cid == key:
            return i
    return None


def compile_expr_batch(
    expr: ex.BoundExpr,
    layout: Sequence[ColumnId],
    params: Optional[Sequence[object]] = None,
) -> BatchFn:
    """Compile a bound expression into a batch (vectorized) evaluator.

    The returned function has signature ``fn(cols, n, sel=None)``:
    ``cols`` are the input's column vectors in ``layout`` order and ``n``
    the batch row count. With ``sel=None`` it returns one value per row;
    with a selection vector (list of row indices) it returns one value
    per selected row, in ``sel`` order. Results must be treated as
    read-only — a bare column reference returns the input vector itself.

    Selection vectors keep AND/OR/CASE/COALESCE/IN lazily evaluated with
    exactly the row path's short-circuit structure, so guarded
    expressions (``x <> 0 AND y / x > 1``) never raise on rows the guard
    excludes, and semantics (including which rows can raise) match
    :func:`compile_expr` on every input.
    """
    expr = fold_constants(expr)
    index_of = {cid: i for i, cid in enumerate(layout)}
    params = list(params or [])

    def constant(value) -> BatchFn:
        def f_const(cols, n, sel):
            return ConstVector(value, n if sel is None else len(sel))
        return f_const

    def column(position: int) -> BatchFn:
        def f_col(cols, n, sel):
            col = cols[position]
            return col if sel is None else take(col, sel)
        return f_col

    def row_fallback(node: ex.BoundExpr) -> BatchFn:
        """Bridge rare node types through the row compiler."""
        row_fn = compile_expr(node, layout, params)
        def f_fallback(cols, n, sel):
            indices = range(n) if sel is None else sel
            return [row_fn(tuple(col[i] for col in cols)) for i in indices]
        return f_fallback

    def compile_node(node: ex.BoundExpr) -> BatchFn:
        if isinstance(node, ex.BConst):
            return constant(node.value)
        if isinstance(node, ex.BInterval):
            return constant(_Interval(node.quantity, node.unit))
        if isinstance(node, ex.BVar):
            if node.level != 0:
                raise ExecutorError(
                    "correlated variable survived planning (unsupported query shape)"
                )
            key = ("r", node.rel, node.col)
            position = index_of.get(key)
            if position is None:
                raise ExecutorError(f"column {key} not in layout {layout}")
            return column(position)
        if isinstance(node, ex.BGroupRef):
            position = index_of.get(("g", node.index))
            if position is None:
                raise ExecutorError(f"group ref {node.index} not in layout")
            return column(position)
        if isinstance(node, ex.BAggRef):
            position = index_of.get(("a", node.index))
            if position is None:
                raise ExecutorError(f"agg ref {node.index} not in layout")
            return column(position)
        if isinstance(node, ex.BTargetRef):
            position = index_of.get(("t", node.index))
            if position is None:
                raise ExecutorError(f"target ref {node.index} not in layout")
            return column(position)
        if isinstance(node, ex.BParam):
            if node.index >= len(params):
                raise ExecutorError(f"missing InitPlan param {node.index}")
            return constant(params[node.index])
        if isinstance(node, ex.BOp):
            left = compile_node(node.left)
            right = compile_node(node.right)
            op = node.op
            if op == "and":
                # When the right side provably cannot raise, both sides
                # can be evaluated eagerly over the whole selection and
                # combined with one vectorized Kleene pass — the truth
                # table gives exactly the lazy short-circuit result. The
                # eager route is only taken when the left side came back
                # as a vector (i.e. the fast kernels are engaged);
                # otherwise the lazy sub-selection path below evaluates
                # the right side only where the left is not False.
                pure_right = _is_pure(node.right)
                def f_and(cols, n, sel):
                    a = left(cols, n, sel)
                    if pure_right and isinstance(a, (Vector, ConstVector)):
                        b = right(cols, n, sel)
                        fast = vk.kleene_and(a, b)
                        if fast is not None:
                            return fast
                        out = []
                        for av, bv in zip(a, b):
                            if av is False or bv is False:
                                out.append(False)
                            elif av is None or bv is None:
                                out.append(None)
                            else:
                                out.append(True)
                        return out
                    indices = range(n) if sel is None else sel
                    sub = [i for i, av in zip(indices, a) if av is not False]
                    if not sub:
                        return a
                    b = right(cols, n, sub)
                    out = list(a)
                    bi = 0
                    for j, av in enumerate(out):
                        if av is not False:
                            bv = b[bi]
                            bi += 1
                            if bv is False:
                                out[j] = False
                            elif av is None or bv is None:
                                out[j] = None
                            else:
                                out[j] = True
                    return out
                return f_and
            if op == "or":
                pure_right = _is_pure(node.right)
                def f_or(cols, n, sel):
                    a = left(cols, n, sel)
                    if pure_right and isinstance(a, (Vector, ConstVector)):
                        b = right(cols, n, sel)
                        fast = vk.kleene_or(a, b)
                        if fast is not None:
                            return fast
                        out = []
                        for av, bv in zip(a, b):
                            if av is True or bv is True:
                                out.append(True)
                            elif av is None or bv is None:
                                out.append(None)
                            else:
                                out.append(False)
                        return out
                    indices = range(n) if sel is None else sel
                    sub = [i for i, av in zip(indices, a) if av is not True]
                    if not sub:
                        return a
                    b = right(cols, n, sub)
                    out = list(a)
                    bi = 0
                    for j, av in enumerate(out):
                        if av is not True:
                            bv = b[bi]
                            bi += 1
                            if bv is True:
                                out[j] = True
                            elif av is None or bv is None:
                                out[j] = None
                            else:
                                out[j] = False
                    return out
                return f_or
            if op in _CMP_OPS:
                py_op = _CMP_OPS[op]
                def f_cmp(cols, n, sel):
                    l = left(cols, n, sel)
                    r = right(cols, n, sel)
                    fast = vk.cmp_fast(py_op, l, r)
                    if fast is not None:
                        return fast
                    return _null_propagating(py_op, l, r)
                return f_cmp
            if op in ("+", "-", "*"):
                # Fast elementwise path; the per-value _Interval check
                # keeps date arithmetic identical to sql_arith.
                py_op = {"+": operator.add, "-": operator.sub,
                         "*": operator.mul}[op]
                def f_arith(cols, n, sel):
                    l = left(cols, n, sel)
                    r = right(cols, n, sel)
                    fast = vk.arith_fast(op, l, r)
                    if fast is not None:
                        return fast
                    if isinstance(r, ConstVector) and type(r.value) is not _Interval:
                        return _null_propagating(py_op, l, r)
                    return [
                        None if a is None or b is None
                        else (
                            py_op(a, b)
                            if type(b) is not _Interval
                            else sql_arith(op, a, b)
                        )
                        for a, b in zip(l, r)
                    ]
                return f_arith
            def f_arith_slow(cols, n, sel):
                l = left(cols, n, sel)
                r = right(cols, n, sel)
                if op == "%":
                    # int64 %% nonzero-int-constant is total and exact.
                    fast = vk.arith_fast(op, l, r)
                    if fast is not None:
                        return fast
                return [sql_arith(op, a, b) for a, b in zip(l, r)]
            return f_arith_slow
        if isinstance(node, ex.BNot):
            operand = compile_node(node.operand)
            def f_not(cols, n, sel):
                vals = operand(cols, n, sel)
                fast = vk.not_fast(vals)
                if fast is not None:
                    return fast
                return [None if v is None else not v for v in vals]
            return f_not
        if isinstance(node, ex.BCase):
            whens = [(compile_node(c), compile_node(r)) for c, r in node.whens]
            else_fn = (
                compile_node(node.else_result)
                if node.else_result is not None
                else None
            )
            def f_case(cols, n, sel):
                rows = list(range(n)) if sel is None else list(sel)
                out = [None] * len(rows)
                positions = list(range(len(rows)))
                for cond, result in whens:
                    if not rows:
                        break
                    cvals = cond(cols, n, rows)
                    hit_pos = [p for p, cv in zip(positions, cvals) if cv is True]
                    if hit_pos:
                        hit_rows = [r for r, cv in zip(rows, cvals) if cv is True]
                        rvals = result(cols, n, hit_rows)
                        for p, v in zip(hit_pos, rvals):
                            out[p] = v
                        positions = [
                            p for p, cv in zip(positions, cvals) if cv is not True
                        ]
                        rows = [r for r, cv in zip(rows, cvals) if cv is not True]
                if rows and else_fn is not None:
                    evals = else_fn(cols, n, rows)
                    for p, v in zip(positions, evals):
                        out[p] = v
                return out
            return f_case
        if isinstance(node, ex.BCast):
            operand = compile_node(node.operand)
            coerce = DataType.parse(node.type_name).coerce
            def f_cast(cols, n, sel):
                return [coerce(v) for v in operand(cols, n, sel)]
            return f_cast
        if isinstance(node, ex.BLike):
            operand = compile_node(node.operand)
            match = _like_pattern(node.pattern).match
            negated = node.negated
            if negated:
                def f_nlike(cols, n, sel):
                    vals = operand(cols, n, sel)
                    fast = vk.like_fast(vals, match, negated)
                    if fast is not None:
                        return fast
                    return [
                        None if v is None else match(v) is None for v in vals
                    ]
                return f_nlike
            def f_like(cols, n, sel):
                vals = operand(cols, n, sel)
                fast = vk.like_fast(vals, match, negated)
                if fast is not None:
                    return fast
                return [
                    None if v is None else match(v) is not None for v in vals
                ]
            return f_like
        if isinstance(node, ex.BIn):
            operand = compile_node(node.operand)
            negated = node.negated
            if all(isinstance(i, ex.BConst) for i in node.items):
                # Tuple membership performs the same ==-scan any() did.
                items = tuple(i.value for i in node.items)
                def f_in_const(cols, n, sel):
                    vals = operand(cols, n, sel)
                    fast = vk.in_const_fast(vals, items, negated)
                    if fast is not None:
                        return fast
                    out = []
                    for v in vals:
                        if v is None:
                            out.append(None)
                        else:
                            found = v in items
                            out.append((not found) if negated else found)
                    return out
                return f_in_const
            item_fns = [compile_node(i) for i in node.items]
            def f_in(cols, n, sel):
                vals = operand(cols, n, sel)
                rows = list(range(n)) if sel is None else list(sel)
                out = [None] * len(rows)
                pending = [
                    (p, r) for p, (r, v) in enumerate(zip(rows, vals))
                    if v is not None
                ]
                for p, _r in pending:
                    out[p] = negated  # "not found" until an item matches
                for item in item_fns:
                    if not pending:
                        break
                    sub_rows = [r for _p, r in pending]
                    ivals = item(cols, n, sub_rows)
                    still = []
                    for (p, r), iv in zip(pending, ivals):
                        if iv == vals[p]:
                            out[p] = not negated
                        else:
                            still.append((p, r))
                    pending = still
                return out
            return f_in
        if isinstance(node, ex.BIsNull):
            operand = compile_node(node.operand)
            negated = node.negated
            if negated:
                def f_notnull(cols, n, sel):
                    vals = operand(cols, n, sel)
                    fast = vk.isnull_fast(vals, negated)
                    if fast is not None:
                        return fast
                    return [v is not None for v in vals]
                return f_notnull
            def f_isnull(cols, n, sel):
                vals = operand(cols, n, sel)
                fast = vk.isnull_fast(vals, negated)
                if fast is not None:
                    return fast
                return [v is None for v in vals]
            return f_isnull
        if isinstance(node, ex.BExtract):
            operand = compile_node(node.operand)
            part = node.part
            def f_extract(cols, n, sel):
                return [
                    None if v is None else getattr(v, part)
                    for v in operand(cols, n, sel)
                ]
            return f_extract
        if isinstance(node, ex.BFunc):
            return compile_function(node)
        if isinstance(node, ex.BAgg):
            raise ExecutorError(
                "raw aggregate reached expression compilation (planner bug)"
            )
        if isinstance(node, ex.BSubPlan):
            raise ExecutorError(
                "subplan survived decorrelation (unsupported query shape)"
            )
        return row_fallback(node)

    def compile_function(node: ex.BFunc) -> BatchFn:
        args = [compile_node(a) for a in node.args]
        name = node.name
        if name == "upper":
            def f_upper(cols, n, sel):
                vals = args[0](cols, n, sel)
                fast = vk.str_map_fast(vals, str.upper)
                if fast is not None:
                    return fast
                return [None if v is None else v.upper() for v in vals]
            return f_upper
        if name == "lower":
            def f_lower(cols, n, sel):
                vals = args[0](cols, n, sel)
                fast = vk.str_map_fast(vals, str.lower)
                if fast is not None:
                    return fast
                return [None if v is None else v.lower() for v in vals]
            return f_lower
        if name == "length":
            def f_length(cols, n, sel):
                return [
                    None if v is None else len(v)
                    for v in args[0](cols, n, sel)
                ]
            return f_length
        if name == "abs":
            def f_abs(cols, n, sel):
                return [
                    None if v is None else abs(v)
                    for v in args[0](cols, n, sel)
                ]
            return f_abs
        if name == "substring":
            def f_substring(cols, n, sel):
                vals = args[0](cols, n, sel)
                starts = args[1](cols, n, sel)
                lengths = args[2](cols, n, sel) if len(args) > 2 else None
                out = []
                for j, v in enumerate(vals):
                    if v is None:
                        out.append(None)
                        continue
                    start = int(starts[j]) - 1
                    if lengths is not None:
                        out.append(v[start : start + int(lengths[j])])
                    else:
                        out.append(v[start:])
                return out
            return f_substring
        if name == "round":
            def f_round(cols, n, sel):
                vals = args[0](cols, n, sel)
                digits = args[1](cols, n, sel) if len(args) > 1 else None
                return [
                    None if v is None
                    else round(v, int(digits[j]) if digits is not None else 0)
                    for j, v in enumerate(vals)
                ]
            return f_round
        if name == "coalesce":
            def f_coalesce(cols, n, sel):
                rows = list(range(n)) if sel is None else list(sel)
                out = [None] * len(rows)
                positions = list(range(len(rows)))
                for arg in args:
                    if not rows:
                        break
                    vals = arg(cols, n, rows)
                    next_pos = []
                    next_rows = []
                    for p, r, v in zip(positions, rows, vals):
                        if v is not None:
                            out[p] = v
                        else:
                            next_pos.append(p)
                            next_rows.append(r)
                    positions, rows = next_pos, next_rows
                return out
            return f_coalesce
        if name == "nullif":
            def f_nullif(cols, n, sel):
                avals = args[0](cols, n, sel)
                bvals = args[1](cols, n, sel)
                return [None if a == b else a for a, b in zip(avals, bvals)]
            return f_nullif
        raise ExecutorError(f"unknown function {name!r}")

    try:
        return compile_node(expr)
    finally:
        # The two compilers call each other through their closure cells —
        # a reference cycle per compiled expression, two or so a
        # statement. No kernel calls them back, so unbind both and let
        # the compiler's closures die with this call.
        compile_node = compile_function = None
