"""Expression compilation and SQL value semantics.

Bound expressions are compiled into Python closures evaluated per row.
SQL three-valued logic is honoured: comparisons with NULL yield NULL,
AND/OR follow Kleene semantics, and predicates keep a row only when they
evaluate to exactly TRUE.
"""

from __future__ import annotations

import calendar
import datetime
import math
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
from repro.columnar.vector import true_selection
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
    """SQL LIKE as a regex anchored at both ends: ``%`` is any run of
    characters, ``_`` any one, and a backslash (PostgreSQL's default
    escape) makes the character after it literal."""
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        chars = iter(pattern)
        for char in chars:
            if char == "\\":
                char = next(chars, None)
                if char is None:
                    raise ExecutorError(
                        "LIKE pattern must not end with escape character"
                    )
                parts.append(re.escape(char))
            elif char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        compiled = re.compile("".join(parts) + r"\Z", re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


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
            # PostgreSQL's rule: integer division truncates toward zero.
            quotient = abs(left) // abs(right)
            return -quotient if (left < 0) != (right < 0) else quotient
        return left / right
    if op == "%":
        # PostgreSQL's rule: the remainder takes the dividend's sign.
        if right == 0:
            raise ExecutorError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            rem = abs(left) % abs(right)
            return -rem if left < 0 else rem
        return math.fmod(left, right)
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
        return int(np.asarray(sizes, dtype=np.int64)[col.data].sum())
    if isinstance(col, BoolVector):
        return n  # TRUE, FALSE and NULL are all one byte
    if isinstance(col, Vector):  # int64 / float64: 8, NULL: 1
        mask = col.mask
        if mask is None:
            return 8 * n
        return 8 * n - 7 * int(numpy_module().count_nonzero(mask))
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


def fixed_width(col) -> Optional[int]:
    """What every value of ``col`` adds to :func:`column_bytes` when they
    all add the same — one fixed-size type throughout, NULLs only if the
    column is nothing else — or None when the column has to be walked.
    Any subset of such a column's rows is ``width × len(rows)`` bytes, so
    one census serves every receiver of a redistribute."""
    if isinstance(col, (Vector, ConstVector)):
        if isinstance(col, (ConstVector, DictVector)) or col.mask is not None:
            return None  # sized without a walk anyway
        return 1 if isinstance(col, BoolVector) else 8
    kinds = dict.fromkeys(map(type, col))
    return _FIXED_VALUE_BYTES.get(next(iter(kinds))) if len(kinds) == 1 else None


#: Expression leaves whose value is not known until a row (or an
#: InitPlan result) is — a subtree holding none of them is literal-only.
_NON_LITERAL = (ex.BVar, ex.BParam, ex.BGroupRef, ex.BAggRef, ex.BTargetRef,
                ex.BAgg, ex.BSubPlan)
#: The nodes ``fold_constants`` never replaces: literals and the above.
_NOT_FOLDED = (ex.BConst, ex.BInterval) + _NON_LITERAL


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
        if isinstance(node, _NOT_FOLDED):
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
            match, negated = _like_pattern(node.pattern).match, node.negated
            def f_like(row):
                value = operand(row)
                if value is None:
                    return None
                return (match(value) is None) if negated else (
                    match(value) is not None
                )
            return f_like
        if isinstance(node, ex.BIn):
            operand = compile_node(node.operand)
            items = [compile_node(i) for i in node.items]
            negated = node.negated
            def f_in(row):
                # Three-valued: no match against a list holding a NULL
                # is NULL, not FALSE.
                value = operand(row)
                if value is None:
                    return None
                answer = negated
                for item in items:
                    candidate = item(row)
                    if candidate is None:
                        answer = None
                    elif candidate == value:
                        return not negated
                return answer
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


def _true_rows(fn, rows, l, r) -> List[int]:
    """The ``rows`` at which :func:`_null_propagating` would say TRUE, in
    one pass and without the three-valued list in between — ``fn`` is a
    comparison, so what is not NULL is a ``bool``."""
    if isinstance(r, ConstVector):
        b = r.value
        if b is None:
            return []
        if fn is operator.eq and type(l) is list and b == b:
            return _equal_rows(rows, l, b)
        return [i for i, a in zip(rows, l) if a is not None and fn(a, b)]
    if isinstance(l, ConstVector):
        a = l.value
        if a is None:
            return []
        return [i for i, b in zip(rows, r) if b is not None and fn(a, b)]
    return [
        i for i, a, b in zip(rows, l, r)
        if a is not None and b is not None and fn(a, b)
    ]


def _equal_rows(rows, values: list, b) -> List[int]:
    """``column = b`` over a plain list, by ``list.index``'s C-level
    scan: it tests ``a is b or a == b``, which is ``a == b`` because
    ``b`` equals itself (the caller checks: a NaN does not), and no
    ``None`` equals a non-NULL ``b``."""
    out = []
    find, append = values.index, out.append
    at = -1
    try:
        while True:
            at = find(b, at + 1)
            append(rows[at])
    except ValueError:
        return out


# The boolean leaves. Each is compiled in one of two forms from the one
# kernel below: the *value* form answers TRUE / FALSE / NULL per input
# row, the *truth* form (``truth=True``, see ``compile_expr_batch``)
# answers with the rows that are TRUE. Typed operands take the same
# ``repro.columnar.kernels`` fast path in both, and its three-valued
# vector is the answer in both.
def _compare_kernel(py_op, left: BatchFn, right: BatchFn, truth: bool) -> BatchFn:
    def f_cmp(cols, n, sel):
        l = left(cols, n, sel)
        r = right(cols, n, sel)
        fast = vk.cmp_fast(py_op, l, r)
        if fast is not None:
            return fast
        if truth:
            return _true_rows(py_op, range(n) if sel is None else sel, l, r)
        return _null_propagating(py_op, l, r)
    return f_cmp


def _like_kernel(operand: BatchFn, match, negated: bool, truth: bool) -> BatchFn:
    def f_like(cols, n, sel):
        vals = operand(cols, n, sel)
        fast = vk.like_fast(vals, match, negated)
        if fast is not None:
            return fast
        if truth:
            rows = zip(range(n) if sel is None else sel, vals)
            if negated:
                return [i for i, v in rows if v is not None and match(v) is None]
            return [i for i, v in rows if v is not None and match(v) is not None]
        if negated:
            return [None if v is None else match(v) is None for v in vals]
        return [None if v is None else match(v) is not None for v in vals]
    return f_like


def _in_kernel(operand: BatchFn, items: tuple, negated: bool, truth: bool) -> BatchFn:
    """``x IN (constants)``: tuple membership performs the same
    ``==``-scan the row path's ``any()`` does."""
    def f_in_const(cols, n, sel):
        vals = operand(cols, n, sel)
        fast = vk.in_const_fast(vals, items, negated)
        if fast is not None:
            return fast
        if truth:
            rows = zip(range(n) if sel is None else sel, vals)
            if negated:
                return [i for i, v in rows if v is not None and v not in items]
            return [i for i, v in rows if v is not None and v in items]
        if negated:
            return [None if v is None else v not in items for v in vals]
        return [None if v is None else v in items for v in vals]
    return f_in_const


def _isnull_kernel(operand: BatchFn, negated: bool, truth: bool) -> BatchFn:
    def f_isnull(cols, n, sel):
        vals = operand(cols, n, sel)
        fast = vk.isnull_fast(vals, negated)
        if fast is not None:
            return fast
        if truth:
            rows = zip(range(n) if sel is None else sel, vals)
            if negated:
                return [i for i, v in rows if v is not None]
            return [i for i, v in rows if v is None]
        if negated:
            return [v is not None for v in vals]
        return [v is None for v in vals]
    return f_isnull


def _live_rows(truth, n: int, sel: Optional[List[int]]) -> List[int]:
    """A truth-form answer as the selection it stands for."""
    return truth if type(truth) is list else true_selection(truth, n, sel)


def _and_kernel(left: BatchFn, right: BatchFn) -> BatchFn:
    """Truth form of ``a AND b`` for a ``b`` that cannot raise (the row
    path evaluates ``b`` where ``a`` is NULL too, so a ``b`` that can
    raise is not narrowed away — see ``compile_truth``)."""
    def t_and(cols, n, sel):
        a = left(cols, n, sel)
        if type(a) is list:
            # Narrowing: b is asked about a's survivors only.
            return _live_rows(right(cols, n, a), n, a) if a else a
        # A typed left side: both sides over the whole selection and one
        # vectorized Kleene pass, which the caller ends in ``nonzero``.
        b = right(cols, n, sel)
        both = None if type(b) is list else vk.kleene_and(a, b)
        if both is not None:
            return both
        keep = set(true_selection(a, n, sel))
        return [i for i in _live_rows(b, n, sel) if i in keep]
    return t_and


def _or_kernel(left: BatchFn, right: BatchFn, pure_right: bool) -> BatchFn:
    """Truth form of ``a OR b``: ``b`` is evaluated on exactly the rows
    where ``a`` is not TRUE — the rows the row path evaluates it on —
    unless the typed Kleene pass applies (as in :func:`_and_kernel`)."""
    def t_or(cols, n, sel):
        rows = range(n) if sel is None else sel
        a = left(cols, n, sel)
        if pure_right and type(a) is not list:
            b = right(cols, n, sel)
            either = None if type(b) is list else vk.kleene_or(a, b)
            if either is not None:
                return either
            a = true_selection(a, n, sel)
            b = _live_rows(b, n, sel)
            true = set(a)
        else:
            a = _live_rows(a, n, sel)
            if len(a) == len(rows):
                return a
            true = set(a)
            rest = [i for i in rows if i not in true]
            b = _live_rows(right(cols, n, rest), n, rest)
        if not a or not b:
            return a or b
        true.update(b)
        return [i for i in rows if i in true]  # input order
    return t_or


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
    predicate: bool = False,
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

    With ``predicate=True`` the function returned is the **predicate
    form** instead: ``fn(cols, n, sel)`` returns the live rows at which
    the expression is TRUE — :func:`~repro.columnar.vector.
    true_selection` of the value form, without the three-valued column
    in between: row indices in the input's row space and order, a plain
    list of Python ints. It raises on a row exactly when the value form
    (and so the row path) does.
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

    def boolean_leaf(node: ex.BoundExpr, truth: bool) -> Optional[BatchFn]:
        """The kernel of a comparison, ``IN (constants)``, LIKE or
        IS [NOT] NULL in the form asked for — both forms of a node type
        are the one kernel — or None for any other node."""
        if isinstance(node, ex.BOp) and node.op in _CMP_OPS:
            return _compare_kernel(
                _CMP_OPS[node.op], compile_node(node.left),
                compile_node(node.right), truth,
            )
        if isinstance(node, ex.BLike):
            return _like_kernel(
                compile_node(node.operand),
                _like_pattern(node.pattern).match, node.negated, truth,
            )
        if isinstance(node, ex.BIn) and all(
            isinstance(i, ex.BConst) and i.value is not None
            for i in node.items
        ):
            return _in_kernel(
                compile_node(node.operand),
                tuple(i.value for i in node.items), node.negated, truth,
            )
        if isinstance(node, ex.BIsNull):
            return _isnull_kernel(compile_node(node.operand), node.negated, truth)
        return None

    def compile_node(node: ex.BoundExpr) -> BatchFn:
        leaf = boolean_leaf(node, False)
        if leaf is not None:
            return leaf
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
                    if isinstance(r, ConstVector):
                        if type(r.value) is not _Interval:
                            return _null_propagating(py_op, l, r)
                    elif (
                        isinstance(l, ConstVector)
                        and type(l.value) is not _Interval
                        # A column of intervals (a CASE yielding them)
                        # needs sql_arith; a typed vector holds none.
                        and (isinstance(r, Vector) or _Interval not in map(type, r))
                    ):
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
        if isinstance(node, ex.BIn):
            operand = compile_node(node.operand)
            negated = node.negated
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
                        if iv is None:
                            out[p] = None  # NULL unless a later item matches
                            still.append((p, r))
                        elif iv == vals[p]:
                            out[p] = not negated
                        else:
                            still.append((p, r))
                    pending = still
                return out
            return f_in
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
        raise ExecutorError(f"cannot compile {type(node).__name__}")

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

    def compile_truth(node: ex.BoundExpr) -> BatchFn:
        """The truth form of a node, for callers that keep only the rows
        where it is TRUE: ``fn(cols, n, sel)`` answers with those rows —
        a plain list of ``sel``'s members (``range(n)``'s when ``sel``
        is None), in ``sel``'s order — or, when the typed kernels
        produced it, with the three-valued vector itself (aligned with
        ``sel``), so that an enclosing AND / OR can still combine typed
        sides eagerly. Which of the two comes back depends on the
        operands' representation alone."""
        leaf = boolean_leaf(node, True)
        if leaf is not None:
            return leaf
        if isinstance(node, ex.BOp):
            # The row path evaluates b where a is NULL as well as where
            # it is TRUE; only a b that cannot raise there may be
            # narrowed to a's TRUE rows.
            if node.op == "and" and _is_pure(node.right):
                return _and_kernel(
                    compile_truth(node.left), compile_truth(node.right)
                )
            if node.op == "or":
                return _or_kernel(
                    compile_truth(node.left), compile_truth(node.right),
                    _is_pure(node.right),
                )
        # Everything else (NOT, CASE, a boolean column, an AND whose
        # right side may raise): the value form, then its TRUE rows.
        value = compile_node(node)
        def f_truth(cols, n, sel):
            vals = value(cols, n, sel)
            if isinstance(vals, (Vector, ConstVector)):
                return vals
            return true_selection(vals, n, sel)
        return f_truth

    try:
        if not predicate:
            return compile_node(expr)
        truth = compile_truth(expr)
        return lambda cols, n, sel: _live_rows(truth(cols, n, sel), n, sel)
    finally:
        # The compilers call each other (and themselves) through their
        # closure cells — a reference cycle per compiled expression, two
        # or so a statement. No kernel calls them back, so unbind them
        # and let the compiler's closures die with this call.
        compile_node = compile_function = compile_truth = boolean_leaf = None
