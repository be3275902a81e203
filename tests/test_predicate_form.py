"""The two forms of a compiled batch expression agree with each other
and with the row compiler.

``compile_expr_batch(expr, layout)`` is the *value* form — TRUE / FALSE /
NULL per input row — and ``compile_expr_batch(..., predicate=True)`` the
*predicate* form the filters and join residuals use: the rows at which
the expression is TRUE. The contract, on both vector backends and for
every column representation a scan can hand over:

* ``predicate(cols, n, sel) == true_selection(value(cols, n, sel), n, sel)``
  — the input's row space, the input's order, a plain list of ints;
* both equal the row compiler, row by row;
* the predicate form raises on an input exactly when the row path raises
  on one of its rows: a guard still guards, and an AND's right side that
  may raise is still evaluated where the left side is NULL.
"""

import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar.vector import (
    ConstVector,
    dict_vector,
    float_vector,
    int_vector,
    true_selection,
)
from repro.errors import ExecutorError
from repro.executor.expr import compile_expr, compile_expr_batch
from repro.planner import exprs as ex

#: c0, c1: ints (c1 is what c0 gets divided by); c2: floats; c3: strings;
#: c4: one value repeated.
NCOLS = 5
LAYOUT = [("r", 0, c) for c in range(NCOLS)]
INTS = st.integers(-2, 3)
DIVISORS = st.sampled_from([0, 0, 1, -1, 2])
FLOATS = st.sampled_from([-1.5, 0.0, 0.5, 2.0, float("inf")])
STRINGS = st.sampled_from(["", "a", "ab", "abc", "b%", "B", "naïve"])
PATTERNS = st.sampled_from(["a%", "%b", "_b%", "%", "", "na_ve", "%ï%"])
COMPARISONS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _var(col):
    return ex.BVar(0, col)


# ------------------------------------------------------------- expressions
@st.composite
def leaves(draw):
    kind = draw(st.sampled_from([
        "int_const", "const_int", "int_int", "float_const", "str_const",
        "repeated_const", "in", "in_columns", "like", "is_null", "literal",
        "quotient", "quotient", "quotient",
    ]))
    op = draw(COMPARISONS)
    if kind == "int_const":
        return ex.BOp(op, _var(draw(st.integers(0, 1))),
                      ex.BConst(draw(st.one_of(st.none(), INTS))))
    if kind == "const_int":
        return ex.BOp(op, ex.BConst(draw(INTS)), _var(0))
    if kind == "int_int":
        return ex.BOp(op, _var(0), _var(1))
    if kind == "float_const":
        return ex.BOp(op, _var(2), ex.BConst(draw(st.one_of(FLOATS, INTS))))
    if kind == "str_const":
        return ex.BOp(op, _var(3), ex.BConst(draw(STRINGS)))
    if kind == "repeated_const":
        return ex.BOp(op, _var(4), ex.BConst(draw(INTS)))
    if kind == "in":
        col, values = draw(st.sampled_from([(0, INTS), (3, STRINGS), (4, INTS)]))
        items = draw(st.lists(st.one_of(st.none(), values), min_size=1, max_size=4))
        return ex.BIn(_var(col), tuple(map(ex.BConst, items)), draw(st.booleans()))
    if kind == "in_columns":
        return ex.BIn(_var(0), (_var(1), ex.BConst(draw(INTS))), draw(st.booleans()))
    if kind == "like":
        return ex.BLike(_var(3), draw(PATTERNS), draw(st.booleans()))
    if kind == "is_null":
        return ex.BIsNull(_var(draw(st.integers(0, NCOLS - 1))), draw(st.booleans()))
    if kind == "literal":
        return ex.BConst(draw(st.sampled_from([True, False, None])))
    # c0 / c1 raises wherever a row with c1 = 0 reaches it.
    return ex.BOp(op, ex.BOp("/", _var(0), _var(1)), ex.BConst(draw(INTS)))


def _connect(children):
    return st.one_of(
        st.builds(ex.BOp, st.sampled_from(["and", "or"]), children, children),
        st.builds(ex.BNot, children),
        st.builds(
            lambda cond, then, other: ex.BCase(((cond, then),), other),
            children, children, st.one_of(st.none(), children),
        ),
    )


EXPRESSIONS = st.recursive(leaves(), _connect, max_leaves=6)


# ----------------------------------------------------------------- columns
@st.composite
def column_values(draw, values, n):
    """``n`` values: NULL-free, NULL-heavy or all NULL."""
    nulls = draw(st.sampled_from(["none", "some", "heavy", "all"]))
    if nulls == "all":
        return [None] * n
    element = {
        "none": values,
        "some": st.one_of(st.none(), values, values, values),
        "heavy": st.one_of(st.none(), st.none(), values),
    }[nulls]
    return draw(st.lists(element, min_size=n, max_size=n))


def _typed(col, values, empty_mask):
    """The typed vector a CO / Parquet scan would hand over."""
    if col == 4:
        return ConstVector(values[0] if values else None, len(values))
    if col == 3:
        dictionary = sorted({v for v in values if v is not None})
        return dict_vector(
            [-1 if v is None else dictionary.index(v) for v in values], dictionary
        )
    mask = [v is None for v in values]
    if not any(mask) and not empty_mask:
        mask = None
    if col == 2:
        return float_vector([0.0 if v is None else v for v in values], mask)
    return int_vector([0 if v is None else v for v in values], mask)


@st.composite
def inputs(draw):
    """(plain columns, the columns as handed to the kernels, n, sel)."""
    n = draw(st.sampled_from([0, 1, 2, 5, 9, 9, 9]))
    plain = [
        draw(column_values(values, n))
        for values in (INTS, DIVISORS, FLOATS, STRINGS)
    ]
    plain.append([draw(st.one_of(st.none(), INTS))] * n)
    cols = [
        _typed(c, values, draw(st.booleans())) if draw(st.booleans()) else values
        for c, values in enumerate(plain)
    ]
    sel = None
    if draw(st.booleans()):
        sel = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    return plain, cols, n, sel


def _check(expr, plain, cols, n, sel):
    row_fn = compile_expr(expr, LAYOUT)
    value = compile_expr_batch(expr, LAYOUT)
    predicate = compile_expr_batch(expr, LAYOUT, predicate=True)
    rows = list(zip(*plain)) if n else []
    indices = list(range(n)) if sel is None else sel
    try:
        expected = [row_fn(rows[i]) for i in indices]
    except ExecutorError:
        # Some row of the input raises on the row path: so do both forms.
        with pytest.raises(ExecutorError):
            value(cols, n, sel)
        with pytest.raises(ExecutorError):
            predicate(cols, n, sel)
        return
    got = list(value(cols, n, sel))
    assert got == expected
    assert all(v is None or type(v) is bool for v in got)
    live = predicate(cols, n, sel)
    assert type(live) is list and all(type(i) is int for i in live)
    assert live == true_selection(value(cols, n, sel), n, sel)
    assert live == [i for i, v in zip(indices, expected) if v is True]


@settings(
    max_examples=600, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(expr=EXPRESSIONS, table=inputs())
def test_predicate_form_is_the_true_selection_of_the_value_form(backend, expr, table):
    _check(expr, *table)


# ------------------------------------------------------------ error parity
def _positive(col):
    """TRUE / FALSE / NULL for a column value of 1 / -1 / NULL."""
    return ex.BOp(">", _var(col), ex.BConst(0))


#: ``1 / 0 > 1``: raises for every row that reaches it (the literal
#: subtree is not folded, because folding it raises).
BOOM = ex.BOp(">", ex.BOp("/", ex.BConst(1), ex.BConst(0)), ex.BConst(1))


def _both_forms(expr, c0, c1, typed):
    n = len(c0)
    plain = [c0, c1, [0.0] * n, ["a"] * n, [None] * n]
    cols = list(plain)
    if typed:
        cols[0], cols[1] = _typed(0, c0, False), _typed(1, c1, True)
    rows = list(zip(*plain))
    row_fn = compile_expr(expr, LAYOUT)
    predicate = compile_expr_batch(expr, LAYOUT, predicate=True)
    return (
        lambda: [i for i in range(n) if row_fn(rows[i]) is True],
        lambda: predicate(cols, n, None),
    )


@pytest.mark.parametrize("typed", [False, True], ids=["lists", "vectors"])
class TestErrorParity:
    def test_a_guard_still_guards(self, backend, typed):
        """``x <> 0 AND y / x > 1`` never divides by a guarded zero."""
        guarded = ex.BOp(
            "and",
            ex.BOp("<>", _var(1), ex.BConst(0)),
            ex.BOp(">", ex.BOp("/", _var(0), _var(1)), ex.BConst(1)),
        )
        row, batch = _both_forms(
            guarded, [5, 5, None, 7, 1, 9], [0, 2, 1, 0, 3, None], typed
        )
        assert batch() == row() == [1]

    def test_a_right_side_that_raises_is_not_narrowed_away(self, backend, typed):
        """The row path evaluates ``b`` of ``a AND b`` where ``a`` is
        NULL; a predicate that looked at ``a``'s TRUE rows only would
        swallow the error."""
        conjunction = ex.BOp("and", _positive(0), BOOM)
        row, batch = _both_forms(conjunction, [-1, -1], [1, 1], typed)
        assert batch() == row() == []  # a is FALSE everywhere: b never runs
        for reaching in ([-1, None], [None], [-1, 1]):
            row, batch = _both_forms(conjunction, reaching, [1] * len(reaching), typed)
            with pytest.raises(ExecutorError, match="division by zero"):
                row()
            with pytest.raises(ExecutorError, match="division by zero"):
                batch()

    def test_or_evaluates_its_right_side_where_the_left_is_not_true(self, backend, typed):
        disjunction = ex.BOp("or", _positive(0), BOOM)
        row, batch = _both_forms(disjunction, [1, 1, 1], [1, 1, 1], typed)
        assert batch() == row() == [0, 1, 2]
        for reaching in ([1, -1], [None], [1, None, 1]):
            row, batch = _both_forms(disjunction, reaching, [1] * len(reaching), typed)
            with pytest.raises(ExecutorError, match="division by zero"):
                row()
            with pytest.raises(ExecutorError, match="division by zero"):
                batch()

    def test_a_conjunct_left_of_a_raising_one_still_narrows(self, backend, typed):
        """``(a AND boom) AND c``: the inner AND keeps the value form,
        the outer one narrows ``c`` to its survivors."""
        nested = ex.BOp("and", ex.BOp("and", _positive(0), BOOM), _positive(1))
        row, batch = _both_forms(nested, [-1, -1, -1], [1, None, -1], typed)
        assert batch() == row() == []
        row, batch = _both_forms(nested, [-1, None], [1, 1], typed)
        with pytest.raises(ExecutorError, match="division by zero"):
            row()
        with pytest.raises(ExecutorError, match="division by zero"):
            batch()


def test_an_unknown_node_is_refused_by_every_compiler(backend):
    """A node type no compiler knows raises at compile time, the same
    error from the row compiler and from both batch forms."""

    class BUnknown(ex.BoundExpr):
        pass

    expr = ex.BOp("and", _positive(0), BUnknown())
    for compile_it in (
        lambda: compile_expr(expr, LAYOUT),
        lambda: compile_expr_batch(expr, LAYOUT),
        lambda: compile_expr_batch(expr, LAYOUT, predicate=True),
    ):
        with pytest.raises(ExecutorError, match="cannot compile BUnknown"):
            compile_it()


def test_typed_sides_stay_typed_until_the_outermost_and(backend):
    """Which path an AND takes is read off the operands it is handed:
    typed comparisons combine in one Kleene pass (NumPy), plain lists
    narrow — and the answer is the same list of ints either way."""
    expr = ex.BOp(
        "and",
        ex.BOp("and", ex.BOp(">", _var(0), ex.BConst(0)),
               ex.BOp("<", _var(2), ex.BConst(1.0))),
        ex.BOp("or", ex.BLike(_var(3), "a%"), ex.BIsNull(_var(1))),
    )
    plain = [
        [1, 2, None, 0, 3, 1],
        [None, 1, 1, None, None, 2],
        [0.5, 2.0, 0.0, 0.5, None, -1.5],
        ["ab", "b", "a", "abc", "a", None],
        [None] * 6,
    ]
    predicate = compile_expr_batch(expr, LAYOUT, predicate=True)
    typed = [_typed(c, values, c == 1) for c, values in enumerate(plain)]
    assert predicate(plain, 6, None) == predicate(typed, 6, None) == [0]
    assert predicate(plain, 6, [5, 0, 3]) == predicate(typed, 6, [5, 0, 3]) == [0]
    mixed = [plain[0], typed[1], typed[2], plain[3], typed[4]]
    assert predicate(mixed, 6, None) == [0]


# ------------------------------------------------- column = constant, lists
NAN = float("nan")

#: (plain-list column, constant): NULLs, repeats, no match, ``TRUE = 1``,
#: ``1.0 = 1``, and NaN — a constant that is not equal to itself, and a
#: column holding that very object, which ``list.index``'s identity test
#: would match.
EQUALS_CASES = [
    ([3, None, 3, 1, None, 3], 3),
    ([None, None, None], 1),
    ([4, 5, 6], 7),
    ([], 1),
    ([True, 1, 1.0, 2, False], 1),
    ([True, 1, 0, False, None], True),
    ([1.0, 1, 2.0, None], 1),
    ([1, 2, 1.0], 1.0),
    (["a", "b", "a", None, ""], "a"),
    (["a", "b"], ""),
    ([NAN, 1.0, NAN, None], NAN),
    ([1.0, 2.0], NAN),
]


def _generic_equals(values, b, indices):
    """The per-row comprehension the kernel replaces."""
    return [i for i, a in zip(indices, values) if a is not None and a == b]


@pytest.mark.parametrize("values, b", EQUALS_CASES, ids=lambda v: repr(v)[:20])
class TestEqualsConstantOverAList:
    def test_the_kernel_is_the_comprehension(self, values, b):
        from repro.executor.expr import _true_rows

        n = len(values)
        for rows in (range(n), list(range(n))[::-1], [i * 3 + 1 for i in range(n)]):
            got = _true_rows(operator.eq, rows, values, ConstVector(b, n))
            assert got == _generic_equals(values, b, rows)
            assert all(type(i) is int for i in got)

    def test_through_a_selection_vector(self, backend, values, b):
        """``column = constant`` compiled in predicate form, over a plain
        list, with and without a selection: the row compiler's rows."""
        n = len(values)
        plain = [list(values)] + [[None] * n] * (NCOLS - 1)
        expr = ex.BOp("=", _var(0), ex.BConst(b))
        predicate = compile_expr_batch(expr, LAYOUT, predicate=True)
        row_fn = compile_expr(expr, LAYOUT)
        rows = list(zip(*plain))
        for sel in (None, list(range(n))[::2], list(range(n))[::-1]):
            indices = range(n) if sel is None else sel
            expected = [i for i in indices if row_fn(rows[i]) is True]
            assert predicate(plain, n, sel) == expected
            assert expected == _generic_equals([values[i] for i in indices], b, indices)
