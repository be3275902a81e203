"""The planner's front half walks each expression tree once.

``exprs.walk`` is one loop over a stack, in the order the recursive walk
it replaced gave: pre-order, children left to right. Column layouts and
``needed_columns`` are built from that order, so it is pinned here for
every kind of bound expression. ``transform`` keeps every node whose
children did not change, and otherwise builds what the copying rewrite
it replaced built. ``decorrelate`` returns at once for a block with no
subplan; a statement with IN, EXISTS or a scalar subquery must still
decorrelate, and the 22 TPC-H plans must not move (their EXPLAIN is
pinned by digest).
"""

import pytest

from repro.bench import contract
from repro.bench.statements import build_session, explain_digests
from repro.planner import exprs as ex
from repro.planner.decorrelate import decorrelate
from repro.planner.logical import DerivedSource, LogicalQuery
from tests.test_analyzer import DictCatalog, analyze, table


def reference_walk(expr):
    """The recursive walk ``exprs.walk`` replaced, kept as its oracle."""
    yield expr
    if isinstance(expr, ex.BOp):
        yield from reference_walk(expr.left)
        yield from reference_walk(expr.right)
    elif isinstance(expr, ex.BNot):
        yield from reference_walk(expr.operand)
    elif isinstance(expr, ex.BFunc):
        for arg in expr.args:
            yield from reference_walk(arg)
    elif isinstance(expr, ex.BAgg) and expr.arg is not None:
        yield from reference_walk(expr.arg)
    elif isinstance(expr, ex.BCase):
        for cond, result in expr.whens:
            yield from reference_walk(cond)
            yield from reference_walk(result)
        if expr.else_result is not None:
            yield from reference_walk(expr.else_result)
    elif isinstance(expr, (ex.BCast, ex.BExtract, ex.BIsNull, ex.BLike)):
        yield from reference_walk(expr.operand)
    elif isinstance(expr, ex.BIn):
        yield from reference_walk(expr.operand)
        for item in expr.items:
            yield from reference_walk(item)
    elif isinstance(expr, ex.BSubPlan):
        if expr.test is not None:
            yield from reference_walk(expr.test)


def v(col):
    """A leaf told apart by its column."""
    return ex.BVar(0, col)


#: kind -> (an expression of that kind, the walk it must give).
CASES = {
    "BConst": (ex.BConst(1), [ex.BConst(1)]),
    "BInterval": (ex.BInterval(3.0, "month"), [ex.BInterval(3.0, "month")]),
    "BVar": (v(0), [v(0)]),
    "BParam": (ex.BParam(0), [ex.BParam(0)]),
    "BAggRef": (ex.BAggRef(1), [ex.BAggRef(1)]),
    "BGroupRef": (ex.BGroupRef(2), [ex.BGroupRef(2)]),
    "BTargetRef": (ex.BTargetRef(3), [ex.BTargetRef(3)]),
    "BOp": (ex.BOp("+", v(1), v(2)), ["self", v(1), v(2)]),
    "BNot": (ex.BNot(v(1)), ["self", v(1)]),
    "BFunc": (ex.BFunc("coalesce", (v(1), v(2), v(3))), ["self", v(1), v(2), v(3)]),
    "BAgg": (ex.BAgg("sum", v(1)), ["self", v(1)]),
    "BCase": (
        ex.BCase(((v(1), v(2)), (v(3), v(4))), v(5)),
        ["self", v(1), v(2), v(3), v(4), v(5)],
    ),
    "BCast": (ex.BCast(v(1), "int"), ["self", v(1)]),
    "BLike": (ex.BLike(v(1), "a%"), ["self", v(1)]),
    "BIn": (ex.BIn(v(1), (v(2), v(3))), ["self", v(1), v(2), v(3)]),
    "BIsNull": (ex.BIsNull(v(1)), ["self", v(1)]),
    "BExtract": (ex.BExtract("year", v(1)), ["self", v(1)]),
    "BSubPlan": (ex.BSubPlan("in", LogicalQuery(), test=v(1)), ["self", v(1)]),
}

#: The optional children, absent.
ABSENT = [
    ex.BAgg("count"),
    ex.BCase(((v(1), v(2)),)),
    ex.BSubPlan("exists", LogicalQuery()),
    ex.BFunc("now"),
]


class TestWalk:
    def test_every_kind_is_pinned(self):
        kinds = {cls.__name__ for cls in ex.BoundExpr.__subclasses__()}
        assert kinds == set(CASES)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_order(self, kind):
        expr, order = CASES[kind]
        expected = [expr if node == "self" else node for node in order]
        assert list(ex.walk(expr)) == expected
        assert list(ex.walk(expr)) == list(reference_walk(expr))

    @pytest.mark.parametrize("expr", ABSENT, ids=lambda e: type(e).__name__)
    def test_an_absent_child_is_not_visited(self, expr):
        assert list(ex.walk(expr)) == list(reference_walk(expr))

    def test_a_tree_of_every_kind(self):
        """Every kind nested in every other: the same nodes, the same
        objects, in the same order as the recursive walk."""
        tree = v(0)
        for kind in sorted(CASES):
            expr, _ = CASES[kind]
            tree = ex.BCase(((v(7), expr),), ex.BFunc("f", (expr, tree)))
            tree = ex.BOp("and", ex.BNot(v(8)), ex.BIn(tree, (expr, v(9))))
        walked = list(ex.walk(tree))
        assert len(walked) > 150
        assert all(a is b for a, b in zip(walked, reference_walk(tree)))
        assert len(walked) == len(list(reference_walk(tree)))

    def test_a_consumer_may_stop_early(self):
        """``has_subplan`` stops at the first subplan: a walk left half
        read must not have gone further than the node it yielded."""
        expr = ex.BOp("and", ex.BSubPlan("exists", LogicalQuery()), v(2))
        walked = ex.walk(expr)
        assert next(walked) is expr
        assert next(walked) is expr.left
        assert ex.has_subplan(expr)
        assert not ex.has_subplan(ex.BOp("and", v(1), v(2)))
        assert list(walked) == [v(2)]


def reference_transform(expr, fn):
    """The rewrite ``exprs.transform`` replaced, which copied every node."""

    def t(node):
        return reference_transform(node, fn)

    if isinstance(expr, ex.BOp):
        rebuilt = ex.BOp(expr.op, t(expr.left), t(expr.right))
    elif isinstance(expr, ex.BNot):
        rebuilt = ex.BNot(t(expr.operand))
    elif isinstance(expr, ex.BFunc):
        rebuilt = ex.BFunc(expr.name, tuple(t(a) for a in expr.args))
    elif isinstance(expr, ex.BAgg):
        arg = t(expr.arg) if expr.arg is not None else None
        rebuilt = ex.BAgg(expr.func, arg, expr.distinct)
    elif isinstance(expr, ex.BCase):
        whens = tuple((t(c), t(r)) for c, r in expr.whens)
        else_result = t(expr.else_result) if expr.else_result is not None else None
        rebuilt = ex.BCase(whens, else_result)
    elif isinstance(expr, ex.BCast):
        rebuilt = ex.BCast(t(expr.operand), expr.type_name)
    elif isinstance(expr, ex.BExtract):
        rebuilt = ex.BExtract(expr.part, t(expr.operand))
    elif isinstance(expr, ex.BIsNull):
        rebuilt = ex.BIsNull(t(expr.operand), expr.negated)
    elif isinstance(expr, ex.BLike):
        rebuilt = ex.BLike(t(expr.operand), expr.pattern, expr.negated)
    elif isinstance(expr, ex.BIn):
        rebuilt = ex.BIn(t(expr.operand), tuple(t(i) for i in expr.items), expr.negated)
    elif isinstance(expr, ex.BSubPlan):
        test = t(expr.test) if expr.test is not None else None
        rebuilt = ex.BSubPlan(expr.kind, expr.query, test, expr.negated)
    else:
        rebuilt = expr
    replacement = fn(rebuilt)
    return replacement if replacement is not None else rebuilt


def _column_one_is_nine(node):
    return ex.BConst(9) if node == v(1) else None


EVERY_EXPR = [expr for expr, _ in CASES.values()] + ABSENT


class TestTransform:
    """``transform`` keeps a node none of whose children changed; what
    it rebuilds equals what the copying rewrite built."""

    @pytest.mark.parametrize("expr", EVERY_EXPR, ids=lambda e: type(e).__name__)
    def test_the_same_result_and_the_same_visits(self, expr):
        tree = ex.BOp("and", expr, ex.BOp("=", v(7), v(8)))
        seen, reference_seen = [], []
        out = ex.transform(tree, lambda n: seen.append(n) or _column_one_is_nine(n))
        assert out == reference_transform(
            tree, lambda n: reference_seen.append(n) or _column_one_is_nine(n)
        )
        assert seen == reference_seen  # children first, left to right
        assert out.right is tree.right
        assert (out is tree) == (v(1) not in list(ex.walk(tree)))

    @pytest.mark.parametrize("expr", EVERY_EXPR, ids=lambda e: type(e).__name__)
    def test_a_rewrite_that_replaces_nothing_returns_the_tree(self, expr):
        assert ex.transform(expr, lambda n: None) is expr


@pytest.fixture
def catalog():
    return DictCatalog(
        tables={
            "t": table("t", "a", "b", "c"),
            "s": table("s", "x", "y"),
            "u": table("u", "p", "q"),
        }
    )


def _subplans(query):
    return [
        node
        for expr in query.expressions()
        for node in ex.walk(expr)
        if isinstance(node, ex.BSubPlan)
    ]


class TestDecorrelate:
    def test_in_exists_and_a_scalar_subquery_still_decorrelate(self, catalog):
        query = analyze(
            catalog,
            "SELECT a FROM t WHERE a IN (SELECT x FROM s) "
            "AND EXISTS (SELECT 1 FROM u WHERE p = b) "
            "AND c > (SELECT max(y) FROM s)",
        )
        assert len(_subplans(query)) == 3
        decorrelate(query)
        assert _subplans(query) == []
        assert [r.join_type for r in query.rels] == ["inner", "semi", "semi"]
        assert all(isinstance(r.source, DerivedSource) for r in query.rels[1:])
        assert len(query.init_plans) == 1
        assert any(isinstance(n, ex.BParam) for q in query.quals for n in ex.walk(q))

    def test_a_subplan_in_a_derived_table_decorrelates(self, catalog):
        query = analyze(
            catalog,
            "SELECT d.a FROM (SELECT a FROM t WHERE NOT EXISTS "
            "(SELECT 1 FROM s WHERE x = a)) d",
        )
        inner = query.rels[0].source.query
        assert len(_subplans(inner)) == 1
        decorrelate(query)
        assert _subplans(inner) == []
        assert inner.rels[1].join_type == "anti"

    def test_a_block_with_no_subplan_keeps_its_trees(self, catalog):
        query = analyze(
            catalog, "SELECT a, count(*) FROM t WHERE b = 1 AND c > 2 GROUP BY a"
        )
        quals, targets = list(query.quals), list(query.targets)
        decorrelate(query)
        assert all(a is b for a, b in zip(query.quals, quals))
        assert [t for t, _ in query.targets] == [t for t, _ in targets]
        assert query.init_plans == [] and len(query.rels) == 1

    def test_having_is_rebuilt_left_deep_with_or_without_a_subplan(self, catalog):
        """The rewrite rebuilds HAVING's conjunction left-deep; a block
        with no subplan must come out the same, or its plan would move."""
        plain = analyze(
            catalog,
            "SELECT a FROM t GROUP BY a "
            "HAVING count(*) > 1 AND (sum(b) > 2 AND max(c) > 3)",
        )
        with_subplan = analyze(
            catalog,
            "SELECT a FROM t GROUP BY a "
            "HAVING count(*) > 1 AND (sum(b) > 2 AND max(c) > (SELECT 3 FROM s))",
        )
        for query in (plain, with_subplan):
            assert isinstance(query.having.right, ex.BOp)
            assert query.having.right.op == "and"
            decorrelate(query)
            assert query.having.left.op == "and"
            assert ex.conjuncts(query.having)[:2] == ex.conjuncts(plain.having)[:2]
        assert query.having.right.right == ex.BParam(0)


def test_the_tpch_plans_are_pinned():
    """The 22 EXPLAIN texts, by digest (``statements/explain_digests``)."""
    session, _ = build_session()
    contract.check(("statements", "explain_digests"), explain_digests(session))
