"""The outside reference (``repro.bench.reference``): its comparator and
renderer, and a seeded statement generator whose every statement runs on
an AO and a CO copy of its tables and must give the reference's answer.
The subset it covers is DESIGN.md's (*One outside reference*); a
statement just outside it may give rows that agree or raise a
``ReproError`` that is no ``ExecutorError``. Each seed runs 50
statements; ``REPRO_REFERENCE_SEEDS`` sets the number of seeds (8 by
default). Constant expressions, which ``INSERT … VALUES`` evaluates
without a plan, are checked against the same reference.
"""

import collections
import math
import os
import random

import pytest

import repro
from repro.bench.reference import REL_TOL, DivisionByZero, Reference, mismatch
from repro.ddl import compile_expr_value
from repro.errors import ExecutorError, ReproError
from repro.sql.parser import parse_statement

SEEDS = int(os.environ.get("REPRO_REFERENCE_SEEDS", "8"))
STATEMENTS = 50


class TestMismatch:
    def test_multisets_ignore_order(self):
        assert mismatch([(1, "a"), (2, "b")], [(2, "b"), (1, "a")]) is None
        assert mismatch([(1, "a"), (1, "a")], [(1, "a"), (2, "b")])

    def test_float_tolerance_is_relative(self):
        assert mismatch([(1.0 + REL_TOL / 2,)], [(1.0,)]) is None
        assert mismatch([(1.0 + REL_TOL * 4,)], [(1.0,)])
        assert mismatch([(1e-300,)], [(0.0,)])

    def test_only_computed_columns_are_tolerant(self):
        off_by_a_bit = math.nextafter(0.07, 1.0)
        assert mismatch([(off_by_a_bit, 0.07)], [(0.07, 0.07)], computed=(True, False)) is None
        assert mismatch([(0.07, off_by_a_bit)], [(0.07, 0.07)], computed=(True, False))
        # Stored values a summation-noise apart still pair up as multisets.
        ours = [(1.0000001,), (1.0000002,)]
        assert mismatch(ours, ours[::-1], computed=(False,)) is None
        assert mismatch(ours, ours[::-1], computed=(True,)) is None

    def test_types_and_nulls(self):
        assert mismatch([(None, 1)], [(None, 1)]) is None
        assert mismatch([(None,)], [(1,)])
        assert mismatch([(1,)], [("1",)])
        assert mismatch([(2.0,)], [(2,)]) is None  # a DECIMAL column is REAL there
        assert mismatch([(True, False)], [(1, 0)]) is None  # SQLite has no boolean

    def test_length_mismatch(self):
        assert mismatch([(1,)], [(1,), (2,)])
        assert mismatch([], [], keys=(0,)) is None

    def test_float_noise_does_not_reorder(self):
        assert mismatch([(1.0, "x"), (1.0 + 1e-12, "y")], [(1.0, "x"), (1.0, "y")]) is None

    def test_order_counts_only_between_keys(self):
        theirs = [(1, "a"), (1, "b"), (2, "c")]
        assert mismatch([(1, "b"), (1, "a"), (2, "c")], theirs, keys=(0,)) is None
        assert mismatch([(2, "c"), (1, "a"), (1, "b")], theirs, keys=(0,))
        assert mismatch([(1, "b"), (1, "a"), (2, "c")], theirs, keys=(0, 1))

    def test_a_limit_may_cut_a_tie_anywhere(self):
        theirs = [(1, "a"), (2, "b")]
        assert mismatch([(1, "a"), (2, "z")], theirs, keys=(0,), limit=2) is None
        assert mismatch([(1, "z"), (2, "b")], theirs, keys=(0,), limit=2)
        assert mismatch([(1, "a"), (2, "z")], theirs, keys=(0,), limit=3)


def test_the_renderer_keeps_postgresqls_rules():
    ref = Reference()
    answer = ref.run(
        "SELECT DATE '1995-01-31' + INTERVAL '1' MONTH, DATE '1996-03-31' - "
        "INTERVAL '1' YEAR - INTERVAL '1' MONTH, extract(year FROM DATE '1995-06-01'), "
        "substring('abcdef' FROM 2 FOR 3), -7 / 2, -7 % 3, 7 / 2.0, 'a_c' LIKE 'a\\_c', "
        "'abc' LIKE 'a\\_c', 'ABC' LIKE 'a%'"
    )
    assert answer.rows == [("1995-02-28", "1995-02-28", 1995, "bcd", -3, -1, 3.5, 1, 0, 0)]
    with pytest.raises(DivisionByZero):
        ref.run("SELECT 1 / 0")
    ordered = ref.run(
        "SELECT v FROM (SELECT 1 AS v) a ORDER BY v DESC"
    )
    assert ordered.keys == (0,)


def test_the_tree_says_which_columns_are_computed():
    session = repro.Engine(num_segment_hosts=1, segments_per_host=1).connect()
    session.execute("CREATE TABLE p (k INT NOT NULL, d DECIMAL(6,2)) DISTRIBUTED BY (k)")
    ref = Reference()
    ref.load(session.engine, "p", [(1, 0.5), (2, 0.25)])
    answer = ref.run("SELECT d, sum(d), d + 0, 7, p.* FROM p GROUP BY d, k")
    assert answer.computed == (False, True, True, False, False, False)
    answer = ref.run(
        "CREATE VIEW v AS SELECT k, sum(d) AS s FROM p GROUP BY k;"
        "SELECT v.k, v.s, x.d FROM v JOIN (SELECT k, d FROM p) x ON v.k = x.k ORDER BY v.k"
    )
    assert (answer.computed, answer.keys) == ((False, True, False), (0,))
    with pytest.raises(ValueError, match="ORDER BY"):  # its order would go unchecked
        ref.run("SELECT k FROM p ORDER BY d")
    ref.close()


# ------------------------------------------------------------- generator
#: Known wrong answers, each with a model of the answer the engine gives.
#: A statement of a pin's shape must agree with the reference or with
#: its model, and the budget must hold one where only the model agrees:
#: a fix fails the generator, as a strict ``xfail`` would, until its pin
#: goes. DESIGN.md's *Known simplifications* names each.
PINS = {
    "not_in_subquery": "NOT IN (subquery) is a plain anti join: a NULL probe "
    "row is kept, a NULL in the subquery ignored (ROADMAP item 10)",
    "correlated_count": "a correlated count(*) is an inner join: an outer row "
    "that matches nothing is dropped, not compared with 0 (item 10)",
    "select_list_correlated": "a select-list correlated scalar is an inner "
    "join: an outer row that matches nothing is dropped (item 10)",
}

DDL = (
    "CREATE TABLE t (k INT NOT NULL, a INT, b INT, d DECIMAL(6,2), s TEXT) "
    "WITH (appendonly=true, orientation={o}) DISTRIBUTED BY (k)",
    "CREATE TABLE u (k INT NOT NULL, x INT, y INT, z TEXT) "
    "WITH (appendonly=true, orientation={o}) DISTRIBUTED RANDOMLY",
)
WORDS = ("a", "ab", "abc", "a_c", "a%c", "a\\c", "b", "")
PATTERNS = ("a%", "%c", "a\\_c", "a_c", "%\\%%", "a\\\\c", "_", "%", "ab")
DECIMALS = (-2.5, -1.0, 0.0, 0.25, 1.5, 3.0)
COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
#: Integer columns, the numeric ones (with t's DECIMAL) and text, per side.
T_INTS, T_NUMS, T_TEXT = ("t.a", "t.b"), ("t.a", "t.b", "t.d"), ("t.s",)
U_INTS, U_TEXT = ("u.x", "u.y"), ("u.z",)

Case = collections.namedtuple("Case", "sql inside pin model", defaults=(True, None, None))


class Statements:
    """Seeded tables and SQL over them."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def tables(self):
        rng = self.rng

        def rows(size, *makes):
            # Each column its own share of NULLs, all of them at times.
            nulls = [rng.choice((0.0, 0.0, 0.1, 0.2, 0.4, 0.7, 1.0)) for _ in makes]
            return [
                (k, *(None if rng.random() < p else make() for p, make in zip(nulls, makes)))
                for k in range(size)
            ]

        def num():
            return rng.randint(-4, 4)

        def word():
            return rng.choice(WORDS)

        t = rows(rng.choice((0, 8, 20, 30, 40)), num, num, lambda: rng.choice(DECIMALS), word)
        u = rows(rng.choice((0, 8, 12, 20)), num, num, word)
        return t, u

    def num(self, cols, depth=2, divisors=True):
        """A numeric expression. Without ``divisors`` each divisor is a
        nonzero constant: SQL leaves the order in which a WHERE clause's
        quals run to the engine, so whether a zero divisor there raises
        is the engine's choice; a select list runs on the kept rows."""
        rng, roll = self.rng, self.rng.random()
        if depth == 0 or roll < 0.35:
            return rng.choice(cols)
        if roll < 0.5:
            return str(rng.randint(-4, 4))
        if roll < 0.8:
            op = rng.choice("+-*/%")
            left = self.num(cols, depth - 1, divisors)
            if op in "/%" and not divisors:
                return f"({left} {op} {rng.choice((-3, -2, 2, 3))})"
            return f"({left} {op} {self.num(cols, depth - 1, divisors)})"
        if roll < 0.9:
            return (
                f"CASE WHEN {self.pred(cols, (), depth - 1)} THEN {self.num(cols, depth - 1, divisors)} "
                f"ELSE {self.num(cols, depth - 1, divisors)} END"
            )
        return f"coalesce({rng.choice(cols)}, {rng.randint(-4, 4)})"

    def pred(self, cols, texts, depth=1):
        rng, roll = self.rng, self.rng.random()
        if depth > 0 and roll < 0.2:
            op = rng.choice(("AND", "OR"))
            return f"({self.pred(cols, texts, depth - 1)} {op} {self.pred(cols, texts, depth - 1)})"
        if depth > 0 and roll < 0.27:
            return f"NOT ({self.pred(cols, texts, depth - 1)})"
        if roll < 0.55:
            left, right = self.num(cols, 1, False), self.num(cols, 1, False)
            return f"{left} {rng.choice(COMPARISONS)} {right}"
        if roll < 0.65:
            return f"{rng.choice(cols + texts)} IS {rng.choice(('', 'NOT '))}NULL"
        negated = rng.choice(("", "NOT "))
        if roll < 0.8 or not texts:
            items = ", ".join(rng.choice(("NULL", "0", "1", "-2", "3")) for _ in range(rng.randint(1, 3)))
            return f"{self.num(cols, 0)} {negated}IN ({items})"
        pattern = rng.choice(PATTERNS)
        return f"{rng.choice(texts)} {negated}LIKE '{pattern}'"

    def where(self, cols, texts, chance=0.7):
        return f" WHERE {self.pred(cols, texts)}" if self.rng.random() < chance else ""

    def order(self, keys, tiebreak, limit):
        """ORDER BY ``keys`` (each in the select list) and a unique
        ``tiebreak``, then ``limit``."""
        rng = self.rng
        items = [
            f"{key} {rng.choice(('ASC', 'DESC'))}{rng.choice(('', ' NULLS FIRST', ' NULLS LAST'))}"
            for key in keys
        ]
        return f" ORDER BY {', '.join(items + list(tiebreak))}{limit}"

    def limit(self):
        """A LIMIT, or none. Under one a select list may run on the kept
        rows only, so its divisors are nonzero too."""
        return f" LIMIT {self.rng.randint(0, 6)}" if self.rng.random() < 0.25 else ""

    # -------------------------------------------------------------- shapes
    def scan(self):
        rng, limit = self.rng, self.limit()
        value = self.num(T_NUMS, divisors=not limit)
        sql = f"SELECT t.k, {value}, t.s FROM t{self.where(T_NUMS, T_TEXT, 0.8)}"
        if limit or rng.random() < 0.4:
            # A bare integer would sort by position.
            by_value = rng.random() < 0.5 and not value.lstrip("-").isdigit()
            sql += self.order([value] if by_value else [], ["t.k"], limit)
        return Case(sql)

    def aggregate(self):
        rng = self.rng
        col, value = rng.choice(T_NUMS + T_TEXT), self.num(T_NUMS)
        aggs = ", ".join(rng.sample(
            ["count(*)", f"count({col})", f"sum({value})", f"min({col})",
             f"max({col})", f"avg({value})", "count(DISTINCT t.a)"], 3,
        ))
        where = self.where(T_NUMS, T_TEXT)
        if rng.random() < 0.3:
            return Case(f"SELECT {aggs} FROM t{where}")
        group = rng.choice(("t.a", "t.s", "t.b", "(t.a % 3)"))
        having = f" HAVING count(*) > {rng.randint(0, 2)}" if rng.random() < 0.3 else ""
        order = f" ORDER BY {group}" if rng.random() < 0.5 else ""
        return Case(f"SELECT {group}, {aggs} FROM t{where} GROUP BY {group}{having}{order}")

    def join(self):
        rng, limit = self.rng, self.limit()
        on = f"t.{rng.choice('ab')} = u.{rng.choice('xy')}"
        if rng.random() < 0.3:
            on += f" AND {self.pred(rng.choice((T_INTS, U_INTS)), ())}"
        both = T_INTS + U_INTS
        value = self.num(both, divisors=not limit)
        side = rng.choice(((T_INTS, T_TEXT), (U_INTS, U_TEXT), (both, T_TEXT + U_TEXT)))
        where = self.where(*side, 0.8)
        if rng.random() < 0.4:
            # A qual that keeps a left join's NULL padding must run above it.
            column = rng.choice(U_INTS)
            where = " WHERE " + rng.choice((
                f"{column} IS NULL",
                f"coalesce({column}, 0) {rng.choice(COMPARISONS)} {rng.randint(-2, 2)}",
                f"({self.pred(U_INTS, U_TEXT)} OR {column} IS NULL)",
            ))
        if rng.random() < 0.15:
            sql = f"SELECT t.k, u.k, {value} FROM t, u WHERE {on}"
            sql += where.replace(" WHERE ", " AND ")
        else:
            kind = rng.choice(("JOIN", "LEFT JOIN", "LEFT JOIN"))
            sql = f"SELECT t.k, u.k, {value} FROM t {kind} u ON {on}{where}"
        if limit or rng.random() < 0.4:
            sql += self.order([], ["t.k", "u.k"], limit)
        return Case(sql)

    def subquery(self):
        rng = self.rng
        inner = self.pred(U_INTS, U_TEXT)
        probe, found = rng.choice(T_INTS), rng.choice(U_INTS)
        outer = f"SELECT t.k, t.a, t.b FROM t WHERE {{}}{self.where(T_INTS, T_TEXT, 0.5).replace(' WHERE ', ' AND ')} ORDER BY t.k"
        roll = rng.random()
        if roll < 0.15:
            return Case(outer.format(f"{probe} IN (SELECT {found} FROM u WHERE {inner})"))
        if roll < 0.3:
            return Case(
                outer.format(f"{probe} NOT IN (SELECT {found} FROM u WHERE {inner})"),
                pin="not_in_subquery",
                model=outer.format(
                    f"NOT EXISTS (SELECT 1 FROM u WHERE ({inner}) AND {found} = {probe})"
                ),
            )
        if roll < 0.45:
            negated = rng.choice(("", "NOT "))
            return Case(outer.format(
                f"{negated}EXISTS (SELECT 1 FROM u WHERE {found} = {probe} AND {inner})"
            ))
        if roll < 0.6:
            agg = rng.choice(("min", "max", "sum", "count"))
            return Case(outer.format(
                f"{self.num(T_INTS, 1, False)} {rng.choice(COMPARISONS)} "
                f"(SELECT {agg}({found}) FROM u WHERE {inner})"
            ))
        if roll < 0.7:
            agg = rng.choice(("min", "max", "sum"))
            return Case(outer.format(
                f"{probe} {rng.choice(COMPARISONS)} (SELECT {agg}(u.y) FROM u WHERE u.x = {probe})"
            ))
        if roll < 0.8:
            count = f"(SELECT count(*) FROM u WHERE u.x = {probe} AND {inner})"
            compared = f"{rng.randint(0, 2)} {rng.choice(COMPARISONS)} "
            return Case(
                outer.format(compared + count),
                pin="correlated_count",
                model=outer.format(compared + count.replace("count(*)", "nullif(count(*), 0)")),
            )
        if roll < 0.9:
            return Case(
                f"SELECT t.k, (SELECT max({found}) FROM u WHERE {inner}) FROM t ORDER BY t.k"
            )
        agg = rng.choice(("max(u.y)", "count(*)", "sum(u.y)"))
        sql = f"SELECT t.k, (SELECT {agg} FROM u WHERE u.x = t.a) FROM t{{}} ORDER BY t.k"
        return Case(
            sql.format(""),
            pin="select_list_correlated",
            model=sql.format(" WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)"),
        )

    def distinct(self):
        rng = self.rng
        items = rng.sample(("t.a", "t.b", "t.s", "(t.a % 2)", "t.d"), rng.randint(1, 2))
        select = ", ".join(items)
        return Case(
            f"SELECT DISTINCT {select} FROM t{self.where(T_NUMS, T_TEXT, 0.5)}"
            + self.order(items, [], self.limit())
        )

    def outside(self):
        rng = self.rng
        return Case(rng.choice((
            f"SELECT t.k FROM t WHERE t.a IN (SELECT u.x FROM u) OR {self.pred(T_INTS, T_TEXT)}",
            f"SELECT t.k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a) "
            f"OR {self.pred(T_INTS, T_TEXT)}",
            "SELECT t.k, t.a IN (SELECT u.x FROM u) FROM t",
            "SELECT t.k FROM t UNION SELECT u.k FROM u",
            "SELECT t.k FROM t ORDER BY t.k LIMIT 2 OFFSET 1",
        )), inside=False)

    def statement(self):
        rng = self.rng
        shape = rng.choices(
            (self.scan, self.aggregate, self.join, self.subquery, self.distinct, self.outside),
            weights=(3, 3, 4, 5, 2, 1),
        )[0]
        return shape()


@pytest.fixture(scope="module")
def copies():
    """One engine per storage: AO tables decode to list-backed batches,
    CO tables to typed ones."""
    return {
        orientation: repro.Engine(num_segment_hosts=2, segments_per_host=1).connect()
        for orientation in ("row", "column")
    }


def _load(copies, t, u):
    ref = Reference()
    for orientation, session in copies.items():
        for name, ddl, rows in zip("tu", DDL, (t, u)):
            session.execute(f"DROP TABLE IF EXISTS {name}")
            session.execute(ddl.format(o=orientation))
            session.load_rows(name, rows)
    for name, rows in zip("tu", (t, u)):
        ref.load(session.engine, name, rows)
    return ref


def _check(case, copies, ref, witnessed):
    """Why ``case`` fails on some copy, or None."""
    try:
        answer = ref.run(case.sql)
    except (DivisionByZero, ReproError):  # or a statement outside the subset
        answer = None
    for orientation, session in copies.items():
        try:
            ours = session.execute(case.sql).rows
        except ExecutorError as exc:
            if answer is None and "division by zero" in str(exc):
                continue
            return f"{orientation}: {type(exc).__name__}: {exc}"
        except ReproError as exc:
            if case.inside:
                return f"{orientation}: {type(exc).__name__}: {exc}"
            continue
        if answer is None:
            return f"{orientation}: rows where the reference raised"
        problem = answer.mismatch(ours)
        if problem and case.pin and ref.run(case.model).mismatch(ours) is None:
            witnessed[case.pin] += 1
            continue
        if problem:
            return f"{orientation}: {problem}"
    return None


def test_generated_statements_agree_with_the_reference(copies):
    failures, witnessed = [], collections.Counter()
    for seed in range(SEEDS):
        statements = Statements(seed)
        ref = _load(copies, *statements.tables())
        for index in range(STATEMENTS):
            case = statements.statement()
            problem = _check(case, copies, ref, witnessed)
            if problem:
                failures.append(f"seed {seed} #{index}: {case.sql}\n    {problem}")
        ref.close()
    assert not failures, "\n".join(failures)
    assert set(witnessed) == set(PINS), f"pins no statement witnessed: {set(PINS) - set(witnessed)}"


CONSTANTS = ("-7", "-2", "0", "3", "8", "2.5", "NULL")
TEXTS = ("'a_c'", "'abc'", "NULL")


def _constant(kind, statements):
    """A constant expression of ``kind``, with NULLs, a decimal and zero
    divisors among its operands."""
    rng, num = statements.rng, statements.num
    if kind == "arithmetic":
        return num(CONSTANTS, 3)
    if kind == "division":  # truncation toward zero, a remainder's sign
        operands = CONSTANTS + tuple(str(rng.randint(-20, 20)) for _ in range(4))
        return f"{rng.choice(operands)} {rng.choice('/%')} {rng.choice(operands)}"
    if kind == "comparison":
        return f"{num(CONSTANTS, 1)} {rng.choice(COMPARISONS)} {num(CONSTANTS, 1)}"
    if kind == "in_list":
        items = ", ".join(rng.choice(CONSTANTS) for _ in range(rng.randint(1, 4)))
        return f"{num(CONSTANTS, 1)} {rng.choice(('', 'NOT '))}IN ({items})"
    if kind == "case":
        otherwise = f" ELSE {num(CONSTANTS, 1)}" if rng.random() < 0.8 else ""
        return f"CASE WHEN {statements.pred(CONSTANTS, TEXTS)} THEN {num(CONSTANTS, 1)}{otherwise} END"
    if kind == "like":
        word = rng.choice(WORDS + (None,))
        text = "NULL" if word is None else f"'{word}'"
        return f"{text} {rng.choice(('', 'NOT '))}LIKE '{rng.choice(PATTERNS)}'"
    if kind == "logic":
        return statements.pred(CONSTANTS, TEXTS, 2)
    # PostgreSQL and SQLite part ways on a start below 1.
    return f"substring('{rng.choice(WORDS)}' FROM {rng.randint(1, 6)} FOR {rng.randint(0, 6)})"


@pytest.mark.parametrize(
    "kind", ["arithmetic", "division", "comparison", "in_list", "case", "like", "logic", "substring"]
)
def test_constant_expressions_agree_with_the_reference(kind):
    """``ddl.compile_expr_value`` gives the reference's value for 100
    generated expressions of ``kind``, or both raise division by zero."""
    ref, statements = Reference(), Statements(kind)
    for _ in range(100):
        text = _constant(kind, statements)
        expr = parse_statement(f"SELECT {text}").items[0].expr
        try:
            answer = ref.run(f"SELECT {text}")
        except DivisionByZero:
            with pytest.raises(ExecutorError, match="division by zero"):
                compile_expr_value(expr)
            continue
        assert answer.mismatch([(compile_expr_value(expr),)]) is None, text
    ref.close()
