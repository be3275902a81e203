"""Answers by PostgreSQL's rules, checked against the outside reference
(``repro.bench.reference``), which renders each statement for SQLite by
those rules.

Every rule runs three ways: the row executor, the batch executor on an
AO table (value lists), and on a CO table whose ints are typed vectors.

* ``%`` takes the dividend's sign (``-7 % 3`` is -1); on CO,
  ``column % constant`` is one NumPy ``fmod``.
* Integer ``/`` truncates toward zero (``-7 / 2`` is -3); an integer
  over a float divides exactly, and a NULL operand gives NULL. Every
  evaluator (both executors, constant folding, the Stinger baseline)
  goes through ``sql_arith``, so one rule covers them all.
* ``IN`` is three-valued: no match against a list holding a NULL is
  NULL, so ``x NOT IN (1, NULL)`` keeps no row.
* Backslash is LIKE's default escape (the reference writes it out, as
  SQLite has none).
* ``SELECT DISTINCT`` sorts on its select list; an ORDER BY expression
  outside it is an error.
* An uncorrelated scalar subquery is an InitPlan whose value is bound
  before its statement runs; with InitPlans in two query blocks, each
  block reads its own.
* A WHERE qual over a left join's nullable side filters the joined rows,
  NULL padding included; it does not join. One that rejects NULL there
  (a comparison, LIKE, an IN list, arithmetic) drops every padded row,
  so the join is planned as an inner one with the qual in the scan.
"""

import itertools

import pytest

import repro
from repro.bench.reference import Reference
from repro.errors import ExecutorError, PlannerError

DIVIDENDS = (-8, -7, -6, -1, 0, 1, 6, 7, 8)
DIVISORS = (-3, -2, -1, 1, 2, 3)
ROWS = [
    (k, a, b) for k, (a, b) in enumerate(itertools.product(DIVIDENDS, DIVISORS))
]
WORDS = [
    (0, 1, 1, "a_c"), (1, 2, None, "abc"), (2, None, 3, "a%c"),
    (3, 3, 2, "a\\c"), (4, 7, 7, None), (5, 1, None, "a\nb"),
    (6, None, None, "abc\n"), (7, 4, 3, "xa_cx"),
]
IN_STATEMENTS = (
    "SELECT k, a IN (1, NULL), a NOT IN (1, NULL) FROM w ORDER BY k",
    "SELECT k FROM w WHERE a NOT IN (1, NULL) ORDER BY k",
    "SELECT k FROM w WHERE a IN (1, NULL) ORDER BY k",
    "SELECT k FROM w WHERE NOT (a IN (2, NULL)) ORDER BY k",
    "SELECT k FROM w WHERE a NOT IN (1, 2) ORDER BY k",
    "SELECT k, a IN (b, 3), a NOT IN (b, 7) FROM w ORDER BY k",
    "SELECT k FROM w WHERE a NOT IN (b, 7) ORDER BY k",
    "SELECT k, s IN ('abc', NULL), s NOT IN ('abc', 'a_c') FROM w ORDER BY k",
    "SELECT k FROM w WHERE s NOT IN ('abc', NULL) ORDER BY k",
)
LIKE_PATTERNS = (
    "a\\_c", "a\\%c", "a\\\\c", "a_c", "%\\_%", "a\\bc", "abc", "a%b", "%c",
)
STATEMENTS = (
    "SELECT k, a % b FROM m ORDER BY k",
    "SELECT k, a % 3 FROM m ORDER BY k",
    "SELECT k, a % -2 FROM m ORDER BY k",
    "SELECT k, 7 % b, -7 % b FROM m ORDER BY k",
    "SELECT k FROM m WHERE a % 3 = -1 ORDER BY k",
)

DIVISION_STATEMENTS = (
    "SELECT k, a / b FROM m ORDER BY k",
    "SELECT k, a / 2, a / -2, a / 3 FROM m ORDER BY k",
    "SELECT k, -7 / b, 7 / b FROM m ORDER BY k",
    "SELECT k FROM m WHERE a / b = -2 ORDER BY k",
    "SELECT k, a / 2.0, a / (b * 1.0), 2.5 / b FROM m ORDER BY k",
    "SELECT k, a / b, a / 2, 7 / b, b / 2.0 FROM w ORDER BY k",
    "SELECT k, a / NULL, NULL / b FROM w ORDER BY k",
    "SELECT -7 / 2, 7 / -2, -7 / -2, 1 / 3, -1 / 3, -7 / 2.0, 7 / NULL",
)

#: A ``DECIMAL(10,2)`` column whose values need no more than two digits,
#: so SQLite's REAL column holds the same numbers, and ASCII text, since
#: SQLite's ``lower`` folds ASCII only.
DECIMALS = [
    (0, 2.5, "AbC"), (1, -2.5, None), (2, 1.25, "x Y"), (3, None, "q"),
    (4, -0.75, "MiXeD 9"),
]
FUNCTION_STATEMENTS = (
    "SELECT k, abs(x), abs(-x), abs(x - 3) FROM d ORDER BY k",
    "SELECT k FROM d WHERE abs(x) > 1 ORDER BY k",
    "SELECT k, lower(t), lower('MiXeD') FROM d ORDER BY k",
    "SELECT k FROM d WHERE lower(t) = 'abc' ORDER BY k",
)


@pytest.fixture(
    scope="module",
    params=[("row", "row"), ("batch", "row"), ("batch", "column")],
    ids=["row", "batch-ao", "batch-co"],
)
def session(request):
    mode, orientation = request.param
    engine = repro.Engine(
        num_segment_hosts=2, segments_per_host=1, executor_mode=mode
    )
    session = engine.connect()
    session.execute(
        "CREATE TABLE m (k INT NOT NULL, a INT, b INT) WITH "
        f"(appendonly=true, orientation={orientation}) DISTRIBUTED BY (k)"
    )
    session.load_rows("m", ROWS)
    session.execute(
        "CREATE TABLE w (k INT NOT NULL, a INT, b INT, s TEXT) WITH "
        f"(appendonly=true, orientation={orientation}) DISTRIBUTED BY (k)"
    )
    session.load_rows("w", WORDS)
    session.execute(
        "CREATE TABLE d (k INT NOT NULL, x DECIMAL(10,2), t TEXT) WITH "
        f"(appendonly=true, orientation={orientation}) DISTRIBUTED BY (k)"
    )
    session.load_rows("d", DECIMALS)
    return session


@pytest.fixture(scope="module")
def reference(session):
    reference = Reference()
    for table, rows in (("m", ROWS), ("w", WORDS), ("d", DECIMALS)):
        reference.load(session.engine, table, rows)
    yield reference
    reference.close()


def _agrees(session, reference, sql):
    """``sql`` gives the reference's rows, in its ORDER BY order; returns them."""
    answer = reference.run(sql)
    problem = answer.mismatch(session.execute(sql).rows)
    assert problem is None, problem
    return answer.rows


@pytest.mark.parametrize("sql", STATEMENTS)
def test_remainder_takes_the_dividends_sign(session, reference, sql):
    _agrees(session, reference, sql)


def test_literal_remainder():
    session = repro.Engine(num_segment_hosts=1, segments_per_host=1).connect()
    assert session.execute("SELECT -7 % 3, 7 % -3, -7 % -3").rows == [(-1, 1, -1)]


@pytest.mark.parametrize(
    "sql", ["SELECT a % 0 FROM m", "SELECT a % (b - b) FROM m", "SELECT 7 % 0"]
)
def test_zero_divisor_raises_like_division(session, sql):
    """PostgreSQL raises ``division by zero`` for ``%`` as for ``/``
    (SQLite returns NULL, so this is the rule, not the reference)."""
    with pytest.raises(ExecutorError, match="division by zero"):
        session.execute(sql)


@pytest.mark.parametrize("sql", DIVISION_STATEMENTS)
def test_integer_division_truncates_toward_zero(session, reference, sql):
    _agrees(session, reference, sql)


@pytest.mark.parametrize(
    "sql", ["SELECT a / 0 FROM m", "SELECT a / (b - b) FROM m", "SELECT 7 / 0"]
)
def test_integer_division_by_zero_raises(session, sql):
    with pytest.raises(ExecutorError, match="division by zero"):
        session.execute(sql)


@pytest.mark.parametrize("sql", IN_STATEMENTS)
def test_in_list_with_a_null_is_three_valued(session, reference, sql):
    _agrees(session, reference, sql)


@pytest.mark.parametrize("sql", FUNCTION_STATEMENTS)
def test_abs_and_lower_agree_with_the_reference(session, reference, sql):
    _agrees(session, reference, sql)


@pytest.mark.xfail(
    strict=True,
    reason="both expression compilers call Python's round(), which rounds "
    "half to even (round(2.5) is 2); PostgreSQL's numeric round and "
    "SQLite round half away from zero. Bound expressions carry no type "
    "to tell a DECIMAL from a FLOAT (ROADMAP item 4)",
)
def test_round_of_a_decimal_rounds_half_away_from_zero(session, reference):
    sql = "SELECT k, round(x) FROM d ORDER BY k"
    _agrees(session, reference, sql)


@pytest.mark.parametrize("pattern", LIKE_PATTERNS)
@pytest.mark.parametrize("op", ["LIKE", "NOT LIKE"])
def test_backslash_is_the_like_escape(session, reference, pattern, op):
    _agrees(session, reference, f"SELECT k FROM w WHERE s {op} '{pattern}' ORDER BY k")


@pytest.mark.parametrize(
    "sql",
    ["SELECT k FROM w WHERE s LIKE 'a\\'", "SELECT 'a' LIKE 'a\\'"],
)
def test_pattern_ending_in_the_escape_raises(session, sql):
    with pytest.raises(ExecutorError, match="must not end with escape"):
        session.execute(sql)


DISTINCT_STATEMENTS = (
    "SELECT DISTINCT a FROM w ORDER BY a NULLS LAST",
    "SELECT DISTINCT b, a FROM w ORDER BY a DESC NULLS FIRST, b NULLS LAST",
    "SELECT DISTINCT a % 2 FROM m ORDER BY a % 2",
)


@pytest.mark.parametrize("sql", DISTINCT_STATEMENTS)
def test_distinct_sorts_on_its_select_list(session, reference, sql):
    _agrees(session, reference, sql)


def test_order_by_outside_a_distinct_select_list_raises(session):
    with pytest.raises(PlannerError, match="must appear in select list"):
        session.execute("SELECT DISTINCT a FROM w ORDER BY k")


LEFT_JOIN_STATEMENTS = (
    "SELECT w.k FROM w LEFT JOIN m ON w.a = m.k WHERE m.k IS NULL ORDER BY w.k",
    "SELECT w.k, m.b FROM w LEFT JOIN m ON w.b = m.k AND m.a < 0 "
    "WHERE m.b IS NULL ORDER BY w.k",
    "SELECT w.k, m.a FROM w LEFT JOIN m ON w.a = m.k "
    "WHERE m.a < -7 OR m.a IS NULL ORDER BY w.k",
    "SELECT w.k, m.a FROM w LEFT JOIN m ON w.a = m.k "
    "WHERE coalesce(m.a, 0) = 0 ORDER BY w.k",
    "SELECT w.k, m.a FROM w LEFT JOIN m ON w.a = m.k "
    "WHERE CASE WHEN m.a IS NULL THEN 1 ELSE 0 END = 1 ORDER BY w.k",
)
#: Each WHERE qual rejects NULL on the nullable side: the left join is
#: planned as an inner one.
STRICT_LEFT_JOIN_STATEMENTS = (
    "SELECT w.k, m.a FROM w LEFT JOIN m ON w.a = m.k WHERE m.a > 0 ORDER BY w.k",
    "SELECT w.k, m.a FROM w LEFT JOIN m ON w.a = m.k WHERE m.a < -7 ORDER BY w.k",
    "SELECT w.k, m.a FROM w LEFT JOIN m ON w.a = m.k "
    "WHERE m.a + m.b < -8 ORDER BY w.k",
    "SELECT w.k, m.b FROM w LEFT JOIN m ON w.b = m.k "
    "WHERE m.b IN (1, 2, 3) ORDER BY w.k",
    "SELECT w.k, x.s FROM w LEFT JOIN w x ON w.a = x.k "
    "WHERE x.s LIKE 'a%' ORDER BY w.k",
    "SELECT w.k, m.a, x.k FROM w LEFT JOIN m ON w.a = m.k "
    "LEFT JOIN w x ON x.k = m.b + 3 WHERE x.a > 0 ORDER BY w.k, m.a",
)


@pytest.mark.parametrize("sql", LEFT_JOIN_STATEMENTS)
def test_where_on_a_left_joins_nullable_side_filters_above_it(
    session, reference, sql
):
    _agrees(session, reference, sql)


@pytest.mark.parametrize("sql", STRICT_LEFT_JOIN_STATEMENTS)
def test_strict_where_qual_turns_a_left_join_inner(session, reference, sql):
    assert "HashJoin(left" not in session.execute(sql).plan.explain()
    _agrees(session, reference, sql)


#: Uncorrelated scalar subqueries in two query blocks, a derived table's
#: and the outer one's: each block's InitPlans join one flat list, so the
#: second block hoisted renumbers its parameters past the first's.
INIT_PLAN_STATEMENTS = (
    "SELECT k FROM (SELECT k, a FROM m WHERE a > (SELECT min(a) FROM m)) d "
    "WHERE k < (SELECT max(k) FROM w) * 3 ORDER BY k",
    "SELECT d.k, d.a FROM (SELECT k, a FROM w WHERE a < (SELECT max(b) FROM m)) d "
    "WHERE d.a >= (SELECT min(a) FROM w) ORDER BY d.k",
    "SELECT a, count(*) FROM (SELECT a FROM m WHERE b = (SELECT max(b) FROM m)) d "
    "WHERE a <> (SELECT min(a) FROM m) GROUP BY a "
    "HAVING count(*) >= (SELECT min(b) FROM m WHERE b > 0) ORDER BY a",
    "SELECT d.k, d.a + (SELECT max(b) FROM m) FROM "
    "(SELECT k, a FROM w WHERE k >= (SELECT min(a) FROM w)) d ORDER BY d.k",
)


@pytest.mark.parametrize("sql", INIT_PLAN_STATEMENTS)
def test_init_plans_of_two_blocks_bind_their_own_values(session, reference, sql):
    assert len(_agrees(session, reference, sql)) > 1


@pytest.mark.xfail(
    strict=True,
    reason="a correlated scalar subquery is decorrelated into an inner "
    "join, so an outer row that matches nothing is dropped (ROADMAP item 10)",
)
def test_select_list_correlated_scalar_keeps_unmatched_rows(session, reference):
    sql = "SELECT w.k, (SELECT max(m.a) FROM m WHERE m.k = w.a) FROM w ORDER BY w.k"
    _agrees(session, reference, sql)


@pytest.mark.xfail(
    strict=True,
    reason="NOT IN (subquery) is a plain anti join, so a NULL probe row "
    "that matches nothing is kept where SQL's answer is NULL (ROADMAP "
    "item 10)",
)
def test_not_in_subquery_drops_a_null_probe(session, reference):
    sql = (
        "SELECT k, a FROM w WHERE a NOT IN "
        "(SELECT a FROM m WHERE a IS NOT NULL AND b = 1) ORDER BY k"
    )
    _agrees(session, reference, sql)


#: IN and EXISTS as one arm of an OR, where no semi join can carry them.
OR_SUBQUERY_STATEMENTS = (
    "SELECT k FROM w WHERE a IN (SELECT a FROM m WHERE b = 1) OR k = 1 ORDER BY k",
    "SELECT k FROM w WHERE EXISTS (SELECT 1 FROM m WHERE m.k = w.a) OR b < 0 ORDER BY k",
)


@pytest.mark.xfail(
    strict=True,
    raises=PlannerError,
    reason="IN and EXISTS decorrelate only as top-level WHERE conjuncts; "
    "under OR the planner refuses them",
)
@pytest.mark.parametrize("sql", OR_SUBQUERY_STATEMENTS)
def test_subqueries_under_or_are_refused(session, reference, sql):
    _agrees(session, reference, sql)
