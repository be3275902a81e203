"""Answers by PostgreSQL's rules, checked against stdlib ``sqlite3``.

HAWQ inherits PostgreSQL's semantics, so where this engine and SQLite
agree with PostgreSQL the SQLite answer is the reference; where SQLite
differs (a zero divisor yields NULL there) the PostgreSQL rule is written
into the test.

``%`` takes the dividend's sign (``-7 % 3`` is -1). It runs three ways:
the row executor (``sql_arith``), the batch executor on an AO table
(value lists), and on a CO table whose ints are typed vectors, where
``column % constant`` is one NumPy ``fmod``.
"""

import itertools
import sqlite3

import pytest

import repro
from repro.errors import ExecutorError

DIVIDENDS = (-8, -7, -6, -1, 0, 1, 6, 7, 8)
DIVISORS = (-3, -2, -1, 1, 2, 3)
ROWS = [
    (k, a, b) for k, (a, b) in enumerate(itertools.product(DIVIDENDS, DIVISORS))
]
STATEMENTS = (
    "SELECT k, a % b FROM m ORDER BY k",
    "SELECT k, a % 3 FROM m ORDER BY k",
    "SELECT k, a % -2 FROM m ORDER BY k",
    "SELECT k, 7 % b, -7 % b FROM m ORDER BY k",
    "SELECT k FROM m WHERE a % 3 = -1 ORDER BY k",
)


@pytest.fixture(scope="module")
def reference():
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE m (k INTEGER, a INTEGER, b INTEGER)")
    db.executemany("INSERT INTO m VALUES (?, ?, ?)", ROWS)
    return db


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
    return session


@pytest.mark.parametrize("sql", STATEMENTS)
def test_remainder_takes_the_dividends_sign(session, reference, sql):
    assert session.execute(sql).rows == [
        tuple(row) for row in reference.execute(sql).fetchall()
    ]


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
