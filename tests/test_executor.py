"""Tests for expression evaluation semantics and executor operators,
driven end-to-end through a small engine (the executor's natural API)."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.errors import ExecutorError
from repro.executor.aggregates import make_state
from repro.executor.expr import (
    _like_pattern,
    add_interval,
    compile_expr,
    estimate_row_bytes,
    sql_arith,
    sql_compare,
)
from repro.planner import exprs as ex


@pytest.fixture(scope="module")
def session():
    engine = Engine(num_segment_hosts=2, segments_per_host=2)
    s = engine.connect()
    s.execute(
        "CREATE TABLE nums (a INT NOT NULL, b INT, t TEXT, d DATE, f FLOAT) "
        "DISTRIBUTED BY (a)"
    )
    rows = []
    for i in range(40):
        rows.append(
            (
                i,
                None if i % 7 == 0 else i * 2,
                None if i % 11 == 0 else f"str{i % 4}",
                datetime.date(1995, 1, 1) + datetime.timedelta(days=i * 17),
                i / 3.0,
            )
        )
    s.load_rows("nums", [s.engine.catalog.get_schema("nums",
        s.engine.txns.begin().statement_snapshot()).coerce_row(r) for r in rows])
    return s


class TestValueSemantics:
    def test_comparisons_with_null(self):
        assert sql_compare("=", None, 1) is None
        assert sql_compare("<", 1, None) is None
        assert sql_compare("<>", 2, 3) is True

    def test_arithmetic_with_null(self):
        assert sql_arith("+", None, 1) is None
        assert sql_arith("*", 2, None) is None

    def test_division(self):
        # Integers truncate toward zero, as in PostgreSQL (not floor).
        assert sql_arith("/", 7, 2) == 3
        assert sql_arith("/", -7, 2) == -3
        assert sql_arith("/", 7, 2.0) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutorError):
            sql_arith("/", 1, 0)

    def test_concat(self):
        assert sql_arith("||", "a", 1) == "a1"

    def test_like(self):
        assert _like_pattern("forest%").match("forest green")
        assert _like_pattern("a_c").match("abc")
        assert not _like_pattern("a_d").match("abc")
        assert _like_pattern("%special%requests%").match("special requests here")
        assert not _like_pattern("a").match("a\n")

    def test_add_interval_months_clamp(self):
        assert add_interval(datetime.date(1999, 1, 31), 1, "month") == datetime.date(
            1999, 2, 28
        )

    def test_add_interval_year(self):
        assert add_interval(datetime.date(1994, 1, 1), 1, "year") == datetime.date(
            1995, 1, 1
        )

    def test_interval_subtract(self):
        assert add_interval(
            datetime.date(1998, 12, 1), 90, "day", sign=-1
        ) == datetime.date(1998, 9, 2)

    @given(
        row=st.tuples(
            st.integers(-100, 100),
            st.one_of(st.none(), st.text(max_size=8)),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_row_bytes_positive(self, row):
        assert estimate_row_bytes(row) > 0


class TestCompiledExpressions:
    LAYOUT = [("r", 0, 0), ("r", 0, 1)]

    def run(self, expr, row):
        return compile_expr(expr, self.LAYOUT)(row)

    def test_three_valued_and(self):
        var = ex.BVar(0, 0)
        null = ex.BConst(None)
        expr = ex.BOp("and", ex.BOp("=", var, var), ex.BOp("=", null, null))
        assert self.run(expr, (1, 2)) is None  # true AND unknown = unknown
        false_side = ex.BOp(
            "and", ex.BOp("=", ex.BConst(1), ex.BConst(2)), ex.BOp("=", null, null)
        )
        assert self.run(false_side, (1, 2)) is False  # false AND unknown

    def test_three_valued_or(self):
        null_eq = ex.BOp("=", ex.BConst(None), ex.BConst(1))
        true_side = ex.BOp("or", ex.BOp("=", ex.BConst(1), ex.BConst(1)), null_eq)
        assert self.run(true_side, ()) is True
        unknown = ex.BOp("or", ex.BOp("=", ex.BConst(1), ex.BConst(2)), null_eq)
        assert self.run(unknown, ()) is None

    def test_not_null(self):
        expr = ex.BNot(ex.BOp("=", ex.BConst(None), ex.BConst(1)))
        assert self.run(expr, ()) is None

    def test_case_first_match(self):
        expr = ex.BCase(
            whens=(
                (ex.BOp(">", ex.BVar(0, 0), ex.BConst(5)), ex.BConst("big")),
                (ex.BOp(">", ex.BVar(0, 0), ex.BConst(1)), ex.BConst("mid")),
            ),
            else_result=ex.BConst("small"),
        )
        assert self.run(expr, (10,)) == "big"
        assert self.run(expr, (3,)) == "mid"
        assert self.run(expr, (0,)) == "small"

    def test_case_no_else_null(self):
        expr = ex.BCase(
            whens=((ex.BOp(">", ex.BVar(0, 0), ex.BConst(5)), ex.BConst(1)),)
        )
        assert self.run(expr, (0,)) is None

    def test_in_list(self):
        expr = ex.BIn(ex.BVar(0, 0), (ex.BConst(1), ex.BConst(2)), negated=False)
        assert self.run(expr, (2,)) is True
        assert self.run(expr, (3,)) is False
        assert self.run(expr, (None,)) is None

    def test_functions(self):
        sub = ex.BFunc("substring", (ex.BConst("13-555"), ex.BConst(1), ex.BConst(2)))
        assert self.run(sub, ()) == "13"
        assert self.run(ex.BFunc("upper", (ex.BConst("ab"),)), ()) == "AB"
        assert self.run(ex.BFunc("coalesce", (ex.BConst(None), ex.BConst(3))), ()) == 3
        assert self.run(ex.BFunc("nullif", (ex.BConst(3), ex.BConst(3))), ()) is None

    def test_extract(self):
        expr = ex.BExtract("year", ex.BConst(datetime.date(1997, 3, 1)))
        assert self.run(expr, ()) == 1997

    def test_cast(self):
        expr = ex.BCast(ex.BConst("42"), "int")
        assert self.run(expr, ()) == 42

    def test_missing_column_raises(self):
        with pytest.raises(ExecutorError):
            compile_expr(ex.BVar(9, 9), self.LAYOUT)


class TestAggregateStates:
    def test_count_star_counts_nulls(self):
        state = make_state(ex.BAgg("count", None))
        for value in (1, None, 2):
            state.accumulate(value)
        assert state.finalize() == 3

    def test_count_column_skips_nulls(self):
        state = make_state(ex.BAgg("count", ex.BVar(0, 0)))
        for value in (1, None, 2):
            state.accumulate(value)
        assert state.finalize() == 2

    def test_sum_empty_is_null(self):
        assert make_state(ex.BAgg("sum", ex.BVar(0, 0))).finalize() is None

    def test_avg(self):
        state = make_state(ex.BAgg("avg", ex.BVar(0, 0)))
        for value in (2, 4, None):
            state.accumulate(value)
        assert state.finalize() == 3

    def test_min_max(self):
        lo = make_state(ex.BAgg("min", ex.BVar(0, 0)))
        hi = make_state(ex.BAgg("max", ex.BVar(0, 0)))
        for value in (5, None, 1, 9):
            lo.accumulate(value)
            hi.accumulate(value)
        assert (lo.finalize(), hi.finalize()) == (1, 9)

    def test_merge(self):
        a = make_state(ex.BAgg("avg", ex.BVar(0, 0)))
        b = make_state(ex.BAgg("avg", ex.BVar(0, 0)))
        a.accumulate(2)
        b.accumulate(4)
        a.merge(b)
        assert a.finalize() == 3

    def test_distinct(self):
        state = make_state(ex.BAgg("count", ex.BVar(0, 0), distinct=True))
        for value in (1, 1, 2, None, 2):
            state.accumulate(value)
        assert state.finalize() == 2

    def test_distinct_merge_rejected(self):
        a = make_state(ex.BAgg("sum", ex.BVar(0, 0), distinct=True))
        b = make_state(ex.BAgg("sum", ex.BVar(0, 0), distinct=True))
        with pytest.raises(ExecutorError):
            a.merge(b)


class TestOperatorsEndToEnd:
    def test_filter_keeps_only_true(self, session):
        rows = session.query("SELECT a FROM nums WHERE b > 20")
        # b is NULL every 7th row: NULL comparisons must not pass
        assert all(a % 7 != 0 for (a,) in rows)

    def test_left_join_pads_nulls(self, session):
        session.execute(
            "CREATE TABLE rhs (a INT, tag TEXT) DISTRIBUTED BY (a)"
        )
        session.execute("INSERT INTO rhs VALUES (1, 'one'), (3, 'three')")
        rows = session.query(
            "SELECT n.a, r.tag FROM nums n LEFT JOIN rhs r ON n.a = r.a "
            "WHERE n.a < 5 ORDER BY n.a"
        )
        assert rows == [
            (0, None),
            (1, "one"),
            (2, None),
            (3, "three"),
            (4, None),
        ]

    def test_count_left_join_null_column(self, session):
        rows = session.query(
            "SELECT count(r.tag) FROM nums n LEFT JOIN rhs r ON n.a = r.a"
        )
        assert rows == [(2,)]

    def test_sort_nulls_last_asc(self, session):
        rows = session.query("SELECT b FROM nums ORDER BY b LIMIT 40")
        values = [r[0] for r in rows]
        nulls_at = [i for i, v in enumerate(values) if v is None]
        assert nulls_at == list(range(len(values) - len(nulls_at), len(values)))

    def test_sort_desc_nulls_first(self, session):
        rows = session.query("SELECT b FROM nums ORDER BY b DESC LIMIT 5")
        assert rows[0][0] is None

    def test_sort_multi_key_stable_with_nulls(self, session):
        rows = session.query(
            "SELECT t, b, a FROM nums ORDER BY t NULLS LAST, b DESC, a"
        )

        def reference_key(row):
            t, b, a = row
            return (
                (1, t) if t is not None else (2, ""),  # asc, NULLS LAST
                (0,) if b is None else (1, -b),        # desc, NULLS FIRST
                a,
            )

        assert rows == sorted(rows, key=reference_key)
        # Same multiset of rows, and ties on (t, b) keep ascending a —
        # i.e. the later keys really are applied, not just the first.
        assert sorted(rows, key=repr) == sorted(
            session.query("SELECT t, b, a FROM nums"), key=repr
        )
        for prev, cur in zip(rows, rows[1:]):
            if prev[0] == cur[0] and prev[1] == cur[1]:
                assert prev[2] < cur[2]

    def test_limit(self, session):
        assert len(session.query("SELECT a FROM nums LIMIT 7")) == 7

    def test_group_by_includes_null_group(self, session):
        rows = session.query("SELECT t, count(*) FROM nums GROUP BY t")
        groups = {r[0] for r in rows}
        assert None in groups

    def test_aggregate_over_empty_input(self, session):
        rows = session.query("SELECT count(*), sum(a), min(a) FROM nums WHERE a < 0")
        assert rows == [(0, None, None)]

    def test_group_by_empty_input_no_rows(self, session):
        rows = session.query(
            "SELECT t, count(*) FROM nums WHERE a < 0 GROUP BY t"
        )
        assert rows == []

    def test_semi_join_no_duplicates(self, session):
        session.execute("CREATE TABLE dups (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO dups VALUES (1), (1), (1), (2)")
        rows = session.query(
            "SELECT a FROM nums WHERE a IN (SELECT a FROM dups) ORDER BY a"
        )
        assert rows == [(1,), (2,)]

    def test_anti_join(self, session):
        rows = session.query(
            "SELECT a FROM nums WHERE a NOT IN (SELECT a FROM dups) AND a < 5 "
            "ORDER BY a"
        )
        assert rows == [(0,), (3,), (4,)]

    def test_date_arithmetic_in_where(self, session):
        rows = session.query(
            "SELECT count(*) FROM nums "
            "WHERE d < date '1995-01-01' + interval '2' month"
        )
        assert rows[0][0] > 0

    def test_no_from_select(self, session):
        assert session.query("SELECT 1 + 2, 'x' || 'y'") == [(3, "xy")]

    def test_scalar_functions_in_query(self, session):
        rows = session.query(
            "SELECT substring(t from 1 for 3) FROM nums WHERE t IS NOT NULL LIMIT 1"
        )
        assert rows[0][0] == "str"
