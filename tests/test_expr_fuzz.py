"""Fuzzed expressions agree in row and batch mode under faults, with
constants beside typed and list columns. Constant expressions through
the whole pipeline (lexer -> parser -> analyzer -> compiler ->
evaluation) are checked against the outside reference in
``tests/test_reference.py``."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultEvent, FaultInjector, FaultPlan
from repro.engine import Engine

# ---------------------------------------------------------------------------
# Fuzzed expressions in row AND batch mode under a fault schedule: the
# differential invariant (identical rows, identical simulated cost) must
# hold even when every scan is reading around a dead DataNode and a dead
# segment's failover host.
# ---------------------------------------------------------------------------

FAULT_FUZZ_ROWS = [(i, (i * 7) % 23 - 11) for i in range(600)]


def _faulted_session(mode):
    """An engine in ``mode`` with a dead DataNode (scans must fall back
    to surviving replicas) and a dead segment (dispatch must use its
    failover assignment) — the same deterministic faults for both modes."""
    engine = Engine(
        num_segment_hosts=3,
        segments_per_host=2,
        seed=0,
        block_size=16 * 1024,
        executor_mode=mode,
    )
    session = engine.connect()
    session.execute("CREATE TABLE fuzz (a INTEGER, b INTEGER) DISTRIBUTED BY (a)")
    session.load_rows("fuzz", FAULT_FUZZ_ROWS)
    injector = FaultInjector(
        engine,
        FaultPlan(
            [
                FaultEvent(0.0, "kill_segment", 2),
                FaultEvent(0.0, "fail_datanode", "host0"),
            ]
        ),
    )
    engine.attach_chaos(injector)
    injector.drain()  # apply the faults before the fuzz queries
    session.query("SELECT count(*) FROM fuzz")  # dispatch assigns failover
    assert engine.segments[2].acting_host is not None
    assert not engine.hdfs.datanodes["host0"].alive
    return session


@pytest.fixture(scope="module")
def row_faulted():
    return _faulted_session("row")


@pytest.fixture(scope="module")
def batch_faulted():
    return _faulted_session("batch")


@st.composite
def column_arithmetic(draw, depth=0):
    """Arithmetic over the fuzz table's columns; the oracle is the other
    executor mode, not Python."""
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from(["a", "b"]))
        value = draw(st.integers(-20, 20))
        return f"({value})" if value < 0 else str(value)
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(column_arithmetic(depth=depth + 1))
    right = draw(column_arithmetic(depth=depth + 1))
    return f"({left} {op} {right})"


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(expr=column_arithmetic(), ascending=st.booleans())
def test_fuzzed_exprs_row_vs_batch_under_faults(
    row_faulted, batch_faulted, expr, ascending
):
    order = "ASC" if ascending else "DESC"
    sql = (
        f"SELECT a, {expr} FROM fuzz"
        f" WHERE ({expr}) % 5 <> 1 ORDER BY a {order}"
    )
    a = row_faulted.execute(sql)
    b = batch_faulted.execute(sql)
    assert a.rows == b.rows  # exact: values AND order
    assert a.cost.seconds == b.cost.seconds


def test_mid_query_restart_preserves_differential():
    """A segment killed mid-query forces a restart in both modes; the
    retried results must still match bit-for-bit, including the
    simulated backoff charge."""
    results = {}
    for mode in ("row", "batch"):
        engine = Engine(
            num_segment_hosts=3,
            segments_per_host=2,
            seed=0,
            block_size=16 * 1024,
            executor_mode=mode,
        )
        session = engine.connect()
        session.execute(
            "CREATE TABLE fuzz (a INTEGER, b INTEGER) DISTRIBUTED BY (a)"
        )
        session.load_rows("fuzz", FAULT_FUZZ_ROWS)
        engine.attach_chaos(
            FaultInjector(
                engine, FaultPlan([FaultEvent(1e-9, "kill_segment", 1)])
            )
        )
        results[mode] = session.execute(
            "SELECT count(*), sum(b), min(a * b) FROM fuzz"
        )
        assert results[mode].retries >= 1
    assert results["row"].rows == results["batch"].rows
    assert results["row"].cost.seconds == results["batch"].cost.seconds


# ---------------------------------------------------------------------------
# A constant on the left of + - *: ``1 - l_discount`` and ``1 + l_tax``
# apply the constant once per row without stepping a constant column
# alongside the other side; a column of intervals still goes through
# ``sql_arith``.
# ---------------------------------------------------------------------------

import datetime

from repro.columnar import ConstVector
from repro.columnar.vector import float_vector, int_vector
from repro.executor.expr import compile_expr, compile_expr_batch
from repro.planner import exprs as ex

ONE_COLUMN = [("r", 0, 0)]


@pytest.mark.parametrize("typed", [False, True], ids=["list", "vector"])
@pytest.mark.parametrize(
    "values",
    [[3, -2, 0, 2**40], [0.25, -0.0, 1e300, 0.1], [None, 4, None], [None, 0.5], [None, None]],
    ids=["ints", "floats", "ints-nulls", "floats-nulls", "all-null"],
)
def test_constant_minus_column(backend, monkeypatch, values, typed):
    expr = ex.BOp("-", ex.BConst(1), ex.BVar(0, 0))
    column = values
    if typed:
        make = float_vector if any(type(v) is float for v in values) else int_vector
        column = make([0 if v is None else v for v in values], [v is None for v in values])

    def step(_):
        raise AssertionError("the constant was iterated per row")

    monkeypatch.setattr(ConstVector, "__iter__", step)
    out = list(compile_expr_batch(expr, ONE_COLUMN)([column], len(values), None))
    row_fn = compile_expr(expr, ONE_COLUMN)
    assert out == [row_fn((v,)) for v in values]
    assert out == [None if v is None else 1 - v for v in values]
    assert list(map(type, out)) == [type(row_fn((v,))) for v in values]


def test_constant_plus_a_column_of_intervals(backend):
    """``date '1995-01-31' + CASE WHEN x > 0 THEN INTERVAL '1' day ELSE
    INTERVAL '1' month END``: the right side is a column of intervals,
    which only ``sql_arith`` can add to a date."""
    expr = ex.BOp(
        "+",
        ex.BConst(datetime.date(1995, 1, 31)),
        ex.BCase(
            ((ex.BOp(">", ex.BVar(0, 0), ex.BConst(0)), ex.BInterval(1, "day")),),
            ex.BInterval(1, "month"),
        ),
    )
    values = [1, 0, None, 5]
    row_fn = compile_expr(expr, ONE_COLUMN)
    expected = [row_fn((v,)) for v in values]
    assert expected == [
        datetime.date(1995, 2, 1), datetime.date(1995, 2, 28),
        datetime.date(1995, 2, 28), datetime.date(1995, 2, 1),
    ]
    batch_fn = compile_expr_batch(expr, ONE_COLUMN)
    for column in (values, int_vector([v or 0 for v in values], [v is None for v in values])):
        assert list(batch_fn([column], len(values), None)) == expected
