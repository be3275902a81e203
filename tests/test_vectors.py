"""Typed column vectors: unit tests, platform parity, and query-level
edge cases for the vectorized execution path.

Covers the contracts the differential suite leans on:

* vectors hand out Python scalars only (never NumPy scalars),
* NULLs ride an explicit mask (or code -1 for dictionary columns),
* without NumPy every constructor hands out the plain list of the same
  values, and the two column representations are interchangeable,
* selection vectors, all-NULL columns, 0/1-row batches at storage block
  boundaries, and dictionary columns crossing motions all round-trip
  bit-identically between the row and batch executors, and
* compiled kernels are memoized per (plan node, layout) on the engine.
"""

import datetime

import pytest

from repro import Engine
from repro.catalog.schema import Column, DataType, TypeKind
from repro.columnar import vector
from repro.columnar.vector import (
    ConstVector,
    Vector,
    bool_vector,
    dict_vector,
    float_vector,
    int_vector,
    true_selection,
)
from repro.storage.base import ColumnCodec


def force_fallback(monkeypatch):
    """Stand the NumPy-less platform up: constructors hand out lists and
    every kernel takes its generic arm."""
    monkeypatch.setattr(vector, "_np", None)


def _is_typed(col, fallback=False):
    """Asserts the one rule of which representation a constructor or a
    decode hands out — a vector with NumPy, a list without — and says
    which it was, for the assertions only a vector can answer."""
    typed = not fallback and vector.numpy_module() is not None
    assert (isinstance(col, Vector) if typed else type(col) is list), type(col)
    return typed


# ---------------------------------------------------------------- unit tests


class TestVectorBasics:
    def test_python_scalars_only(self):
        iv = int_vector([1, 2, 3])
        fv = float_vector([0.5, 1.5])
        assert [type(v) for v in iv] == [int, int, int]
        assert [type(v) for v in fv] == [float, float]
        assert type(iv[0]) is int and type(fv[1]) is float

    def test_null_mask(self):
        iv = int_vector([1, 0, 3], mask=[False, True, False])
        assert list(iv) == [1, None, 3]
        assert iv[1] is None and iv[2] == 3
        if _is_typed(iv):
            assert iv.has_nulls

    def test_empty_vector(self):
        iv = int_vector([])
        assert len(iv) == 0 and list(iv) == []
        if _is_typed(iv):
            assert not iv.has_nulls
        assert list(vector.take(iv, [])) == []

    def test_take_and_gather(self):
        fv = float_vector([0.0, 1.0, 2.0, 3.0], mask=[False, True, False, False])
        taken = vector.take(fv, [3, 1])
        assert type(taken) is type(fv)
        assert list(taken) == [3.0, None]
        assert vector.gather(fv, [0, 2]) == [0.0, 2.0]

    def test_dict_vector(self):
        dv = dict_vector([0, 1, -1, 0], ["a", "b"])
        assert list(dv) == ["a", "b", None, "a"]
        assert dv[2] is None and dv[3] == "a"
        taken = vector.take(dv, [0, 2])
        assert list(taken) == ["a", None]
        if _is_typed(dv):
            assert dv.has_nulls
            assert taken.dictionary is dv.dictionary  # shared, not copied
            assert dv.code_lut(str.upper) == ["A", "B"]

    def test_dict_strings_are_shared_objects(self):
        dv = dict_vector([0, 0, 0], ["shared"])
        a, b, c = dv
        assert a is b is c  # one decoded str, not three

    def test_const_vector(self):
        cv = ConstVector(None, 4)
        assert len(cv) == 4 and cv.tolist() == [None] * 4
        assert cv.take([1, 2]).n == 2
        assert cv.gather([0, 3]) == [None, None]

    def test_bool_vector_three_valued(self):
        bv = bool_vector([True, False, True], mask=[False, False, True])
        assert list(bv) == [True, False, None]

    def test_true_selection_dense_and_selected(self):
        bv = bool_vector([True, False, True], mask=[False, False, True])
        assert true_selection(bv, 3, None) == [0]
        # mask aligned with a selection: results map back to input rows
        assert true_selection(bv, 10, [4, 6, 8]) == [4]
        assert true_selection([True, None, True], 3, None) == [0, 2]

    def test_true_selection_returns_python_ints(self):
        sel = true_selection(bool_vector([True, True]), 2, None)
        assert sel == [0, 1]
        assert all(type(i) is int for i in sel)


def _roundtrip(values, column):
    codec = ColumnCodec(column)
    return codec.decode(codec.encode(values), len(values))


INT_COL = Column("a", DataType(TypeKind.INT8))
FLOAT_COL = Column("f", DataType(TypeKind.FLOAT8))
TEXT_COL = Column("t", DataType(TypeKind.TEXT))


class TestDecodeRoundTrip:
    @pytest.mark.parametrize("fallback", [False, True])
    def test_int_with_nulls(self, monkeypatch, fallback):
        if fallback:
            force_fallback(monkeypatch)
        values = [5, None, -(2**62), None, 0]
        vec = _roundtrip(values, INT_COL)
        assert list(vec) == values
        if _is_typed(vec, fallback):
            assert vec.mask.tolist() == [v is None for v in values]

    @pytest.mark.parametrize("fallback", [False, True])
    def test_float_dense(self, monkeypatch, fallback):
        if fallback:
            force_fallback(monkeypatch)
        values = [0.0, -1.5, 3.25e300]
        vec = _roundtrip(values, FLOAT_COL)
        assert list(vec) == values
        if _is_typed(vec, fallback):
            assert vec.mask is None

    @pytest.mark.parametrize("fallback", [False, True])
    def test_text_dictionary(self, monkeypatch, fallback):
        if fallback:
            force_fallback(monkeypatch)
        values = ["x", "y", None, "x", "y", "x"]
        vec = _roundtrip(values, TEXT_COL)
        assert list(vec) == values
        if _is_typed(vec, fallback):
            # Repeats dedup onto one dictionary entry.
            assert sorted(vec.dictionary) == ["x", "y"]
        else:
            # ... and without a dictionary vector, onto one str object.
            assert vec[0] is vec[3] is vec[5] and vec[1] is vec[4]

    def test_all_null_column(self):
        values = [None, None, None]
        assert list(_roundtrip(values, INT_COL)) == values
        assert list(_roundtrip(values, TEXT_COL)) == values

    def test_empty_column(self):
        assert list(_roundtrip([], FLOAT_COL)) == []


# ------------------------------------------------------------- query corpus


def _session(mode, *, rows, num_hosts=2, per_host=2):
    engine = Engine(
        num_segment_hosts=num_hosts, segments_per_host=per_host,
        executor_mode=mode,
    )
    s = engine.connect()
    s.execute(
        "CREATE TABLE vt (a INT NOT NULL, b INT, t TEXT, f FLOAT) "
        "DISTRIBUTED BY (a)"
    )
    s.load_rows("vt", rows)
    return s


def _edge_rows(n):
    return [
        (
            i,
            None,  # all-NULL int column
            None if i % 5 == 0 else f"tag{i % 3}",
            i / 7.0,
        )
        for i in range(n)
    ]


EDGE_QUERIES = [
    # Empty selection: no row survives, on every segment.
    "SELECT a, t FROM vt WHERE a < 0",
    # All-NULL column through filter, aggregation, and output.
    "SELECT b FROM vt WHERE b IS NULL ORDER BY a",
    "SELECT count(b), count(*), sum(b), avg(b) FROM vt",
    # Dictionary columns through group-by and motions.
    "SELECT t, count(*), sum(a) FROM vt GROUP BY t ORDER BY t NULLS LAST",
    # Dictionary columns as join keys (redistribute motion round-trip).
    "SELECT x.a, y.t FROM vt x JOIN vt y ON x.t = y.t"
    " WHERE x.a < 9 ORDER BY x.a, y.a",
    # Selection + late materialization + LIMIT abandonment.
    "SELECT t, f FROM vt WHERE f > 1.0 ORDER BY a LIMIT 3",
]


@pytest.mark.parametrize("nrows", [0, 1, 1023, 1024, 1025])
def test_block_boundary_row_counts(nrows):
    """0/1-row tables and batches straddling the 1024-row block edge."""
    rows = _edge_rows(nrows)
    row_s = _session("row", rows=rows)
    batch_s = _session("batch", rows=rows)
    for sql in EDGE_QUERIES:
        a = row_s.execute(sql)
        b = batch_s.execute(sql)
        assert a.rows == b.rows, sql
        assert a.cost.seconds == b.cost.seconds, sql


def test_dict_column_crosses_motion_intact():
    """Strings from dictionary vectors must hash/route/compare exactly
    like row-path strings across a redistribute motion."""
    rows = [(i, i % 2, f"k{i % 13}", float(i)) for i in range(200)]
    row_s = _session("row", rows=rows)
    batch_s = _session("batch", rows=rows)
    sql = (
        "SELECT t, count(*), sum(a) FROM vt GROUP BY t ORDER BY t"
    )
    a = row_s.execute(sql)
    b = batch_s.execute(sql)
    assert a.rows == b.rows
    assert a.cost.seconds == b.cost.seconds
    assert len(b.rows) == 13


# -------------------------------------------------------- backend parity


def test_numpy_vs_fallback_full_corpus(monkeypatch):
    """CO tables decoded to lists (no NumPy) must match CO tables decoded
    to typed vectors on the whole operator corpus — rows and simulated
    cost."""
    from tests.test_batch_differential import EXECUTOR_QUERIES, _nums_session

    if vector.numpy_module() is None:
        pytest.skip("NumPy backend disabled; nothing to compare against")

    numpy_results = []
    s = _nums_session("batch")
    for sql in EXECUTOR_QUERIES:
        r = s.execute(sql)
        numpy_results.append((r.rows, r.cost.seconds))
    assert vector.numpy_module() is not None  # precondition of the test

    force_fallback(monkeypatch)
    s = _nums_session("batch")
    for sql, (rows, seconds) in zip(EXECUTOR_QUERIES, numpy_results):
        r = s.execute(sql)
        assert r.rows == rows, sql
        assert r.cost.seconds == seconds, sql


def test_fallback_row_vs_batch(monkeypatch):
    """Differential testing with NumPy off: both executors on lists."""
    force_fallback(monkeypatch)
    rows = _edge_rows(60)
    row_s = _session("row", rows=rows)
    batch_s = _session("batch", rows=rows)
    for sql in EDGE_QUERIES:
        a = row_s.execute(sql)
        b = batch_s.execute(sql)
        assert a.rows == b.rows, sql
        assert a.cost.seconds == b.cost.seconds, sql


# ---------------------------------------------------- kernel memoization


def test_kernels_compiled_once_per_plan_node(monkeypatch):
    """Re-dispatching a slice to N segments (and re-running the query)
    must reuse memoized kernels instead of recompiling per segment."""
    from repro.executor import slice_runner

    calls = {"batch": 0, "row": 0}
    real_batch = slice_runner.compile_expr_batch
    real_row = slice_runner.compile_expr

    def counting_batch(expr, layout, params, **form):
        calls["batch"] += 1
        return real_batch(expr, layout, params, **form)

    def counting_row(expr, layout, params):
        calls["row"] += 1
        return real_row(expr, layout, params)

    monkeypatch.setattr(slice_runner, "compile_expr_batch", counting_batch)
    monkeypatch.setattr(slice_runner, "compile_expr", counting_row)

    s = _session("batch", rows=_edge_rows(40), num_hosts=4, per_host=1)
    sql = "SELECT t, count(*), sum(a) FROM vt WHERE f >= 1.0 GROUP BY t"
    first = s.execute(sql)
    after_first = dict(calls)
    assert sum(after_first.values()) > 0
    # 4 segments ran the same slices, but each expression compiled once
    # for the whole gang — far fewer compiles than (segments × exprs).
    assert after_first["batch"] <= 8

    # A re-issued query parses a fresh plan (new expr identities), so it
    # compiles each node once more — again independent of segment count:
    # exactly the first run's compile count, not 4x it.
    second = s.execute(sql)
    assert calls["batch"] == 2 * after_first["batch"]
    assert calls["row"] == 2 * after_first["row"]
    assert second.rows == first.rows
    assert second.cost.seconds == first.cost.seconds


def test_kernel_cache_distinguishes_layouts(monkeypatch):
    """Two queries over different layouts must not collide in the cache."""
    s = _session("batch", rows=_edge_rows(40))
    a = s.execute("SELECT a FROM vt WHERE a < 5 ORDER BY a")
    b = s.execute("SELECT a, t FROM vt WHERE a < 5 ORDER BY a")
    assert [r[0] for r in a.rows] == [r[0] for r in b.rows]


def test_kernel_memo_lives_and_dies_with_its_statement(monkeypatch):
    """The memo is keyed by the identity of one statement's plan nodes,
    so it belongs to that statement: a prepared plan run again compiles
    nothing, and once 50 distinct statements are done none of their
    kernels is reachable from the engine."""
    import gc
    import weakref

    from repro.executor import slice_runner
    from repro.executor.concurrent import run_statement
    from repro.sql.parser import parse_sql

    kernels = []
    real_batch = slice_runner.compile_expr_batch

    def tracking(expr, layout, params, **form):
        fn = real_batch(expr, layout, params, **form)
        kernels.append(weakref.ref(fn))
        return fn

    monkeypatch.setattr(slice_runner, "compile_expr_batch", tracking)
    s = _session("batch", rows=_edge_rows(40), num_hosts=4, per_host=1)
    assert not hasattr(s.engine, "kernel_cache")

    # A SELECT prepared inside a caller's transaction (as INSERT ...
    # SELECT does) has no bracket of its own to close: run it twice.
    txn = s.engine.txns.begin()
    (stmt,) = parse_sql("SELECT t, count(*) FROM vt WHERE a < 7 GROUP BY t")
    prepared = s._prepare(stmt, txn)
    first = run_statement(prepared)
    compiled = len(kernels)
    assert 0 < compiled == len(prepared.ctx.kernel_cache)
    assert all(ref() is not None for ref in kernels)
    again = run_statement(prepared)
    assert len(kernels) == compiled  # every kernel came from the memo
    assert again.rows == first.rows and again.cost.seconds == first.cost.seconds
    s.engine.txns.commit(txn)

    results = [
        s.execute(f"SELECT a, f FROM vt WHERE a < {bound} AND f >= 0.5 ORDER BY a")
        for bound in range(50)
    ]
    assert len(kernels) >= compiled + 50
    del prepared, first, again, results, stmt
    gc.collect()
    assert [ref for ref in kernels if ref() is not None] == []


# ------------------------------------------- columnar motion: properties
#
# A redistribute motion places whole batches with ``hash_columns`` and
# sizes its streams with ``ColumnBatch.nbytes``; both must reproduce the
# row executor's per-row arithmetic exactly — a placement that differs
# sends a row to the wrong segment, a size that differs moves sim_s.

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.catalog.schema import hash_columns, hash_values  # noqa: E402
from repro.columnar import concat, take_columns  # noqa: E402
from repro.executor.aggregates import SumState  # noqa: E402
from repro.executor.batch import ColumnBatch  # noqa: E402
from repro.executor.expr import RowSizer  # noqa: E402

_key_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.dates(),
    st.datetimes(),
)

@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda width: st.lists(
            st.tuples(*[_key_values] * width), min_size=0, max_size=12
        )
    ),
    st.integers(min_value=1, max_value=9),
)
def test_placement_matches_hash_values(keys, num_segments):
    columns = [list(col) for col in zip(*keys)] if keys and keys[0] else []
    expected = [hash_values(key, num_segments) for key in keys]
    assert hash_columns(columns, len(keys), num_segments) == expected


@pytest.mark.parametrize("fallback", [False, True])
def test_placement_over_typed_vectors(monkeypatch, fallback):
    if fallback:
        force_fallback(monkeypatch)
    ints = [5, None, -3, 5, 2**40]
    floats = [0.0, -0.0, None, 1e300, 2.5]
    texts = ["a", None, "it's", "a", "ü"]
    columns = [
        int_vector([v or 0 for v in ints], [v is None for v in ints]),
        float_vector([0.0 if v is None else v for v in floats], [v is None for v in floats]),
        dict_vector([0, -1, 1, 0, 2], ["a", "it's", "ü"]),
        ConstVector(datetime.date(1998, 12, 1), 5),
    ]
    keys = list(zip(ints, floats, texts, [datetime.date(1998, 12, 1)] * 5))
    assert hash_columns(columns, 5, 8) == [hash_values(k, 8) for k in keys]
    for col, values in zip(columns, (ints, floats, texts)):
        assert hash_columns([col], 5, 3) == [hash_values((v,), 3) for v in values]


class _Opaque:
    """Stands in for anything the sizer has no entry for (aggregate
    transition states cross motions as plain objects)."""


_sized_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.dates(),
    st.datetimes(),
    st.tuples(st.integers(), st.text(max_size=3)),
    st.builds(_Opaque),
    st.builds(SumState),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda width: st.lists(
            st.tuples(*[_sized_values] * width), min_size=0, max_size=10
        )
    ),
    st.data(),
)
def test_stream_sizing_matches_row_sizer(rows, data):
    width = len(rows[0]) if rows else 3
    sizer = RowSizer()
    batch = ColumnBatch.from_rows(rows, width)
    assert batch.nbytes() == sum(sizer(row) for row in rows)
    if rows:
        picks = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(rows) - 1), max_size=8)
        )
        assert batch.select(picks).nbytes() == sum(sizer(rows[i]) for i in picks)


@pytest.mark.parametrize("fallback", [False, True])
def test_stream_sizing_over_typed_vectors(monkeypatch, fallback):
    if fallback:
        force_fallback(monkeypatch)
    rows = [
        (1, 0.5, "ab", True, None),
        (None, None, None, None, None),
        (2**40, -0.0, "", False, None),
        (7, 1e9, "naïve", None, None),
    ]
    columns = [
        int_vector([r[0] or 0 for r in rows], [r[0] is None for r in rows]),
        float_vector([0.0 if r[1] is None else r[1] for r in rows], [r[1] is None for r in rows]),
        dict_vector([0, -1, 1, 2], ["ab", "", "naïve"]),
        bool_vector([bool(r[3]) for r in rows], [r[3] is None for r in rows]),
        ConstVector(None, 4),
    ]
    sizer = RowSizer()
    batch = ColumnBatch(columns, 4)
    assert list(batch.to_rows()) == rows
    assert batch.nbytes() == sum(sizer(r) for r in rows)
    assert batch.select([3, 1]).nbytes() == sizer(rows[3]) + sizer(rows[1])


@pytest.mark.parametrize("fallback", [False, True])
def test_concat_and_take_keep_values_and_types(monkeypatch, fallback):
    if fallback:
        force_fallback(monkeypatch)
    a = int_vector([1, 0], [False, True])
    b = int_vector([3])
    joined = concat([a, b])
    assert list(joined) == [1, None, 3]
    _is_typed(a, fallback)
    assert type(joined) is type(a)  # buffers concatenated, still typed
    shared = dict_vector([0, 1, -1], ["x", "y"])
    same_dict = concat([vector.take(shared, [0, 2]), vector.take(shared, [1])])
    assert list(same_dict) == ["x", None, "y"]
    assert type(same_dict) is type(shared)
    other = dict_vector([0], ["z"])
    assert list(concat([shared, other])) == ["x", "y", None, "z"]  # per-block dicts
    assert concat([[1, 2], a]) == [1, 2, 1, None]  # mixed -> plain values
    assert concat([a]) is a
    cols = take_columns([a, ["p", "q"], ConstVector(9, 2), shared], [1, 0, 1])
    assert [list(c) for c in cols] == [
        [None, 1, None], ["q", "p", "q"], [9, 9, 9], ["y", "x", "y"],
    ]



def _take_column(kind, values):
    """One column of ``kind`` holding ``values`` (ints or None)."""
    mask = [v is None for v in values]
    if kind == "list":
        return list(values)
    if kind == "int":
        return int_vector([v or 0 for v in values], mask)
    if kind == "float":
        return float_vector([float(v or 0) for v in values], mask)
    if kind == "dict":
        return dict_vector([-1 if v is None else v % 3 for v in values], ["a", "b", "c"])
    return ConstVector(7, len(values))


@pytest.mark.parametrize("fallback", [False, True])
@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kinds=st.lists(
        st.sampled_from(["list", "int", "float", "dict", "const"]),
        min_size=1, max_size=5,
    ),
    n=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_take_columns_is_take_per_column(monkeypatch, fallback, kinds, n, data):
    """The shared index array and the shared ``itemgetter`` give what
    :func:`take` gives column by column, representation included, for
    selections of 0, 1 and n rows and for ``range`` selections."""
    if fallback:
        force_fallback(monkeypatch)
    values = data.draw(
        st.lists(st.one_of(st.none(), st.integers(-5, 5)), min_size=n, max_size=n)
    )
    columns = [_take_column(kind, values) for kind in kinds]
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    picks = st.sampled_from(sorted({0, 1, n} if n else {0})).flatmap(
        lambda k: st.lists(index, min_size=k, max_size=k)
    )
    spans = st.tuples(st.integers(0, n), st.integers(0, n)).map(
        lambda ends: range(min(ends), max(ends))
    )
    sel = data.draw(st.one_of(picks, spans))
    got = take_columns(columns, sel)
    want = [vector.take(col, sel) for col in columns]
    assert [type(c) for c in got] == [type(c) for c in want]
    assert [list(c) for c in got] == [list(c) for c in want]


# -------------------------------------------------------- constant folding


def test_literal_subexpressions_fold_once(monkeypatch):
    """TPC-H's ``date '...' + interval '...'`` is evaluated at compile
    time, not once per row — and a literal that raises still raises
    only when a row reaches it."""
    from repro.executor import expr
    from repro.planner import exprs as ex

    calls = []
    real = expr.add_interval
    monkeypatch.setattr(
        expr, "add_interval", lambda *a: calls.append(a) or real(*a)
    )
    bound = ex.BOp(
        "<",
        ex.BVar(0, 0),
        ex.BOp("+", ex.BConst(datetime.date(1994, 1, 31)), ex.BInterval(1, "month")),
    )
    layout = [("r", 0, 0)]
    days = [datetime.date(1994, 2, d) for d in (1, 27, 28)] + [None]
    row_fn = expr.compile_expr(bound, layout)
    batch_fn = expr.compile_expr_batch(bound, layout)
    assert len(calls) == 2  # once per compile
    assert [row_fn((d,)) for d in days] == [True, True, False, None]
    assert list(batch_fn([days], 4, None)) == [True, True, False, None]
    assert len(calls) == 2  # and never again

    guarded = ex.BOp(
        "and",
        ex.BOp(">", ex.BVar(0, 0), ex.BConst(0)),
        ex.BOp("=", ex.BOp("/", ex.BConst(1), ex.BConst(0)), ex.BConst(1)),
    )
    row_fn = expr.compile_expr(guarded, layout)  # compiling must not raise
    batch_fn = expr.compile_expr_batch(guarded, layout)
    assert row_fn((0,)) is False
    assert list(batch_fn([[0, -1]], 2, None)) == [False, False]
    with pytest.raises(expr.ExecutorError, match="division by zero"):
        row_fn((1,))
    with pytest.raises(expr.ExecutorError, match="division by zero"):
        batch_fn([[0, 1]], 2, None)
