"""ANALYZE folds column blocks; these tests hold it to the row-wise
statistics it replaced.

``reference_table_stats`` is the old ``TableStats.from_rows`` /
``ColumnStats.from_values``, moved here verbatim: build every row, pull
each column back out, walk it value by value. The accumulators must
produce a ``TableStats`` that is ``==`` and ``repr``-equal to it

* for every TPC-H table in every storage format (two seeds),
* by property over every ``TypeKind`` — NULL-heavy, all-NULL, empty and
  single-row columns, ``-0.0`` / NaN floats, multi-byte strings — with
  blocks that mix typed vectors and plain lists, on both backends,
* for a partitioned parent over several children,

and the rule that lets the distinct set hold values instead of reprs is
pinned where it could go wrong (``1`` / ``True`` / ``1.0`` across
blocks, ``-0.0`` against ``0.0``, NaN).
"""

import datetime
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.catalog.stats import ColumnAccumulator, ColumnStats, TableStats
from repro.columnar import vector
from repro.storage import table as table_files
from repro.storage.base import rows_from_blocks
from repro.tpch import generate, load_tpch
from repro.tpch.schema import TABLE_NAMES

from tests.test_codec import tables


#: The backend fixture only pins the backend: nothing to reset per input.
_FIXTURE_OK = [HealthCheck.function_scoped_fixture]


# ------------------------------------------------------ row-wise reference
def reference_column_stats(values) -> ColumnStats:
    non_null = [v for v in values if v is not None]
    if not values:
        return ColumnStats()
    widths = [len(v) if isinstance(v, (str, bytes)) else 8 for v in non_null]
    comparable = non_null
    try:
        lo = min(comparable) if comparable else None
        hi = max(comparable) if comparable else None
    except TypeError:
        lo = hi = None
    return ColumnStats(
        n_distinct=float(len(set(map(repr, non_null)))),
        null_frac=1.0 - len(non_null) / len(values),
        min_value=lo,
        max_value=hi,
        avg_width=sum(widths) / len(widths) if widths else 8.0,
    )


def reference_table_stats(rows, column_names) -> TableStats:
    columns = {
        name: reference_column_stats([row[i] for row in rows])
        for i, name in enumerate(column_names)
    }
    total = sum(
        sum(len(v) if isinstance(v, (str, bytes)) else 8 for v in row if v is not None)
        for row in rows
    )
    return TableStats(row_count=float(len(rows)), total_bytes=float(total), columns=columns)


def assert_same_stats(stats: TableStats, reference: TableStats) -> None:
    assert repr(stats) == repr(reference)
    # A NaN minimum is not == itself; repr above has compared it.
    nan_free = all(
        c.min_value == c.min_value and c.max_value == c.max_value
        for c in reference.columns.values()
    )
    if nan_free:
        assert stats == reference


def stored_against_reference(session, name: str) -> TableStats:
    """ANALYZE ``name``, compare what the catalog now holds with the
    reference over the same rows in the same scan order."""
    engine = session.engine
    session.execute(f"ANALYZE {name}")
    txn = engine.txns.begin()
    try:
        snapshot = txn.statement_snapshot()
        relation = engine.catalog.lookup_relation(name, snapshot)
        rows = list(
            rows_from_blocks(
                table_files.read(engine, relation, snapshot),
                len(relation["schema"].columns),
            )
        )
        stats = engine.catalog.get_stats(name, snapshot)
    finally:
        engine.txns.commit(txn)
    assert_same_stats(stats, reference_table_stats(rows, relation["schema"].column_names))
    return stats


# ------------------------------------------------------------------- TPC-H
@pytest.mark.parametrize("seed", (2, 7))
@pytest.mark.parametrize("storage", ("ao", "co", "parquet"))
def test_tpch_tables_match_the_reference(storage, seed, backend):
    engine = repro.Engine(num_segment_hosts=2, segments_per_host=2)
    session = engine.connect()
    data = load_tpch(
        session, storage_format=storage, analyze=False,
        data=generate(0.002, seed=seed),
    )
    for table in TABLE_NAMES:
        stats = stored_against_reference(session, table)
        assert stats.row_count == len(getattr(data, table))


# ---------------------------------------------------------------- property
def _as_blocks(columns, cuts, typed):
    """``columns`` (lists of coerced values) cut into blocks at ``cuts``,
    each block's vectors as storage would hand them out when ``typed``
    says so (IntVector / FloatVector with a mask, DictVector) and as
    plain lists otherwise."""
    count = len(columns[0]) if columns else 0
    edges = sorted({0, count, *(c for c in cuts if c < count)})
    blocks = []
    for block_no, (start, end) in enumerate(zip(edges, edges[1:])):
        vectors = {}
        for i, column in enumerate(columns):
            values = column[start:end]
            if typed[(block_no + i) % len(typed)]:
                values = _typed(values)
            vectors[i] = values
        blocks.append((end - start, vectors))
    return blocks


def _typed(values):
    kinds = {type(v) for v in values if v is not None}
    mask = [v is None for v in values]
    any_null = any(mask)
    if kinds == {int} and all(-(2**63) <= v < 2**63 for v in values if v is not None):
        return vector.int_vector([0 if v is None else v for v in values],
                                 mask if any_null else None)
    if kinds == {float}:
        return vector.float_vector([0.0 if v is None else v for v in values],
                                   mask if any_null else None)
    if kinds == {str}:
        dictionary = list(dict.fromkeys(v for v in values if v is not None))
        code_of = {v: c for c, v in enumerate(dictionary)}
        return vector.dict_vector([-1 if v is None else code_of[v] for v in values],
                                  dictionary)
    return values


@settings(max_examples=80, deadline=None, suppress_health_check=_FIXTURE_OK)
@given(
    table=tables(),
    cuts=st.lists(st.integers(1, 1029), max_size=3),
    typed=st.lists(st.booleans(), min_size=1, max_size=4),
)
def test_accumulators_match_the_reference(backend, table, cuts, typed):
    schema, raw_rows = table
    rows = schema.row_codec().coerce_rows(raw_rows)
    columns = [list(column) for column in zip(*rows)] or [[] for _ in schema.columns]
    blocks = _as_blocks(columns, cuts, typed)
    stats = TableStats.from_blocks(blocks, schema.column_names)
    reference = reference_table_stats(
        list(rows_from_blocks(blocks, len(schema.columns))), schema.column_names
    )
    assert reference.row_count == len(rows)
    assert_same_stats(stats, reference)


_FLOATS = st.one_of(
    st.floats(),  # NaN, infinities, subnormals, -0.0
    st.sampled_from((0.0, -0.0, math.nan, -math.nan, 1.5, -1.5, math.inf)),
)


@settings(max_examples=120, deadline=None, suppress_health_check=_FIXTURE_OK)
@given(
    values=st.lists(st.one_of(st.none(), _FLOATS), max_size=40),
    cuts=st.lists(st.integers(1, 39), max_size=4),
    typed=st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_float_columns_are_bit_exact(backend, values, cuts, typed):
    """-0.0 and 0.0 are two values, every NaN is one, and the minimum
    is Python's (first of equals, NaN by position) wherever the blocks
    are cut."""
    blocks = _as_blocks([values], cuts, typed)
    assert_same_stats(
        TableStats.from_blocks(blocks, ["f"]),
        reference_table_stats([(v,) for v in values], ["f"]),
    )


_MIXED = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from((0.0, -0.0, 1.0, 2.5, math.nan)),
    st.sampled_from(("", "1", "é", "日本", "a'b", "a\\b")),
    st.sampled_from((b"", b"1")),
    st.dates(datetime.date(2000, 1, 1), datetime.date(2000, 1, 4)),
    st.sampled_from(((1,), (1.0,))),  # not a stored type: counted by repr
)


@settings(max_examples=150, deadline=None, suppress_health_check=_FIXTURE_OK)
@given(
    values=st.lists(_MIXED, max_size=30),
    cuts=st.lists(st.integers(1, 29), max_size=4),
    typed=st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_columns_of_mixed_types_match_the_reference(backend, values, cuts, typed):
    """Nothing stored looks like this, but the rule must hold anyway:
    values that are equal and repr differently (1, True, 1.0) are never
    merged, in one block or across blocks, and a column Python cannot
    order has no minimum."""
    blocks = _as_blocks([values], cuts, typed)
    assert_same_stats(
        TableStats.from_blocks(blocks, ["m"]),
        reference_table_stats([(v,) for v in values], ["m"]),
    )


# ------------------------------------------------------- the NDV rule, pinned
def _fold(*blocks) -> ColumnStats:
    accumulator = ColumnAccumulator()
    for block in blocks:
        accumulator.add(block)
    return accumulator.result()


def test_equal_values_of_different_types_stay_distinct_across_blocks():
    assert _fold([1, 2], [True]).n_distinct == 3.0  # 1, 2, True
    assert _fold([True], [1, 2]).n_distinct == 3.0
    assert _fold([1], [1.0]).n_distinct == 2.0
    assert _fold([1, True, 1.0]).n_distinct == 3.0
    assert _fold([1, 2], [1, 3]).n_distinct == 3.0
    assert _fold(["1"], [1]).n_distinct == 2.0
    assert _fold([b"1"], ["1"]).n_distinct == 2.0
    same_day = datetime.date(2000, 1, 1)
    assert _fold([same_day], [datetime.datetime(2000, 1, 1)]).n_distinct == 2.0
    assert _fold([same_day], [datetime.date(2000, 1, 1)]).n_distinct == 1.0


def test_float_zero_signs_and_nans(backend):
    nan = math.nan
    for block in ([0.0, -0.0, nan, -nan, float("nan")],
                  vector.float_vector([0.0, -0.0, nan, -nan, float("nan")])):
        stats = _fold(block)
        assert stats.n_distinct == 3.0  # 0.0, -0.0, nan
        assert repr(stats.min_value) == "0.0" and repr(stats.max_value) == "0.0"
    assert repr(_fold([-0.0, 0.0]).min_value) == "-0.0"
    assert repr(_fold(vector.float_vector([-0.0]), [0.0]).max_value) == "-0.0"
    # A NaN in first place is Python's minimum and maximum; later it is not.
    assert math.isnan(_fold([nan], vector.float_vector([1.0, -5.0])).min_value)
    assert _fold(vector.float_vector([3.0]), [nan, 1.0]).min_value == 1.0
    assert _fold([0.0], vector.float_vector([-0.0])).n_distinct == 2.0


def test_empty_single_row_and_all_null_columns(backend):
    assert _fold() == ColumnStats()
    assert TableStats.from_blocks([], ["a", "b"]) == reference_table_stats([], ["a", "b"])
    assert _fold([None, None]) == reference_column_stats([None, None])
    assert _fold(["é"]) == reference_column_stats(["é"])  # one character wide
    assert _fold(vector.int_vector([0, 0], [True, True])) == reference_column_stats(
        [None, None]
    )


def test_a_fold_leaves_no_python_list_on_the_vector(backend):
    """The blocks ANALYZE reads stay in the block cache: the list a fold
    walks must not stay on their vectors (``tolist`` would keep it)."""
    blocks = [
        vector.int_vector([3, 0, 2], [False, True, False]),
        vector.float_vector([1.5, -0.0]),
        vector.dict_vector([1, -1, 0], ["a", "é"]),
    ]
    for block in blocks:
        stats = _fold(block)
        if backend == "numpy":
            assert block._values is None
        else:  # no vector to leave a list on: the block is the list
            assert type(block) is list
        assert stats == reference_column_stats(list(block))


# ------------------------------------------------------------- partitioned
@pytest.mark.parametrize("storage", ("row", "column", "parquet"))
def test_partitioned_parent_folds_every_child(storage, backend):
    engine = repro.Engine(num_segment_hosts=2, segments_per_host=2)
    session = engine.connect()
    session.execute(
        "CREATE TABLE sales (id INT NOT NULL, region TEXT, amount DECIMAL(10,2), "
        f"day DATE) WITH (appendonly=true, orientation={storage}) "
        "DISTRIBUTED BY (id) PARTITION BY RANGE (day) "
        "(START (date '2001-01-01') END (date '2001-05-01') "
        "EVERY (INTERVAL '1 month'))"
    )
    regions = ("north", "süd", None, "east")
    session.load_rows("sales", [
        (i, regions[i % 4], None if i % 7 == 0 else i * 1.005,
         datetime.date(2001, 1 + i % 4, 1 + i % 28))
        for i in range(1500)
    ])
    stats = stored_against_reference(session, "sales")
    assert stats.row_count == 1500.0
    assert stats.columns["region"].null_frac == 0.25
