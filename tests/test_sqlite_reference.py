"""The block decoders against the outside reference (``repro.bench.reference``).

SF 0.001 ``lineitem`` is loaded into the reference and into the three
formats the ``scan_cold`` benchmark reads. The benchmark's four scan shapes run on all four
tables, once for each way a block enters the block cache:

* ``decoded`` — ``scan_cold``'s 128 KiB cache, emptied after the load,
  so every block is decoded from its bytes on a miss: fixed-width struct
  runs, length-prefixed strings, dictionary-coded chunks, the day memo;
* ``written`` — a cache that holds everything, read straight after the
  load, so every first read takes the values the writer left instead.

Both are checked against rows that never went through either. The
``load_write`` benchmark's shape — ``orders`` loaded in four chunks, ten
one-row INSERTs and one rolled back, then ``ANALYZE`` and its two
read-backs — runs on its three format+codec pairs the same way. So do
selective ``SELECT *``s over a table with NULLs in every nullable kind,
whose filters keep some, none or all rows of a block: the columns a
filter does not read are converted at the kept rows only.

Answers are compared by ``reference.mismatch``: in ``ORDER BY`` order
where there is one, floats to its relative tolerance, because the two
engines add in different orders.
"""

import pytest

import repro
from repro.bench.reference import Reference
from repro.tpch import create_table_sql, generate
from tests.test_block_cache import LATE_DDL, NULL_ROWS, ORIENTATION

SCALE = 0.001
SEED = 2
FORMATS = (("ao", "zlib1"), ("co", "zlib5"), ("parquet", "snappy"))

#: ``scan_cold``'s four shapes, restated.
SHAPES = {
    "q6_filter_sum": (
        "SELECT sum(l_extendedprice * l_discount) FROM {t} "
        "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' "
        "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
    ),
    "q1_group_agg": (
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), "
        "avg(l_discount), count(*) FROM {t} WHERE l_shipdate <= DATE '1998-09-02' "
        "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
    ),
    "count_one_column": "SELECT count(l_orderkey) FROM {t}",
    "wide_selective": (
        "SELECT * FROM {t} WHERE l_quantity = 1 AND l_discount = 0.1 "
        "ORDER BY l_orderkey, l_linenumber"
    ),
}

#: ``load_write``'s formats, its one-row INSERT and its two read-backs.
LOAD_WRITE_FORMATS = (("ao", "none"), ("co", "zlib5"), ("parquet", "snappy"))
ONE_ROW = (
    "INSERT INTO {t} VALUES ({key}, {custkey}, 'O', {price}, '1995-06-17', "
    "'1-URGENT', 'Clerk#000000001', 0, 'bench row {i}')"
)
READ_BACKS = {
    "count_sum": "SELECT count(*), sum(o_totalprice) FROM {t}",
    "by_priority": (
        "SELECT o_orderpriority, count(*) FROM {t} "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority"
    ),
}


def _create(session, table, name, storage, compression):
    session.execute(
        create_table_sql(table, storage, compression).replace(
            f"CREATE TABLE {table} ", f"CREATE TABLE {name} ", 1
        )
    )


@pytest.fixture(scope="module")
def data():
    return generate(SCALE, seed=SEED)


def _load(data, cache_bytes):
    """(repro session, engine, reference): SF 0.001 ``lineitem`` in the
    three formats behind a cache of ``cache_bytes``, and in the reference
    as ``lineitem_ao``."""
    engine = repro.Engine(
        num_segment_hosts=2, segments_per_host=2, block_cache_bytes=cache_bytes
    )
    session = engine.connect()
    for storage, compression in FORMATS:
        name = f"lineitem_{storage}"
        _create(session, "lineitem", name, storage, compression)
        session.load_rows(name, data.lineitem)
    reference = Reference()
    reference.load(engine, "lineitem_ao", data.lineitem)
    return session, engine, reference


@pytest.fixture(scope="module")
def engines(data):
    """Blocks decoded from their bytes: ``scan_cold``'s 128 KiB cache,
    emptied after the load."""
    session, engine, reference = _load(data, 128 * 1024)
    engine.block_cache.clear()
    yield session, engine, reference
    reference.close()


@pytest.fixture(scope="module")
def written_engines(data):
    """Blocks read from what the writer left: a cache that holds
    everything, read straight after the load."""
    session, engine, reference = _load(data, 64 << 20)
    yield session, engine, reference
    reference.close()


def _check(session, reference, sql, table, tables):
    """``sql`` on ``table`` in the reference and on each of ``tables``."""
    answer = reference.run(sql.format(t=table))
    for name in tables:
        ours = session.execute(sql.format(t=name)).rows
        assert answer.mismatch(ours) is None, (sql, name, answer.mismatch(ours))
    return answer.rows


def _check_shapes(session, reference, storage):
    for shape, sql in SHAPES.items():
        theirs = _check(session, reference, sql, "lineitem_ao", [f"lineitem_{storage}"])
        assert theirs, f"{shape}: the reference answered nothing"


@pytest.mark.parametrize("storage", [storage for storage, _ in FORMATS])
def test_scan_shapes_agree_with_sqlite(engines, storage):
    session, engine, reference = engines
    misses = engine.block_cache.misses
    _check_shapes(session, reference, storage)
    assert engine.block_cache.misses > misses  # decoded, not only replayed
    assert engine.block_cache.written == 0


@pytest.mark.parametrize("storage", [storage for storage, _ in FORMATS])
def test_written_blocks_agree_with_sqlite(written_engines, storage):
    session, engine, reference = written_engines
    cache = engine.block_cache
    misses, written = cache.misses, cache.written
    _check_shapes(session, reference, storage)
    # Every first read took the writer's values, none decoded.
    assert cache.written - written == cache.misses - misses > 0


@pytest.mark.parametrize("storage,compression", LOAD_WRITE_FORMATS)
def test_load_write_shape_agrees_with_sqlite(data, storage, compression):
    engine = repro.Engine(num_segment_hosts=2, segments_per_host=2)
    session = engine.connect()
    name = f"orders_{storage}"
    _create(session, "orders", name, storage, compression)
    rows = data.orders
    size = -(-len(rows) // 4)
    for chunk in range(4):
        session.load_rows(name, rows[chunk * size:(chunk + 1) * size])
    custkey = rows[0][1]
    inserted = []
    for i in range(10):
        key, price = 90000000 + i, f"{1000 + i}.25"
        session.execute(ONE_ROW.format(t=name, key=key, custkey=custkey, price=price, i=i))
        inserted.append((key, custkey, "O", float(price), "1995-06-17", "1-URGENT",
                         "Clerk#000000001", 0, f"bench row {i}"))
    session.execute("BEGIN")
    session.execute(ONE_ROW.format(t=name, key=99999999, custkey=custkey, price="1.5", i=99))
    session.execute("ROLLBACK")
    session.execute(f"ANALYZE {name}")
    assert engine.block_cache.written > 0  # ANALYZE read what was written
    reference = Reference()
    reference.load(engine, name, rows + inserted)
    for sql in READ_BACKS.values():
        theirs = _check(session, reference, sql, name, [name])
    assert theirs[-1][0].startswith("5-") and sum(n for _, n in theirs) == len(rows) + 10
    reference.close()


def test_the_shapes_select_something(engines):
    """Guard against a reference that agrees because both sides are empty."""
    _session, _engine, reference = engines
    ((count,),) = reference.run(SHAPES["count_one_column"].format(t="lineitem_ao")).rows
    assert count > 5000
    assert len(reference.run(SHAPES["wide_selective"].format(t="lineitem_ao")).rows) >= 1
    assert len(reference.run(SHAPES["q1_group_agg"].format(t="lineitem_ao")).rows) == 4


#: Over ``test_block_cache.NULL_ROWS`` in ``LATE_DDL``'s table: a filter
#: keeps some rows of a block, none, or every one; the columns it does
#: not read convert late.
NULLS_SELECTS = (
    "SELECT * FROM {t} WHERE q = 7 ORDER BY k",
    "SELECT * FROM {t} WHERE q < 3 AND f ORDER BY k",
    "SELECT * FROM {t} WHERE t IS NULL AND q > 40 ORDER BY k",
    "SELECT * FROM {t} WHERE k < 0",
    "SELECT * FROM {t} WHERE k >= 0 ORDER BY k",
    "SELECT k, t, d FROM {t} WHERE m > 200 ORDER BY k",
    "SELECT * FROM {t} WHERE d < DATE '1990-02-01' ORDER BY k",
)


@pytest.mark.parametrize("cache_bytes", [128 * 1024, 64 << 20], ids=["decoded", "written"])
def test_selective_reads_of_nulls_agree_with_sqlite(cache_bytes):
    engine = repro.Engine(
        num_segment_hosts=2, segments_per_host=2, block_cache_bytes=cache_bytes
    )
    session = engine.connect()
    for storage, compression in FORMATS:
        session.execute(LATE_DDL.format(
            table=f"n_{storage}", orientation=ORIENTATION[storage],
            compression=compression.rstrip("0123456789"),
        ))
        session.load_rows(f"n_{storage}", NULL_ROWS)
    if cache_bytes < (64 << 20):
        engine.block_cache.clear()
    reference = Reference()
    reference.load(engine, "n_ao", NULL_ROWS)
    for sql in NULLS_SELECTS:
        theirs = _check(session, reference, sql, "n_ao", [f"n_{s}" for s, _ in FORMATS])
        assert theirs or "k < 0" in sql
    reference.close()
    assert (engine.block_cache.written > 0) == (cache_bytes == 64 << 20)
