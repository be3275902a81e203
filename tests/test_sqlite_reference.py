"""The block decoders against an engine outside this one: SQLite.

SF 0.001 ``lineitem`` is loaded into stdlib ``sqlite3`` (dates as ISO
text, DECIMAL as REAL) and into the three formats the ``scan_cold``
benchmark reads. The benchmark's four scan shapes run on all four
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

Counts and rows must be equal, ``wide_selective`` and the group-by in
their ``ORDER BY`` order; float sums and averages must agree to a
relative 1e-9, because the two engines add in different orders.
"""

import datetime
import sqlite3

import pytest

import repro
from repro.catalog.schema import TypeKind
from repro.tpch import create_table_sql, generate
from tests.test_block_cache import LATE_DDL, NULL_ROWS, ORIENTATION

SCALE = 0.001
SEED = 2
FORMATS = (("ao", "zlib1"), ("co", "zlib5"), ("parquet", "snappy"))

#: ``scan_cold``'s four shapes, restated. ``{d}`` marks a date literal:
#: ``DATE '…'`` here, plain ISO text for SQLite.
SHAPES = {
    "q6_filter_sum": (
        "SELECT sum(l_extendedprice * l_discount) FROM {t} "
        "WHERE l_shipdate >= {d}'1994-01-01' AND l_shipdate < {d}'1995-01-01' "
        "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
    ),
    "q1_group_agg": (
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), "
        "avg(l_discount), count(*) FROM {t} WHERE l_shipdate <= {d}'1998-09-02' "
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

_SQLITE_TYPES = {
    TypeKind.INT4: "INTEGER",
    TypeKind.INT8: "INTEGER",
    TypeKind.FLOAT8: "REAL",
    TypeKind.DECIMAL: "REAL",
    TypeKind.CHAR: "TEXT",
    TypeKind.VARCHAR: "TEXT",
    TypeKind.TEXT: "TEXT",
    TypeKind.DATE: "TEXT",
    TypeKind.BOOL: "INTEGER",
}


def _iso(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


def _create(session, table, name, storage, compression):
    session.execute(
        create_table_sql(table, storage, compression).replace(
            f"CREATE TABLE {table} ", f"CREATE TABLE {name} ", 1
        )
    )


def _sqlite(engine, name, table, rows):
    """A SQLite database holding ``rows`` as table ``table``: coerced by
    the engine's own codec for ``name`` (CHAR(n) truncation, DECIMAL
    rounding), dates as text."""
    with engine.txns.run() as txn:
        schema = engine.catalog.lookup_relation(
            name, txn.statement_snapshot()
        )["schema"]
    db = sqlite3.connect(":memory:")
    db.execute(
        f"CREATE TABLE {table} ("
        + ", ".join(f"{c.name} {_SQLITE_TYPES[c.type.kind]}" for c in schema.columns)
        + ")"
    )
    db.executemany(
        f"INSERT INTO {table} VALUES ({', '.join('?' * len(schema.columns))})",
        [tuple(map(_iso, row)) for row in schema.row_codec().coerce_rows(rows)],
    )
    return db


@pytest.fixture(scope="module")
def data():
    return generate(SCALE, seed=SEED)


def _load(data, cache_bytes):
    """(repro session, engine, sqlite connection): SF 0.001 ``lineitem``
    in the three formats behind a cache of ``cache_bytes``, and in
    SQLite."""
    engine = repro.Engine(
        num_segment_hosts=2, segments_per_host=2, block_cache_bytes=cache_bytes
    )
    session = engine.connect()
    for storage, compression in FORMATS:
        name = f"lineitem_{storage}"
        _create(session, "lineitem", name, storage, compression)
        session.load_rows(name, data.lineitem)
    return session, engine, _sqlite(engine, "lineitem_ao", "lineitem", data.lineitem)


@pytest.fixture(scope="module")
def engines(data):
    """Blocks decoded from their bytes: ``scan_cold``'s 128 KiB cache,
    emptied after the load."""
    session, engine, db = _load(data, 128 * 1024)
    engine.block_cache.clear()
    yield session, engine, db
    db.close()


@pytest.fixture(scope="module")
def written_engines(data):
    """Blocks read from what the writer left: a cache that holds
    everything, read straight after the load."""
    session, engine, db = _load(data, 64 << 20)
    yield session, engine, db
    db.close()


def _assert_rows_agree(ours, theirs, exact):
    assert len(ours) == len(theirs)
    for our_row, their_row in zip(ours, theirs):
        our_row = tuple(map(_iso, our_row))
        if exact:
            assert our_row == their_row
            continue
        assert len(our_row) == len(their_row)
        for a, b in zip(our_row, their_row):
            if isinstance(a, float) or isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-9, abs=0)
            else:
                assert a == b and type(a) is type(b)


def _check_shapes(session, db, storage):
    for shape, sql in SHAPES.items():
        ours = session.execute(sql.format(t=f"lineitem_{storage}", d="DATE ")).rows
        theirs = db.execute(sql.format(t="lineitem", d="")).fetchall()
        assert theirs, f"{shape}: SQLite answered nothing"
        _assert_rows_agree(ours, theirs, exact=shape in ("count_one_column", "wide_selective"))


@pytest.mark.parametrize("storage", [storage for storage, _ in FORMATS])
def test_scan_shapes_agree_with_sqlite(engines, storage):
    session, engine, db = engines
    misses = engine.block_cache.misses
    _check_shapes(session, db, storage)
    assert engine.block_cache.misses > misses  # decoded, not only replayed
    assert engine.block_cache.written == 0


@pytest.mark.parametrize("storage", [storage for storage, _ in FORMATS])
def test_written_blocks_agree_with_sqlite(written_engines, storage):
    session, engine, db = written_engines
    cache = engine.block_cache
    misses, written = cache.misses, cache.written
    _check_shapes(session, db, storage)
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
    db = _sqlite(engine, name, "orders", rows + inserted)
    try:
        for shape, sql in READ_BACKS.items():
            ours = session.execute(sql.format(t=name)).rows
            theirs = db.execute(sql.format(t="orders")).fetchall()
            _assert_rows_agree(ours, theirs, exact=shape == "by_priority")
        assert ours[-1][0].startswith("5-") and sum(n for _, n in ours) == len(rows) + 10
    finally:
        db.close()


def test_the_shapes_select_something(engines):
    """Guard against a reference that agrees because both sides are empty."""
    _session, _engine, db = engines
    (count,) = db.execute(SHAPES["count_one_column"].format(t="lineitem")).fetchone()
    assert count > 5000
    assert len(db.execute(SHAPES["wide_selective"].format(t="lineitem", d="")).fetchall()) >= 1
    assert len(db.execute(SHAPES["q1_group_agg"].format(t="lineitem", d="")).fetchall()) == 4


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
    "SELECT * FROM {t} WHERE d < {d}'1990-02-01' ORDER BY k",
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
    db = _sqlite(engine, "n_ao", "n", NULL_ROWS)
    try:
        for sql in NULLS_SELECTS:
            theirs = db.execute(sql.format(t="n", d="")).fetchall()
            assert theirs or "k < 0" in sql
            for storage, _ in FORMATS:
                ours = session.execute(sql.format(t=f"n_{storage}", d="DATE ")).rows
                _assert_rows_agree(ours, theirs, exact=True)
    finally:
        db.close()
    assert (engine.block_cache.written > 0) == (cache_bytes == 64 << 20)
