"""The block decoders against an engine outside this one: SQLite.

SF 0.001 ``lineitem`` is loaded into stdlib ``sqlite3`` (dates as ISO
text, DECIMAL as REAL) and into the three formats the ``scan_cold``
benchmark reads, with its 128 KiB block cache, so most blocks are
decoded on a cache miss. The benchmark's four scan shapes run on all
four tables. Every AO, CO and Parquet decode path — fixed-width struct
runs, length-prefixed strings, dictionary-coded chunks, the day memo —
is then checked against rows that never went through them.

Counts and rows must be equal, ``wide_selective`` in its ``ORDER BY``
order; float sums and averages must agree to a relative 1e-9, because
the two engines add in different orders.
"""

import datetime
import sqlite3

import pytest

import repro
from repro.catalog.schema import TypeKind
from repro.tpch import create_table_sql, generate

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

_SQLITE_TYPES = {
    TypeKind.INT4: "INTEGER",
    TypeKind.INT8: "INTEGER",
    TypeKind.FLOAT8: "REAL",
    TypeKind.DECIMAL: "REAL",
    TypeKind.CHAR: "TEXT",
    TypeKind.VARCHAR: "TEXT",
    TypeKind.TEXT: "TEXT",
    TypeKind.DATE: "TEXT",
}


def _iso(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


@pytest.fixture(scope="module")
def engines():
    """(repro session, engine, sqlite connection), loaded once."""
    rows = generate(SCALE, seed=SEED).lineitem
    engine = repro.Engine(
        num_segment_hosts=2, segments_per_host=2, block_cache_bytes=128 * 1024
    )
    session = engine.connect()
    for storage, compression in FORMATS:
        name = f"lineitem_{storage}"
        session.execute(
            create_table_sql("lineitem", storage, compression).replace(
                "CREATE TABLE lineitem ", f"CREATE TABLE {name} ", 1
            )
        )
        session.load_rows(name, rows)
    # SQLite gets the values the engine stores: coerced by the table's
    # own codec (CHAR(n) truncation, DECIMAL rounding), dates as text.
    with engine.txns.run() as txn:
        schema = engine.catalog.lookup_relation(
            "lineitem_ao", txn.statement_snapshot()
        )["schema"]
    db = sqlite3.connect(":memory:")
    db.execute(
        "CREATE TABLE lineitem ("
        + ", ".join(f"{c.name} {_SQLITE_TYPES[c.type.kind]}" for c in schema.columns)
        + ")"
    )
    db.executemany(
        f"INSERT INTO lineitem VALUES ({', '.join('?' * len(schema.columns))})",
        [tuple(map(_iso, row)) for row in schema.row_codec().coerce_rows(rows)],
    )
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


@pytest.mark.parametrize("storage", [storage for storage, _ in FORMATS])
def test_scan_shapes_agree_with_sqlite(engines, storage):
    session, engine, db = engines
    misses = engine.block_cache.misses
    for shape, sql in SHAPES.items():
        ours = session.execute(sql.format(t=f"lineitem_{storage}", d="DATE ")).rows
        theirs = db.execute(sql.format(t="lineitem", d="")).fetchall()
        assert theirs, f"{shape}: SQLite answered nothing"
        _assert_rows_agree(ours, theirs, exact=shape in ("count_one_column", "wide_selective"))
    assert engine.block_cache.misses > misses  # decoded, not only replayed


def test_the_shapes_select_something(engines):
    """Guard against a reference that agrees because both sides are empty."""
    _session, _engine, db = engines
    (count,) = db.execute(SHAPES["count_one_column"].format(t="lineitem")).fetchone()
    assert count > 5000
    assert len(db.execute(SHAPES["wide_selective"].format(t="lineitem", d="")).fetchall()) >= 1
    assert len(db.execute(SHAPES["q1_group_agg"].format(t="lineitem", d="")).fetchall()) == 4
