"""Every byte a statement moves through HDFS is charged to it.

The simulated figures are bytes read, written and moved, converted to
seconds, so a byte that moves without a charge silently deflates them.
This is the run-time check of that contract: on an engine without a
block cache (every scan reads HDFS), each statement's
``cost.disk_read_bytes`` must equal the bytes its HDFS readers returned,
and its ``cost.disk_write_bytes`` the bytes appended to HDFS files (once
per block, not per replica).

The reads run TPC-H SF 0.002 — all 22 queries, InitPlans included — and
``scan_cold``'s four shapes on AO, CO and Parquet; the writes run
``INSERT … SELECT`` and a one-row ``INSERT VALUES`` into four
format/codec pairs, and are checked for written bytes only: an INSERT's
cost is its write (the inner SELECT's reads are not carried into it).
Parquet's modelled read amplification is set to 1.0 here, so its charge
is the bytes themselves.
"""

import pytest

import repro
from repro.hdfs.filesystem import Hdfs, HdfsReader
from repro.simtime import CostModel
from repro.tpch import QUERIES, generate, load_tpch
from tests.test_sqlite_reference import FORMATS, SHAPES, _create

SCALE = 0.002
SEED = 2
WRITE_FORMATS = (("ao", "none"), ("ao", "zlib1"), ("co", "zlib5"), ("parquet", "snappy"))


class _Moved:
    """Bytes HDFS readers returned and writers appended, counted by
    wrapping the two primitives every read and write goes through."""

    def __init__(self, monkeypatch):
        self.read = self.written = 0
        read, append = HdfsReader.read, Hdfs._append_block

        def counted_read(reader, length):
            data = read(reader, length)
            self.read += len(data)
            return data

        def counted_append(fs, inode, data, preferred):
            self.written += len(data)
            return append(fs, inode, data, preferred)

        monkeypatch.setattr(HdfsReader, "read", counted_read)
        monkeypatch.setattr(Hdfs, "_append_block", counted_append)

    def unbalanced(self, session, statements, reads=True):
        """The statements whose charged bytes differ from the moved ones:
        ``(label, charged, moved)``, read and written bytes (written
        only, unless ``reads``)."""
        out = []
        for label, sql in statements:
            read, written = self.read, self.written
            cost = session.execute(sql).cost
            charged = (cost.disk_read_bytes, cost.disk_write_bytes)
            actual = (self.read - read, self.written - written)
            if charged[not reads:] != actual[not reads:]:
                out.append((label, charged, actual))
        return out


@pytest.fixture(scope="module")
def session():
    engine = repro.Engine(
        num_segment_hosts=2,
        segments_per_host=2,
        block_cache_bytes=0,
        cost_model=CostModel(parquet_io_amplification=1.0),
    )
    session = engine.connect()
    data = load_tpch(session, scale=SCALE, data=generate(SCALE, seed=SEED))
    for storage, compression in FORMATS:
        _create(session, "lineitem", f"lineitem_{storage}", storage, compression)
        session.load_rows(f"lineitem_{storage}", data.lineitem)
    return session


@pytest.fixture()
def moved(monkeypatch):
    return _Moved(monkeypatch)


def test_tpch_reads_are_charged(session, moved):
    statements = [
        (f"Q{number}", sql)
        for number in sorted(QUERIES)
        for sql in QUERIES[number]
    ]
    assert moved.unbalanced(session, statements) == []
    assert moved.read > 0


def test_scan_cold_reads_are_charged(session, moved):
    statements = [
        (f"{storage}.{shape}", sql.format(t=f"lineitem_{storage}", d="DATE "))
        for storage, _ in FORMATS
        for shape, sql in SHAPES.items()
    ]
    assert moved.unbalanced(session, statements) == []


def test_writes_are_charged(session, moved):
    statements = []
    for storage, compression in WRITE_FORMATS:
        name = f"orders_{storage}_{compression}"
        _create(session, "orders", name, storage, compression)
        statements += [
            (f"{name} INSERT SELECT", f"INSERT INTO {name} SELECT * FROM orders"),
            (
                f"{name} INSERT VALUES",
                f"INSERT INTO {name} VALUES (1, 1, 'O', 1.5, DATE '1995-06-17', "
                "'1-URGENT', 'Clerk#000000001', 0, 'one row')",
            ),
        ]
    assert moved.unbalanced(session, statements, reads=False) == []
    assert moved.written > 0


def test_q11_counts_its_init_plan_scans(session):
    """Q11's InitPlan scans the three tables its outer query scans; the
    statement's totals carry both, as its seconds always did."""
    (sql,) = QUERIES[11]
    scans = sum(
        session.execute(f"SELECT count(*) FROM {table}").cost.disk_read_bytes
        for table in ("partsupp", "supplier", "nation")
    )
    assert session.execute(sql).cost.disk_read_bytes == 2 * scans > 0
