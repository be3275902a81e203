"""Block decode cache: correctness under mutation, charge policy, LRU.

The cache must be invisible except for wall-clock: every query answer
and (by default) every simulated cost must be identical to a cacheless
run, across INSERT (append), transaction rollback, TRUNCATE, VACUUM and
ALTER TABLE — the operations that change what bytes a scan should see.
"""

import datetime
import struct

import pytest

from repro import Engine

ORIENTATION = {"ao": "row", "co": "column", "parquet": "parquet"}


def make_session(fmt="co", rows=200, **engine_kw):
    engine_kw.setdefault("num_segment_hosts", 2)
    engine_kw.setdefault("segments_per_host", 1)
    engine = Engine(**engine_kw)
    session = engine.connect()
    session.execute(
        f"CREATE TABLE t (a INT NOT NULL, b INT, s TEXT) "
        f"WITH (appendonly=true, orientation={ORIENTATION[fmt]}) "
        f"DISTRIBUTED BY (a)"
    )
    session.load_rows("t", base_rows(rows))
    return session


def base_rows(n, start=0, tag="v"):
    return [
        (i, None if i % 5 == 0 else i * 3, f"{tag}{i % 7}")
        for i in range(start, start + n)
    ]


def all_rows(session):
    return session.query("SELECT a, b, s FROM t ORDER BY a")


def expected(rows):
    return sorted(rows)


@pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
class TestInvalidation:
    def test_insert_then_select_sees_appended_rows(self, fmt):
        session = make_session(fmt)
        assert all_rows(session) == expected(base_rows(200))  # warm cache
        cache = session.engine.block_cache
        assert len(cache) > 0 and cache.misses > 0
        session.load_rows("t", base_rows(50, start=200))
        # Appends keep the cached prefix valid: the re-scan serves the
        # old blocks from cache and decodes only the appended tail.
        assert all_rows(session) == expected(base_rows(250))
        assert cache.hits > 0

    def test_rollback_then_select(self, fmt):
        session = make_session(fmt)
        before = all_rows(session)  # warm cache
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (9001, 1, 'ghost')")
        session.execute("ROLLBACK")
        assert all_rows(session) == before
        # Re-insert *different* data over the same file offsets the
        # aborted append used — stale cached blocks must not survive.
        session.load_rows("t", base_rows(50, start=300, tag="w"))
        assert all_rows(session) == expected(
            base_rows(200) + base_rows(50, start=300, tag="w")
        )

    def test_truncate_then_select(self, fmt):
        session = make_session(fmt)
        all_rows(session)  # warm cache
        session.execute("TRUNCATE TABLE t")
        assert all_rows(session) == []
        session.load_rows("t", base_rows(30, tag="x"))
        assert all_rows(session) == expected(base_rows(30, tag="x"))

    def test_vacuum_then_select(self, fmt):
        session = make_session(fmt)
        before = all_rows(session)
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (9001, 1, 'ghost')")
        session.execute("ROLLBACK")
        session.execute("VACUUM t")  # physically truncates the garbage
        assert all_rows(session) == before
        session.load_rows("t", base_rows(10, start=500))
        assert all_rows(session) == expected(
            base_rows(200) + base_rows(10, start=500)
        )

    def test_alter_storage_then_select(self, fmt):
        session = make_session(fmt)
        before = all_rows(session)
        target = "column" if fmt != "co" else "row"
        session.execute(f"ALTER TABLE t SET WITH (orientation={target})")
        assert all_rows(session) == before


class TestChargePolicy:
    def _timed_runs(self, **engine_kw):
        session = make_session("co", **engine_kw)
        cold = session.execute("SELECT sum(b), count(*) FROM t WHERE a % 3 = 0")
        warm = session.execute("SELECT sum(b), count(*) FROM t WHERE a % 3 = 0")
        assert warm.rows == cold.rows
        return cold.cost.seconds, warm.cost.seconds, session

    def test_default_hits_replay_simulated_costs(self):
        cold, warm, session = self._timed_runs()
        assert session.engine.block_cache.hits > 0
        # Figures must not move: a warm run costs exactly a cold run.
        assert warm == cold

    def test_free_hits_are_not_an_option(self):
        with pytest.raises(TypeError, match="cache_simulated_costs"):
            Engine(cache_simulated_costs=False)

    def test_cacheless_engine_matches_default_costs(self):
        cold, warm, _ = self._timed_runs()
        cold_off, warm_off, session = self._timed_runs(block_cache_bytes=0)
        assert session.engine.block_cache is None
        assert cold_off == cold == warm == warm_off


class TestCacheMechanics:
    def test_hit_counters(self):
        session = make_session("co")
        cache = session.engine.block_cache
        all_rows(session)
        misses = cache.misses
        assert misses > 0 and cache.hits == 0
        all_rows(session)
        assert cache.hits > 0
        assert cache.misses == misses  # fully served from cache

    def test_append_does_not_bump_write_epoch(self):
        session = make_session("co", rows=10)
        engine = session.engine
        snapshot = engine.txns.begin().statement_snapshot()
        segfile = next(iter(engine.catalog.segfiles("t", snapshot)))
        path = next(iter(segfile["paths"]))
        client = engine.segments[segfile["segment_id"]].client(engine.hdfs)
        epoch = client.write_epoch(path)
        session.load_rows("t", base_rows(10, start=100))
        assert client.write_epoch(path) == epoch
        # A physical shrink must bump it (this is what invalidates).
        client.truncate(path, 0)
        assert client.write_epoch(path) > epoch

    def test_lru_eviction_under_tiny_capacity(self):
        session = make_session("co", rows=5000, block_cache_bytes=16 << 10)
        cache = session.engine.block_cache
        all_rows(session)
        all_rows(session)
        assert cache.evictions > 0
        # Ledger invariant: tracked bytes == what the live entries hold.
        assert cache.total_bytes == sum(
            e.nbytes for e in cache._entries.values()
        )
        # Eviction actually bounds residency vs an uncapped cache.
        big = make_session("co", rows=5000)
        all_rows(big)
        assert cache.total_bytes < big.engine.block_cache.total_bytes
        # Still correct even while thrashing.
        assert all_rows(session) == expected(base_rows(5000))

    def test_invalid_executor_mode_rejected(self):
        with pytest.raises(Exception):
            Engine(num_segment_hosts=1, segments_per_host=1,
                   executor_mode="columnar")


class TestAoColumnPrefix:
    """An AO block enters the cache with every column when its writer
    left it, and with the columns its first scan read when that scan
    decoded it from disk — then with its payload too, from which a later
    hit builds the columns it lacks. A hit hands out just the columns a
    scan asked for, and only the prefix of blocks the caller may see."""

    @staticmethod
    def narrow(session):
        """``s`` alone, through a scan that asks AO for one column."""
        return sorted(row[0] for row in session.query("SELECT s FROM t"))

    @staticmethod
    def cached_blocks(cache):
        return [b for e in cache._entries.values() for b in e.blocks]

    def test_entries_hold_all_columns_as_vectors(self):
        session = make_session("ao")
        cache = session.engine.block_cache
        self.narrow(session)  # a one-column scan fills whole blocks
        blocks = self.cached_blocks(cache)
        assert blocks and sum(b.row_count for b in blocks) == 200
        for block in blocks:
            assert sorted(block.data) == [0, 1, 2]
            assert all(len(col) == block.row_count for col in block.data.values())
        misses = cache.misses
        assert all_rows(session) == expected(base_rows(200))  # other columns: hits
        assert cache.misses == misses and cache.hits > 0

    def test_a_cold_narrow_scan_then_select_star_completes_its_blocks(
        self, monkeypatch
    ):
        from repro.storage import base

        reads = []
        read_exactly = base._read_exactly
        monkeypatch.setattr(
            base, "_read_exactly",
            lambda *args: reads.append(args[1]) or read_exactly(*args),
        )
        session = make_session("ao")
        cache = session.engine.block_cache
        cache.clear()  # blocks come from disk, not from the written values
        assert self.narrow(session) == sorted(row[2] for row in base_rows(200))
        blocks = self.cached_blocks(cache)
        assert blocks and sum(b.row_count for b in blocks) == 200
        for block in blocks:  # the scan's column, and what builds the rest
            assert sorted(block.data) == [2]
            assert len(block.payload) == block.uncompressed_bytes
        assert (cache.hits, cache.misses, cache.written) == (0, 2, 0)
        assert len(reads) == 2
        assert all_rows(session) == expected(base_rows(200))
        assert len(reads) == 2
        # The counters a whole-row decode read at the first scan: the
        # SELECT * is served as hits.
        assert (cache.hits, cache.misses, cache.written) == (2, 2, 0)
        assert self.cached_blocks(cache) == blocks
        for block in blocks:
            assert sorted(block.data) == [0, 1, 2] and block.payload is None
        cacheless = make_session("ao", block_cache_bytes=0)
        assert all_rows(session) == all_rows(cacheless)

    def test_hit_after_insert_serves_prefix_then_tail(self):
        session = make_session("ao")
        cache = session.engine.block_cache
        before = self.narrow(session)
        old_blocks = len(self.cached_blocks(cache))
        misses = cache.misses
        session.load_rows("t", base_rows(50, start=200, tag="n"))
        hits = cache.hits
        assert self.narrow(session) == sorted(
            before + [row[2] for row in base_rows(50, start=200, tag="n")]
        )
        assert cache.hits - hits == old_blocks  # the old prefix, from cache
        assert cache.misses > misses  # only the appended tail was decoded
        assert all_rows(session) == expected(
            base_rows(200) + base_rows(50, start=200, tag="n")
        )

    def test_hit_after_rollback_serves_committed_prefix_only(self):
        session = make_session("ao")
        before = self.narrow(session)
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (9001, 1, 'ghost')")
        # Inside the transaction the row is visible and gets cached...
        assert "ghost" in self.narrow(session)
        session.execute("ROLLBACK")
        # ...after it, the same entry must serve the shorter prefix.
        assert self.narrow(session) == before
        session.load_rows("t", base_rows(20, start=300, tag="w"))
        assert self.narrow(session) == sorted(
            before + [row[2] for row in base_rows(20, start=300, tag="w")]
        )

    def test_hit_after_truncate_serves_nothing_stale(self):
        session = make_session("ao")
        self.narrow(session)
        session.execute("TRUNCATE TABLE t")
        assert self.narrow(session) == []
        session.load_rows("t", base_rows(30, tag="x"))
        assert self.narrow(session) == sorted(
            row[2] for row in base_rows(30, tag="x")
        )
        assert all_rows(session) == expected(base_rows(30, tag="x"))


class TestWrittenBlocks:
    """A writer leaves each block it appends in the cache, unread, with
    the values it wrote. The block's first read is a miss in every way
    but one: HDFS is read, charged and checked as for any miss, and only
    the decode is replaced by the written values."""

    @pytest.fixture()
    def decodes(self, monkeypatch):
        """Calls of the formats' two payload decoders, by decoder."""
        from repro.catalog.schema import RowCodec
        from repro.storage.base import ColumnCodec

        calls = {"rows": 0, "chunk": 0}

        def counted(cls, attr, label):
            real = getattr(cls, attr)

            def wrapper(*args, **kwargs):
                calls[label] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, attr, wrapper)

        counted(RowCodec, "decode_rows", "rows")
        counted(ColumnCodec, "decode", "chunk")
        return calls

    @staticmethod
    def blocks(cache):
        return [b for e in cache._entries.values() for b in e.blocks]

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_a_load_then_a_read_decodes_nothing(self, fmt, decodes):
        session = make_session(fmt)
        cache = session.engine.block_cache
        assert all(b.remote_bytes is None for b in self.blocks(cache))
        assert all_rows(session) == expected(base_rows(200))
        assert decodes == {"rows": 0, "chunk": 0}
        assert cache.hits == 0 and cache.misses == cache.written > 0
        # The same blocks, once read, are ordinary hits.
        assert all_rows(session) == expected(base_rows(200))
        assert cache.hits > 0 and cache.misses == cache.written
        # With the cache emptied, the first read decodes every block.
        cache.clear()
        assert all_rows(session) == expected(base_rows(200))
        assert decodes["rows"] + decodes["chunk"] > 0

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_a_first_read_charges_what_a_decode_charges(self, fmt):
        def first_read(clear):
            session = make_session(fmt)
            if clear:
                session.engine.block_cache.clear()
            return session.execute("SELECT a, b, s FROM t ORDER BY a")

        written, decoded = first_read(False), first_read(True)
        assert written.rows == decoded.rows
        assert written.cost.seconds == decoded.cost.seconds
        for counter in ("cache_misses", "bytes_read", "cache_hits"):
            assert written.metrics.total(counter) == decoded.metrics.total(counter)
        assert written.metrics.total("cache_written") > 0
        assert decoded.metrics.total("cache_written") == 0

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_a_rolled_back_insert_is_never_served(self, fmt, decodes):
        session = make_session(fmt)
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (9001, 1, 'ghost')")
        session.execute("ROLLBACK")
        cache = session.engine.block_cache
        ghost_entries = [
            e for e in cache._entries.values()
            if any(b.remote_bytes is None for b in e.blocks[1:])
        ]
        assert ghost_entries  # the aborted block, after the loaded one
        assert all_rows(session) == expected(base_rows(200))
        # The abort truncated the files it appended to, under a new write
        # epoch: they are decoded again, and the entries holding the
        # aborted block are never read.
        assert decodes["rows"] + decodes["chunk"] > 0
        assert all(
            b.remote_bytes is None for e in ghost_entries for b in e.blocks
        )
        session.load_rows("t", base_rows(20, start=300, tag="w"))
        assert all_rows(session) == expected(
            base_rows(200) + base_rows(20, start=300, tag="w")
        )

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_an_older_snapshot_stops_at_its_logical_length(self, fmt):
        session = make_session(fmt)
        reader = session.engine.connect()
        reader.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        assert reader.query("SELECT count(*) FROM t") == [(200,)]
        session.load_rows("t", base_rows(50, start=200, tag="n"))
        cache = session.engine.block_cache
        written = cache.written
        assert reader.query("SELECT a, b, s FROM t ORDER BY a") == expected(
            base_rows(200)
        )
        unread = [b for b in self.blocks(cache) if b.remote_bytes is None]
        assert unread  # the appended blocks: beyond the old snapshot
        reader.execute("COMMIT")
        assert all_rows(session) == expected(
            base_rows(200) + base_rows(50, start=200, tag="n")
        )
        assert cache.written > written
        assert all(b.remote_bytes is not None for b in self.blocks(cache))

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_an_append_after_eviction_primes_nothing(self, fmt, decodes):
        session = make_session(fmt)
        cache = session.engine.block_cache
        cache.clear()
        session.load_rows("t", base_rows(50, start=200, tag="n"))
        assert len(cache) == 0  # no entry to continue: nothing is left
        assert all_rows(session) == expected(
            base_rows(200) + base_rows(50, start=200, tag="n")
        )
        assert cache.written == 0 and decodes["rows"] + decodes["chunk"] > 0

    def test_a_parquet_scan_fills_and_charges_its_chunks_only(self, decodes):
        from repro.catalog.schema import Column, DataType, TableSchema
        from repro.hdfs import Hdfs
        from repro.storage import parquet
        from repro.storage.base import ScanStats
        from repro.storage.cache import BlockDecodeCache

        schema = TableSchema(
            "p",
            [Column("a", DataType.parse("INT8")), Column("b", DataType.parse("INT8")),
             Column("s", DataType.parse("TEXT"))],
        )
        rows = [(i, None if i % 5 == 0 else i * 3, f"v{i % 7}") for i in range(2500)]
        fs = Hdfs(block_size=4096, replication=1, seed=5)
        fs.add_datanode("h1")
        client = fs.client("h1")
        cache = BlockDecodeCache()
        result = parquet.write(client, "/p/f0", rows, schema, "snappy", cache=cache)
        (entry,) = cache._entries.values()
        assert len(entry.blocks) == 3 and cache.total_bytes == entry.nbytes

        def scan(columns, use_cache):
            stats = ScanStats()
            blocks = list(parquet.scan_blocks(
                client, result.paths, schema, "snappy", columns, stats, use_cache
            ))
            return blocks, stats

        # Charged as cacheless reads are (which decode every chunk).
        uncached = {column: scan([column], None)[1] for column in (0, 2)}
        decodes["chunk"] = 0
        blocks, stats = scan([2], cache)
        assert stats == uncached[2]
        assert [sorted(b.data) for b in entry.blocks] == [[2]] * 3
        assert [sorted(b.written) for b in entry.blocks] == [[0, 1]] * 3
        assert cache.misses == cache.written == 3 and decodes["chunk"] == 0
        # A later scan of another column fills that chunk from what was
        # written, and is charged the header (a hit) plus the chunk read.
        bytes_before = cache.total_bytes
        blocks, stats = scan([0], cache)
        assert stats == uncached[0]
        assert [sorted(b.data) for b in entry.blocks] == [[0, 2]] * 3
        assert cache.written == 6 and decodes["chunk"] == 0
        assert cache.total_bytes == bytes_before  # held since the write
        assert [v for _, cols in blocks for v in cols[0]] == [r[0] for r in rows]


def test_a_datanode_lost_before_the_first_read_is_charged_as_a_decode():
    """The first read after a DataNode and its segment die goes to a
    remote replica, whether the block was left by the writer or must be
    decoded: the same remote bytes, the same charged seconds."""

    def first_read(clear):
        session = make_session("co", rows=600, num_segment_hosts=5)
        engine = session.engine
        if clear:
            engine.block_cache.clear()
        engine.hdfs.fail_datanode("host0")
        engine.fail_segment(0)
        return session.execute("SELECT a, b, s FROM t ORDER BY a"), engine

    (written, engine), (decoded, _) = first_read(False), first_read(True)
    assert written.rows == decoded.rows == expected(base_rows(600))
    assert written.metrics.total("remote_read_bytes") > 0
    assert written.metrics.total("remote_read_bytes") == decoded.metrics.total(
        "remote_read_bytes"
    )
    assert written.cost.seconds == decoded.cost.seconds
    assert engine.block_cache.written > 0


@pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
def test_a_frame_that_is_not_the_written_block_is_a_storage_error(fmt):
    """The first read checks each frame it decompresses against the
    block the writer left at that offset; a disagreement is damage."""
    from repro.catalog.schema import Column, DataType, TableSchema
    from repro.errors import StorageError
    from repro.hdfs import Hdfs
    from repro.storage import get_format
    from repro.storage.cache import BlockDecodeCache

    schema = TableSchema(
        "w", [Column("a", DataType.parse("INT8")), Column("s", DataType.parse("TEXT"))]
    )
    rows = [(i, f"v{i % 3}") for i in range(1500)]
    fs = Hdfs(block_size=4096, replication=1, seed=5)
    fs.add_datanode("h1")
    client = fs.client("h1")
    storage = get_format(fmt)
    for field in ("row_count", "size"):
        cache = BlockDecodeCache()
        paths = storage.write(client, f"/w/{field}", rows, schema, "zlib1", cache=cache).paths
        block = next(iter(cache._entries.values())).blocks[1]
        if field == "row_count":
            block.row_count += 1
        elif fmt == "parquet":
            block.detail["directory"][0] = (1, 1)
        else:
            block.uncompressed_bytes += 1
        with pytest.raises(StorageError, match="written there"):
            list(storage.scan_blocks(client, paths, schema, "zlib1", cache=cache))


def _one_host_fs():
    from repro.hdfs import Hdfs

    fs = Hdfs(block_size=4096, replication=1, seed=5)
    fs.add_datanode("h1")
    return fs, fs.client("h1")


@pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
def test_a_write_larger_than_the_cache_is_left_to_the_first_scan(fmt):
    """A write whose blocks would not fit the cache leaves nothing: it
    evicts no other table's entry and pins nothing above capacity."""
    from repro.catalog.schema import Column, DataType, TableSchema
    from repro.storage import get_format
    from repro.storage.cache import BlockDecodeCache

    schema = TableSchema(
        "w", [Column("a", DataType.parse("INT8")), Column("s", DataType.parse("TEXT"))]
    )
    rows = [(i, f"v{i % 3}") for i in range(5000)]
    fs, client = _one_host_fs()
    storage = get_format(fmt)
    cache = BlockDecodeCache(capacity_bytes=16 * 1024)
    storage.write(client, "/w/small", rows[:100], schema, "none", cache=cache)
    small = dict(cache._entries)
    assert small and cache.total_bytes <= cache.capacity_bytes
    big = storage.write(client, "/w/big", rows, schema, "none", cache=cache).paths
    assert cache._entries == small and cache.evictions == 0
    assert cache.total_bytes == sum(e.nbytes for e in small.values())
    scanned = list(storage.scan(client, big, schema, "none", cache=cache))
    assert scanned == rows and cache.written == 0


@pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
def test_a_same_length_payload_damage_is_unseen_until_a_decode(fmt):
    """A block's first read checks its frame, not its payload: while the
    writer's values stand in for the decode, damage that keeps the
    payload's length (here under ``none``, which has no checksum) is not
    seen. Once the block has left the cache, the decode reads it."""
    from repro.catalog.schema import Column, DataType, TableSchema
    from repro.storage import get_format
    from repro.storage.cache import BlockDecodeCache

    schema = TableSchema("d", [Column("a", DataType.parse("INT8"))])
    rows = [(i,) for i in range(10)]
    fs, client = _one_host_fs()
    storage = get_format(fmt)
    cache = BlockDecodeCache()
    paths = storage.write(client, "/d/f0", rows, schema, "none", cache=cache).paths
    (path,) = paths
    (hdfs_block,) = fs._inode(path).blocks
    node = fs.datanodes["h1"]
    data = bytearray(node.read_block(hdfs_block.block_id))
    # The last byte is the high byte of the last value, in every format.
    assert data[-8:] == (9).to_bytes(8, "little")
    data[-1] ^= 0x01
    node.replace_block(hdfs_block.block_id, bytes(data))
    assert list(storage.scan(client, paths, schema, "none", cache=cache)) == rows
    assert cache.written == 1
    cache.clear()
    damaged = list(storage.scan(client, paths, schema, "none", cache=cache))
    assert damaged == rows[:-1] + [(9 + (1 << 56),)]


# ------------------------------------------------------------ late columns
LATE_DDL = (
    "CREATE TABLE {table} (k INT NOT NULL, q INT, t TEXT, v VARCHAR(12), d DATE, "
    "f BOOL, m DECIMAL(10,2)) WITH (appendonly=true, orientation={orientation}, "
    "compresstype={compression}) DISTRIBUTED BY (k)"
)


#: Every nullable column NULL on a stride of its own; ``t`` is non-ASCII
#: in rows 2000-2099 only, so some chunks take the value by value check
#: and the rest the one ASCII test.
NULL_ROWS = [
    (
        i,
        i % 50,
        None if i % 7 == 0 else f"t{i % 13}" + ("é" if 2000 <= i < 2100 else ""),
        None if i % 5 == 0 else f"v{i % 17}",
        None if i % 9 == 0 else datetime.date(1990, 1, 1) + datetime.timedelta(days=i % 400),
        None if i % 4 == 0 else i % 3 == 0,
        None if i % 6 == 0 else (i % 1000) / 4,
    )
    for i in range(2500)
]

#: A filtered ``SELECT *`` keeps some rows of each block, none, or all
#: of them; then a read of every column with no filter, and a narrower
#: one whose filter reads a BOOL and an INT.
LATE_STATEMENTS = {
    "some": ("SELECT * FROM n WHERE q = 7 ORDER BY k", lambda r: r[1] == 7),
    "none": ("SELECT * FROM n WHERE k < 0", lambda r: False),
    "all": ("SELECT * FROM n WHERE k >= 0 ORDER BY k", lambda r: True),
    "full": ("SELECT * FROM n ORDER BY k", lambda r: True),
    "strings": (
        "SELECT t, v, d FROM n WHERE f AND q < 5 ORDER BY k",
        lambda r: r[5] is True and r[1] < 5,
    ),
}


def late_session(fmt, cache_bytes=64 << 20, compression="zlib"):
    engine = Engine(num_segment_hosts=2, segments_per_host=1,
                    block_cache_bytes=cache_bytes)
    session = engine.connect()
    session.execute(LATE_DDL.format(
        table="n", orientation=ORIENTATION[fmt], compression=compression
    ))
    session.load_rows("n", NULL_ROWS)
    return session


class TestLateColumns:
    """A filtered CO or Parquet scan converts the columns its filter does
    not read only at the rows it keeps. Nothing else may tell: rows,
    simulated seconds, cache counters and every lane's ``ScanStats`` are
    an all-eager run's, whichever read of a block comes first."""

    SEQUENCES = (
        ("some", "full"),
        ("full", "some"),
        ("none", "all", "some", "strings", "full"),
        ("all", "some", "none"),
    )

    @staticmethod
    def run(monkeypatch, fmt, sequence, decoded, cache_bytes, eager):
        from repro.cluster import worker
        from repro.executor import batch_ops
        from repro.storage.base import LateChunk, ScanStats

        stats, partial = [], []
        with monkeypatch.context() as patch:

            class Recorded(ScanStats):
                def __init__(self):
                    super().__init__()
                    stats.append(self)

            patch.setattr(worker, "ScanStats", Recorded)
            values = LateChunk.values

            def counted(self, keep=None):
                if keep is not None and self.vector is None:
                    partial.append(len(keep))
                return values(self, keep)

            patch.setattr(LateChunk, "values", counted)
            if eager:
                patch.setattr(batch_ops, "_late_positions", lambda *args, **kwargs: ())
            session = late_session(fmt, cache_bytes)
            cache = session.engine.block_cache
            if decoded:
                cache.clear()
            out = []
            for name in sequence:
                result = session.execute(LATE_STATEMENTS[name][0])
                out.append((name, result.rows, result.cost.seconds,
                            (cache.hits, cache.misses, cache.written, cache.evictions)))
        scans = [(s.compressed_bytes, s.uncompressed_bytes, s.rows, s.blocks,
                  s.remote_bytes) for s in stats]
        return out, scans, partial

    @pytest.mark.parametrize("fmt", ["co", "parquet"])
    @pytest.mark.parametrize("decoded", [True, False], ids=["decoded", "written"])
    @pytest.mark.parametrize("cache_bytes", [64 << 20, 24 * 1024], ids=["roomy", "tight"])
    def test_a_late_read_is_an_eager_read(self, monkeypatch, fmt, decoded, cache_bytes):
        for sequence in self.SEQUENCES:
            late = self.run(monkeypatch, fmt, sequence, decoded, cache_bytes, eager=False)
            eager = self.run(monkeypatch, fmt, sequence, decoded, cache_bytes, eager=True)
            assert late[:2] == eager[:2]
            assert not eager[2]
            if decoded and sequence[0] not in ("full", "all"):
                # Blocks read first by a filter that drops rows convert late.
                assert late[2] and min(late[2]) < 1024
            for name, rows, _seconds, _counters in late[0]:
                keep = LATE_STATEMENTS[name][1]
                columns = slice(2, 5) if name == "strings" else slice(None)
                assert rows == [r[columns] for r in NULL_ROWS if keep(r)]
            evictions = late[0][-1][3][3]
            assert (evictions > 0) == (cache_bytes < (64 << 20))

    def test_each_late_kind_holds_its_nulls(self):
        """The kept rows' NULLs of each kind stay NULL — TEXT, VARCHAR
        and DATE convert late, BOOL and DECIMAL whole — and a block whose
        kept rows are all NULL in a column reads as NULL."""
        for fmt in ("co", "parquet"):
            session = late_session(fmt)
            session.engine.block_cache.clear()
            rows = session.query("SELECT * FROM n WHERE q < 5 ORDER BY k")
            assert rows == [r for r in NULL_ROWS if r[1] < 5]
            for column in range(2, 7):
                assert any(r[column] is None for r in rows)
                assert any(r[column] is not None for r in rows)
            rows = session.query("SELECT t, m FROM n WHERE k = 0 OR k = 42")
            assert sorted(rows) == [(None, None), (None, None)]

    @pytest.mark.parametrize("fmt", ["co", "parquet"])
    def test_a_leaf_altered_to_row_reads_its_late_columns_whole(self, fmt):
        """The late set comes from the parent's format, but each leaf's
        lane scans in its own: a CO or Parquet table with one leaf
        altered to row orientation serves a filtered ``SELECT *`` from
        both kinds of leaf, the AO one decoding as always."""
        session = Engine(num_segment_hosts=2, segments_per_host=1).connect()
        session.execute(
            "CREATE TABLE pt (k INT NOT NULL, q INT, t TEXT, d DATE) "
            f"WITH (appendonly=true, orientation={ORIENTATION[fmt]}) "
            "DISTRIBUTED BY (k) PARTITION BY RANGE (q) (START (0) END (50) EVERY (25))"
        )
        rows = [r[:3] + r[4:5] for r in NULL_ROWS]
        session.load_rows("pt", rows)
        session.execute("ALTER TABLE pt_1_prt_1 SET WITH (orientation=row)")
        for sql, keep in (
            ("SELECT * FROM pt WHERE q = 7 OR q = 32 ORDER BY k", lambda r: r[1] in (7, 32)),
            ("SELECT * FROM pt WHERE k < 0", lambda r: False),
            ("SELECT * FROM pt WHERE k >= 0 ORDER BY k", lambda r: True),
        ):
            assert session.query(sql) == [r for r in rows if keep(r)]

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_a_selective_scan_converts_only_the_kept_strings(self, monkeypatch, fmt):
        """The TEXT loader sees exactly the kept rows' values on CO and
        Parquet; AO, whose blocks are walked whole, loads every row's."""
        from repro.catalog.schema import DataType

        wire = DataType.parse("TEXT").wire
        loaded = []
        load = wire.load

        def spy(raws):
            values = load(raws)
            loaded.extend(values)
            return values

        monkeypatch.setattr(wire, "load", spy)
        session = make_session(fmt, rows=3000, block_cache_bytes=0)
        assert session.query("SELECT * FROM t WHERE b = 51") == [(17, 51, "v3")]
        if fmt == "ao":
            assert len(loaded) == 3000
        else:
            assert loaded == ["v3"]
        loaded.clear()
        assert session.query("SELECT * FROM t WHERE b < 0") == []
        assert len(loaded) == (3000 if fmt == "ao" else 0)

    @pytest.mark.parametrize("fmt", ["co", "parquet"])
    def test_a_bad_value_in_a_dropped_row_fails_the_statement(self, fmt):
        """Invalid UTF-8 or a DATE out of range in a row the filter drops
        fails a ``SELECT *``, cold and on the cache hit that serves the
        chunk's payload; a statement that does not read the column runs."""
        from repro.errors import StorageError

        last_day = datetime.date(1990, 1, 1) + datetime.timedelta(days=399)
        for good, bad in (
            ("t3é".encode(), b"t3\xff\xfe"),
            (struct.pack("<i", (last_day - datetime.date(1970, 1, 1)).days),
             struct.pack("<i", 2**31 - 1)),
        ):
            session = late_session(fmt, compression="none")
            engine = session.engine
            assert _replace_stored(engine, good, bad) > 0
            engine.block_cache.clear()
            for _ in range(2):
                hits = engine.block_cache.hits
                for sql in ("SELECT * FROM n WHERE k = 1", "SELECT * FROM n WHERE k < 0"):
                    with pytest.raises(StorageError, match="corrupt chunk"):
                        session.execute(sql)
            assert engine.block_cache.hits > hits
            assert session.query("SELECT k, q FROM n WHERE k = 1") == [(1, 1)]


def _replace_stored(engine, old, new):
    """Overwrite ``old`` with ``new`` (as long) in every stored replica of
    every data file; returns how many replicas changed."""
    fs = engine.hdfs
    changed = 0
    for status in fs.list_status():
        for block in fs._inode(status.path).blocks:
            for node in fs.datanodes.values():
                if node.has_block(block.block_id):
                    data = node.read_block(block.block_id)
                    if old in data:
                        node.replace_block(block.block_id, data.replace(old, new))
                        changed += 1
    return changed
