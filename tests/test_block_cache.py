"""Block decode cache: correctness under mutation, charge policy, LRU.

The cache must be invisible except for wall-clock: every query answer
and (by default) every simulated cost must be identical to a cacheless
run, across INSERT (append), transaction rollback, TRUNCATE, VACUUM and
ALTER TABLE — the operations that change what bytes a scan should see.
"""

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
