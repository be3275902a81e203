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
    """An AO entry holds every column of each block it covers (the
    format decodes whole rows once); a hit hands out just the columns a
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
